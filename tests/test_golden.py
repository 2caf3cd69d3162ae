"""CLI reports under --no-timings and operator files written by
--out-operator match the stored ones byte for byte.

A stored report is regenerated, from the repository root, with
`PYTHONPATH=src python -m cdvcert.cli ARGS --no-timings > tests/golden/NAME.json`,
and a stored operator file with
`PYTHONPATH=src python -m cdvcert.cli ARGS --out-operator tests/golden/operator_NAME.json`,
only when a verdict, the report format or the operator file format is
meant to change.
"""

from pathlib import Path

import pytest

from cdvcert import cli

GOLDEN = Path(__file__).parent / "golden"

COMMANDS = {
    "genus10": ["genus10"],
    "bipartite_2_3": ["bipartite", "2", "3"],
    "bipartite_4_5_s_0_4": ["bipartite", "4", "5", "--s", "0", "4"],
    "witness_3_4": ["witness", "3", "4"],
    "q1": ["q1"],
    "coset_gamma10_subgroup_z": ["coset", "gamma10", "--subgroup", "z"],
    "heawood_minus18_mu_16": ["heawood", "-18", "--mu", "16"],
}

# `cdvcert sap tests/golden/sap_input_NAME.json` reports, with their exit
# codes:
# - path4: P4 with diagonal (-1, 2, 2, 2), corank 0;
# - two_edges: edges (0,1) and (2,3) with diagonal (0, 0, 1, 1), corank 1
#   on a disconnected graph;
# - star_isolated: K_{1,4} plus an isolated vertex, zero diagonal,
#   corank 4 and rank deficient, with a witness.
SAP_CASES = {"path4": 0, "two_edges": 0, "star_isolated": 1}


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_report_matches_golden(capsys, name):
    code = cli.main([*COMMANDS[name], "--no-timings"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.encode() == (GOLDEN / f"{name}.json").read_bytes()


@pytest.mark.parametrize("name", sorted(SAP_CASES))
def test_sap_report_matches_golden(capsys, monkeypatch, name):
    # The report records the operator path as given, so run from the root.
    monkeypatch.chdir(GOLDEN.parent.parent)
    path = f"tests/golden/sap_input_{name}.json"
    code = cli.main(["sap", path, "--no-timings"])
    out = capsys.readouterr().out
    assert code == SAP_CASES[name]
    assert out.encode() == (GOLDEN / f"sap_{name}.json").read_bytes()


@pytest.mark.parametrize("name", ["bipartite_2_3", "bipartite_4_5_s_0_4"])
def test_operator_file_matches_golden(capsys, tmp_path, name):
    path = tmp_path / "operator.json"
    code = cli.main([*COMMANDS[name], "--out-operator", str(path)])
    capsys.readouterr()
    assert code == 0
    assert path.read_bytes() == (GOLDEN / f"operator_{name}.json").read_bytes()
