"""CLI reports under --no-timings match the stored ones byte for byte.

A stored report is regenerated with
`PYTHONPATH=src python -m cdvcert.cli ARGS --no-timings > tests/golden/NAME.json`,
only when a verdict or the report format is meant to change.
"""

from pathlib import Path

import pytest

from cdvcert import cli

GOLDEN = Path(__file__).parent / "golden"

COMMANDS = {
    "genus10_skip_sap": ["genus10", "--skip-sap"],
    "bipartite_2_3": ["bipartite", "2", "3"],
    "bipartite_4_5_s_0_4": ["bipartite", "4", "5", "--s", "0", "4"],
    "witness_3_4": ["witness", "3", "4"],
    "q1": ["q1"],
    "coset_gamma10_subgroup_z": ["coset", "gamma10", "--subgroup", "z"],
}


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_report_matches_golden(capsys, name):
    code = cli.main([*COMMANDS[name], "--no-timings"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.encode() == (GOLDEN / f"{name}.json").read_bytes()
