import json
import re
import time
from pathlib import Path

import pytest

from oracles import drop_last_vector
from cdvcert import cdvcore, cli, exactfield, exactlinalg, maps
from cdvcert.cdvcore import MAX_OPERATOR_VERTICES, MAX_SAP_SLOTS


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


def no_floats(tree):
    if isinstance(tree, float):
        return False
    if isinstance(tree, dict):
        return all(no_floats(v) for v in tree.values())
    if isinstance(tree, list):
        return all(no_floats(v) for v in tree)
    return True


class TestHeawood:
    def test_basic(self, capsys):
        code, report = run(capsys, "heawood", "-18", "--no-timings")
        assert code == 0
        assert report["results"]["heawood"] == 14

    def test_window(self, capsys):
        code, report = run(capsys, "heawood", "-18", "--mu", "16", "--no-timings")
        assert code == 0
        assert report["results"]["range"] == [-28, -19]

    def test_a_huge_mu_answers_at_once(self, capsys):
        # The window is found in closed form: a walk down from -19 would
        # take about 1.7e11 steps here.
        start = time.process_time()
        code, report = run(capsys, "heawood", "-18", "--mu", "1000000", "--no-timings")
        assert time.process_time() - start < 1
        assert code == 0
        assert report["results"]["range"] == [-166665833332, -19]

    def test_klein_flag(self, capsys):
        code, report = run(capsys, "heawood", "0", "--klein-bottle", "--no-timings")
        assert code == 0
        assert report["results"]["heawood"] == 6

    @pytest.mark.parametrize("argv", [["-18"], ["0", "--klein-bottle"], ["2"]])
    def test_a_wrong_bound_fails_computed(self, capsys, monkeypatch, argv):
        # `computed` checks the reported value against the formula, so a
        # bound one too large is reported with passed false.
        gamma = maps.heawood_gamma
        monkeypatch.setattr(maps, "heawood_gamma", lambda *a, **k: gamma(*a, **k) + 1)
        code, report = run(capsys, "heawood", *argv, "--no-timings")
        assert code == 1
        assert report["verdict"] == {"computed": False}
        assert report["passed"] is False

    def test_invalid_chi_fails_cleanly(self, capsys):
        code, report = run(capsys, "heawood", "5", "--no-timings")
        assert code == 1
        assert report["verdict"]["completed"] is False
        assert "InvalidChi" in report["results"]["error"]["detail"]


class TestGenus10:
    def test_operator_kernel_is_computed_once(self, capsys, monkeypatch):
        # Inertia, the corank verdict and check_sap each ask for the
        # operator's kernel; the matrix keeps it, so one elimination on
        # its 54 columns serves all three.
        cols = []
        pair_kernel = exactlinalg.pair_kernel_basis
        monkeypatch.setattr(
            exactlinalg,
            "pair_kernel_basis",
            lambda *a: cols.append(a[1]) or pair_kernel(*a),
        )
        code, report = run(capsys, "genus10", "--no-timings")
        assert code == 0 and report["passed"]
        assert cols.count(54) == 1

    def test_progress_names_every_stage(self, capsys):
        cli.main(["genus10", "--progress", "--no-timings"])
        captured = capsys.readouterr()
        stages = re.findall(r"^\[(\w+)\] ", captured.err, re.M)
        assert stages == ["enumerate", "map", "charpoly", "operator", "transversality"]
        json.loads(captured.out)

    def test_transversality_cannot_be_skipped(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["genus10", "--skip-sap"])
        assert exc.value.code == 2
        assert "--skip-sap" in capsys.readouterr().err

    def test_a_fault_keeps_its_stage_and_the_verdicts_before_it(
        self, capsys, monkeypatch
    ):
        def fail(operator):
            raise RuntimeError("injected")

        monkeypatch.setattr(cdvcore, "check_sap", fail)
        code, report = run(capsys, "genus10")
        assert code == 1 and report["passed"] is False
        assert report["results"]["error"]["stage"] == "transversality"
        reached = ("group_order", "map_counts", "charpoly_factored", "inertia", "corank")
        assert all(report["verdict"][name] is True for name in reached)
        assert set(report["timings"]) == {
            "enumerate", "map", "charpoly", "operator", "transversality"
        }


class TestQ1:
    def test_passes(self, capsys):
        code, report = run(capsys, "q1", "--no-timings")
        assert code == 0
        assert report["passed"] is True
        assert len(report["results"]["samples"]) == 18

    def test_reports_contain_no_floats(self, capsys):
        _, report = run(capsys, "q1", "--no-timings")
        assert no_floats(report)

    def test_a_row_gap_off_the_cubic_is_reported_at_verify(
        self, capsys, monkeypatch
    ):
        # One diagonal entry raised by 1 moves the first row sum off
        # (a/3)*cubic(x); the cross-check must fail the report, not crash.
        q1_operator = cdvcore.q1_operator

        def shifted(graph, a, x):
            m = q1_operator(graph, a, x).matrix
            diagonal = [m.entry(0, 0) + 1, *(m.entry(i, i) for i in range(1, 7))]
            weights = [m.entry(u, v) for u, v in graph.edges]
            return cdvcore.SchrodingerOperator(graph, diagonal, weights)

        monkeypatch.setattr(cdvcore, "q1_operator", shifted)
        code, report = run(capsys, "q1", "--no-timings")
        assert code == 1 and report["passed"] is False
        error = report["results"]["error"]
        assert error["stage"] == "verify"
        assert "RuntimeError" in error["detail"] and "row gap" in error["detail"]


class TestBipartite:
    def test_corank_and_kernel(self, capsys):
        code, report = run(
            capsys, "bipartite", "3", "4", "--s", "0", "3", "--no-timings"
        )
        assert code == 0
        assert report["results"]["corank"] == 3
        assert report["verdict"]["kernel_description"] is True

    def test_a_kernel_missing_a_vector_is_reported_at_build(
        self, capsys, monkeypatch
    ):
        # The family handed to membership passes the candidate checks
        # without its last vector, so the congruence finds the block it
        # eliminates singular, inside build_bipartite_operator.
        kernel = cdvcore._bipartite_kernel
        monkeypatch.setattr(
            cdvcore, "_bipartite_kernel", lambda *a: drop_last_vector(kernel(*a))
        )
        code, report = run(
            capsys, "bipartite", "3", "4", "--s", "0", "3", "--no-timings"
        )
        assert code == 1 and report["passed"] is False
        error = report["results"]["error"]
        assert error["stage"] == "build"
        assert "RuntimeError" in error["detail"] and "singular" in error["detail"]
        assert "inertia" not in report["results"]

    def test_bad_sides_fail(self, capsys):
        code, report = run(capsys, "bipartite", "3", "2", "--no-timings")
        assert code == 1
        assert report["results"]["error"]["stage"] == "build"

    def test_saved_operator_feeds_sap_command(self, capsys, tmp_path):
        path = str(tmp_path / "op.json")
        code, _ = run(
            capsys,
            "bipartite", "1", "4",
            "--out-operator", path,
            "--no-timings",
        )
        assert code == 0
        # corank 3 star: the transversality check must fail with a witness
        code, report = run(capsys, "sap", path, "--no-timings")
        assert code == 1
        assert report["results"]["corank"] == 3
        assert report["results"]["transversality"]["full_rank"] is False
        assert "witness" in report["results"]

    def test_missing_file_is_reported(self, capsys):
        code, report = run(capsys, "sap", "/nonexistent/op.json", "--no-timings")
        assert code == 1
        assert report["verdict"]["completed"] is False
        assert report["inputs"]["operator"] == "/nonexistent/op.json"

    def test_a_kernel_missing_a_vector_is_reported_at_membership(
        self, capsys, monkeypatch
    ):
        # K_{1,4} plus an isolated vertex has corank 4.  Without its last
        # kernel vector, inertia finds the block it eliminates singular.
        kernel = exactlinalg.pair_kernel_basis
        monkeypatch.setattr(
            exactlinalg,
            "pair_kernel_basis",
            lambda *a: (drop_last_vector(kernel(*a)[0]), None),
        )
        path = Path(__file__).parent / "golden" / "sap_input_star_isolated.json"
        code, report = run(capsys, "sap", str(path), "--no-timings")
        assert code == 1 and report["passed"] is False
        assert report["verdict"]["completed"] is False
        error = report["results"]["error"]
        assert error["stage"] == "membership"
        assert "RuntimeError" in error["detail"] and "singular" in error["detail"]
        assert "inertia" not in report["results"]

    @pytest.mark.parametrize(
        "operator",
        [
            {
                "graph": {"n": 2, "edges": [[0, 1]]},
                "diagonal": ["0", "0"],
                "off_diagonal": [1],
            },
            {"graph": {"n": 1, "edges": []}, "diagonal": [0.5]},
            {"graph": {"n": 2, "edges": [[0, 1]]}, "diagonal": "00"},
            {"graph": {"n": 2, "edges": [[0, 1]]}, "field_d": 1, "diagonal": ["1/0", "0"]},
            {"graph": {"n": 3, "edges": [[0.5, 1]]}, "diagonal": ["0"] * 3},
            {"graph": {"n": 3, "edges": [[True, 2]]}, "diagonal": ["0"] * 3},
            {
                "graph": {"n": 2, "edges": [[0, 1]]},
                "diagonal": ["0", "0"],
                "off_diagonal": {"0_0,1": "-2"},
            },
            {
                "graph": {"n": 2, "edges": [[0, 1]]},
                "diagonal": ["0", "0"],
                "off_diagonal": {" +0 , 1 ": "-2"},
            },
            {
                "graph": {"n": 2, "edges": [[0, 1]]},
                "diagonal": ["0", "0"],
                "off_diagonal": {"0,1": "-2", "1,0": "-3"},
            },
            {
                "graph": {"n": MAX_OPERATOR_VERTICES + 1, "edges": []},
                "diagonal": ["0"] * (MAX_OPERATOR_VERTICES + 1),
            },
            {"graph": {"n": 1, "edges": []}, "field_d": "x", "diagonal": ["0"]},
            {"graph": {"n": 1, "edges": []}, "field_d": True, "diagonal": ["sqrt(7)"]},
            {"graph": {"n": 1, "edges": []}, "field_d": 5, "diagonal": ["sqrt(7)"]},
            {
                "graph": {"n": 3, "edges": [[0, 1], [1, 2]]},
                "diagonal": ["0", "0", "0"],
                "off_diagonal": {"0,2": "-2"},
            },
        ],
    )
    def test_malformed_operator_is_reported(self, capsys, tmp_path, operator):
        path = tmp_path / "op.json"
        path.write_text(json.dumps(operator))
        code, report = run(capsys, "sap", str(path), "--no-timings")
        assert code == 1
        assert report["passed"] is False
        assert report["inputs"]["operator"] == str(path)
        assert report["results"]["error"]["stage"] == "setup"

    @pytest.mark.parametrize("field_d", [4, 0, -3, 2**40])
    def test_a_field_d_that_names_no_field_is_refused(
        self, capsys, tmp_path, monkeypatch, field_d
    ):
        # Rational entries never meet the declared radicand, so the loader
        # itself must refuse one that is not squarefree in [1, MAX_RADICAND],
        # and must do so without factoring a value above the bound.
        factored = []
        split = exactfield.squarefree_split
        monkeypatch.setattr(
            cdvcore, "squarefree_split", lambda n: factored.append(n) or split(n)
        )
        operator = {
            "graph": {"n": 2, "edges": [[0, 1]]},
            "field_d": field_d,
            "diagonal": ["0", "0"],
        }
        path = tmp_path / "op.json"
        path.write_text(json.dumps(operator))
        code, report = run(capsys, "sap", str(path), "--no-timings")
        assert code == 1 and report["passed"] is False
        error = report["results"]["error"]
        assert error["stage"] == "setup" and "field_d" in error["detail"]
        assert all(n <= exactfield.MAX_RADICAND for n in factored)

    def test_non_operator_json_is_reported(self, capsys, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text('{"not": "an operator"}')
        code, report = run(capsys, "sap", str(path), "--no-timings")
        assert code == 1
        assert report["verdict"]["completed"] is False
        assert report["inputs"]["operator"] == str(path)
        error = report["results"]["error"]
        assert error["stage"] == "setup"
        assert "operator data" in error["detail"]

    def test_oversized_transversality_system_is_refused_before_build(
        self, capsys, tmp_path, monkeypatch
    ):
        # Edgeless with corank 69: the 70 x 2415 dual has fewer rows than
        # columns, so its rank drops, and its kernel would need up to
        # 2415 x 2415 slots.
        code, report = _run_edgeless(capsys, tmp_path, monkeypatch, "0")
        assert code == 1
        assert report["passed"] is False
        error = report["results"]["error"]
        assert error["stage"] == "transversality"
        assert "SystemTooLarge" in error["detail"]

    def test_oversized_corank_zero_system_is_full_rank_unbuilt(
        self, capsys, tmp_path, monkeypatch
    ):
        code, report = _run_edgeless(capsys, tmp_path, monkeypatch, "1")
        assert code == 0
        assert report["passed"] is True
        assert report["results"]["corank"] == 0
        assert report["results"]["transversality"] == {
            "rows": 4830,
            "cols": 2415,
            "rank": 2415,
            "full_rank": True,
        }


def _run_edgeless(capsys, tmp_path, monkeypatch, rest):
    """`cdvcert sap` on 70 isolated vertices with diagonal (-1, rest, ...,
    rest), with check_sap's pair_kernel_basis made to fail if called, so
    that an oversized system must be refused before check_sap eliminates
    anything."""
    n = 70
    path = tmp_path / "op.json"
    path.write_text(
        json.dumps({"graph": {"n": n, "edges": []}, "diagonal": ["-1"] + [rest] * (n - 1)})
    )
    # At corank n - 1 the dual alone fits; the dual and its kernel do not.
    dual_cols = (n - 1) * n // 2
    assert n * dual_cols <= MAX_SAP_SLOTS < dual_cols * dual_cols

    def refuse(*args):
        raise AssertionError("a kernel was computed")

    monkeypatch.setattr(cdvcore, "pair_kernel_basis", refuse)
    return run(capsys, "sap", str(path), "--no-timings")


class TestWitness:
    def test_three_four(self, capsys):
        code, report = run(capsys, "witness", "3", "4", "--no-timings")
        assert code == 0
        assert report["results"]["corank"] == 4
        assert report["verdict"] == {"transversality_fails": True}

    def test_a_witness_that_fails_its_check_is_reported_at_build(
        self, capsys, monkeypatch
    ):
        # build_sap_witness verifies its witness itself; the report has
        # no verdict of its own for it.
        def reject(operator, witness):
            raise ValueError("injected: M*X is not zero")

        monkeypatch.setattr(cdvcore, "verify_sap_witness", reject)
        code, report = run(capsys, "witness", "3", "4", "--no-timings")
        assert code == 1 and report["passed"] is False
        error = report["results"]["error"]
        assert error["stage"] == "build" and "injected" in error["detail"]

    def test_oversized_sides_are_refused_at_build(self, capsys):
        # 200 + 201 is one vertex above MAX_OPERATOR_VERTICES = 400.
        for sides in (("3000", "4000"), ("200", "201")):
            code, report = run(capsys, "witness", *sides, "--no-timings")
            assert code == 1
            assert report["passed"] is False
            error = report["results"]["error"]
            assert error["stage"] == "build"
            assert "BadS" in error["detail"] and "a + b <= 400" in error["detail"]


class TestCoset:
    def test_builtin_presentation(self, capsys):
        code, report = run(
            capsys, "coset", "gamma10", "--subgroup", "z", "--no-timings"
        )
        assert code == 0
        assert report["results"]["cosets"] == 54

    def test_inline_presentation(self, capsys):
        code, report = run(
            capsys,
            "coset", "< a, b | a^2, b^2, (a*b)^3 >",
            "--word", "a*b*a",
            "--no-timings",
        )
        assert code == 0
        assert report["results"]["cosets"] == 6

    def test_parse_error_reported(self, capsys):
        code, report = run(capsys, "coset", "< a |", "--no-timings")
        assert code == 1
        assert report["verdict"]["completed"] is False

    @pytest.mark.parametrize("cap", ["0", "-3"])
    def test_non_positive_cap_is_an_input_error(self, capsys, cap):
        code, report = run(
            capsys, "coset", "gamma10", "--max-cosets", cap, "--no-timings"
        )
        assert code == 1
        assert report["passed"] is False
        detail = report["results"]["error"]["detail"]
        assert detail.startswith("ValueError: max_cosets must be at least 1")

    def test_a_table_too_wide_for_its_cap_is_an_input_error(self, capsys):
        gens = ", ".join(f"g{i}" for i in range(100))
        code, report = run(capsys, "coset", f"< {gens} | >", "--no-timings")
        assert code == 1
        assert report["passed"] is False
        detail = report["results"]["error"]["detail"]
        assert detail.startswith("ValueError: max_cosets 100000 times 200 slots")


class TestReportShape:
    def test_schema_version_and_keys(self, capsys):
        _, report = run(capsys, "heawood", "-18", "--no-timings")
        assert report["schema_version"] == 1
        assert set(report) == {
            "schema_version",
            "command",
            "inputs",
            "results",
            "verdict",
            "passed",
        }

    def test_timings_appear_by_default(self, capsys):
        _, report = run(capsys, "q1")
        assert "timings" in report and "verify" in report["timings"]

    def test_out_writes_file(self, tmp_path, capsys):
        path = tmp_path / "report.json"
        code = cli.main(["heawood", "-18", "--no-timings", "--out", str(path)])
        capsys.readouterr()
        assert code == 0
        assert json.loads(path.read_text())["results"]["heawood"] == 14

    def test_unwritable_out_falls_back_to_stdout(self, tmp_path, capsys):
        path = tmp_path / "no_such_dir" / "report.json"
        code = cli.main(["heawood", "-18", "--no-timings", "--out", str(path)])
        captured = capsys.readouterr()
        assert code == 1
        assert json.loads(captured.out)["results"]["heawood"] == 14
        assert "cannot write" in captured.err

    @pytest.mark.parametrize(
        "argv",
        [
            ["q1"],
            ["heawood", "-18", "--mu", "16"],
            ["bipartite", "4", "5", "--s", "0", "4"],
            ["witness", "3", "4"],
            ["coset", "gamma10", "--subgroup", "y*z"],
        ],
    )
    def test_byte_determinism(self, argv, tmp_path, capsys):
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        cli.main(argv + ["--no-timings", "--out", str(first)])
        cli.main(argv + ["--no-timings", "--out", str(second)])
        capsys.readouterr()
        assert first.read_bytes() == second.read_bytes()

    def test_progress_goes_to_stderr(self, capsys):
        cli.main(["q1", "--progress", "--no-timings"])
        captured = capsys.readouterr()
        assert "[verify]" in captured.err
        json.loads(captured.out)

