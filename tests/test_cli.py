import json

import pytest

from cdvcert import cli


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

    def test_klein_flag(self, capsys):
        code, report = run(capsys, "heawood", "0", "--klein-bottle", "--no-timings")
        assert code == 0
        assert report["results"]["heawood"] == 6

    def test_invalid_chi_fails_cleanly(self, capsys):
        code, report = run(capsys, "heawood", "5", "--no-timings")
        assert code == 1
        assert report["verdict"]["completed"] is False
        assert "InvalidChi" in report["results"]["error"]["detail"]


class TestQ1:
    def test_passes(self, capsys):
        code, report = run(capsys, "q1", "--no-timings")
        assert code == 0
        assert report["passed"] is True
        assert len(report["results"]["samples"]) == 18

    def test_reports_contain_no_floats(self, capsys):
        _, report = run(capsys, "q1", "--no-timings")
        assert no_floats(report)


class TestBipartite:
    def test_corank_and_kernel(self, capsys):
        code, report = run(
            capsys, "bipartite", "3", "4", "--s", "0", "3", "--no-timings"
        )
        assert code == 0
        assert report["results"]["corank"] == 3
        assert report["verdict"]["kernel_description"] is True

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
        ],
    )
    def test_malformed_operator_is_reported(self, capsys, tmp_path, operator):
        path = tmp_path / "op.json"
        path.write_text(json.dumps(operator))
        code, report = run(capsys, "sap", str(path), "--no-timings")
        assert code == 1
        assert report["passed"] is False
        assert report["results"]["error"]["stage"] == "setup"

    def test_non_operator_json_is_reported(self, capsys, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text('{"not": "an operator"}')
        code, report = run(capsys, "sap", str(path), "--no-timings")
        assert code == 1
        assert report["verdict"]["completed"] is False
        error = report["results"]["error"]
        assert error["stage"] == "setup"
        assert "operator data" in error["detail"]


class TestWitness:
    def test_three_four(self, capsys):
        code, report = run(capsys, "witness", "3", "4", "--no-timings")
        assert code == 0
        assert report["results"]["corank"] == 4
        assert report["verdict"]["witness_valid"] is True
        assert report["verdict"]["transversality_fails"] is True


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
