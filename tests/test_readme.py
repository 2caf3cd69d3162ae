"""README states facts the code must keep: its Quick start runs and does
what its comments say, every bound it names has the value it gives, and
every command's verdict list matches that command's golden reports."""

import ast
import importlib
import json
import re
from pathlib import Path

from cdvcert import cli

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text()
PACKAGE = ROOT / "src" / "cdvcert"


def test_quick_start_runs():
    (block,) = re.findall(r"^```python\n(.*?)^```", README, re.M | re.S)
    names = {}
    exec(compile(block, "README.md", "exec"), names)
    assert names["inertia"] == (1, 2, 2)
    cert = names["cert"]
    assert cert.full_rank and cert.rank == cert.cols == 5
    op4, witness = names["op4"], names["witness"]
    assert op4.corank == 4 and any(witness.pairs)
    assert names["cdvcore"].verify_sap_witness(op4, witness) is None


def _bound(text: str) -> int:
    base, _, power = text.replace(",", "").partition("^")
    return int(base) ** int(power or 1)


def _defined_bounds() -> dict:
    """{name: (module, value)} for every MAX_ constant a module assigns."""
    bounds = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            for target in getattr(node, "targets", ()):
                if isinstance(target, ast.Name) and target.id.startswith("MAX_"):
                    module = importlib.import_module(f"cdvcert.{path.stem}")
                    bounds[target.id] = (path.stem, getattr(module, target.id))
    return bounds


def test_every_bound_readme_names_is_the_code_constant():
    """Each `[module.]MAX_NAME` (value) in README is the constant the code
    holds, and README names every MAX_ constant of the package once."""
    bounds = _defined_bounds()
    named = re.findall(r"`(?:(\w+)\.)?(MAX_[A-Z_]+)` \(([\d,^]+)\)", README)
    for module, name, text in named:
        owner, value = bounds[name]
        assert (module or owner, _bound(text)) == (owner, value), name
    assert sorted(name for _, name, _ in named) == sorted(bounds)


def _readme_verdicts() -> dict:
    section = README.split("The verdicts each command reports:\n\n", 1)[1]
    items = section.split("\n\n", 1)[0].split("\n- ")
    verdicts = {}
    for item in items:
        command, *names = re.findall(r"`([\w-]+)`", item)
        verdicts[command] = {n for n in names if not n.startswith("-")}
    return verdicts


def test_readme_verdicts_match_the_goldens():
    golden = {}
    for path in (ROOT / "tests" / "golden").glob("*.json"):
        report = json.loads(path.read_text())
        if isinstance(report, dict) and "verdict" in report:
            golden.setdefault(report["command"], set()).update(report["verdict"])
    commands = {name[4:] for name in vars(cli) if name.startswith("cmd_")}
    assert set(_readme_verdicts()) == set(golden) == commands
    assert _readme_verdicts() == golden
