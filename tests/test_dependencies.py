"""cdvcert has no runtime dependencies: every module under src/cdvcert
imports only the standard library and its own package, and takes only
public names from its sibling modules.  The linear algebra reads scalars
through their int fields only and inverts none."""

import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).parent.parent / "src" / "cdvcert"
SOURCES = sorted(PACKAGE.glob("*.py"))


def _absolute_imports(path):
    """Every module an `import m` or `from m import x` in this file names."""
    names = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names.append(node.module)
    return names


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_imports_only_the_standard_library(path):
    outside = [
        n for n in _absolute_imports(path)
        if n.split(".")[0] not in sys.stdlib_module_names
    ]
    assert outside == []


def test_one_stage_timer():
    """`RunReport.timed` in certify.py is the package's one stage timer, so
    no other module reads the clock."""
    timers = [p.name for p in SOURCES if "time" in _absolute_imports(p)]
    assert timers == ["certify.py"]


def test_the_cli_computes_no_certificate():
    """Every report the CLI emits comes from an entry point in certify.py,
    so cli.py imports no other module of the package."""
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    named = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            named.update((node.module or "").split("."))
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                named.update(alias.name.split("."))
    others = {p.stem for p in SOURCES} - {"__init__", "certify", "cli"}
    assert others >= {"cdvcore", "exactfield", "exactlinalg", "groups", "maps"}
    assert named & others == set()
    assert "certify" in named


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_takes_no_private_name_from_a_sibling_module(path):
    """`from .m import _x`, `from cdvcert.m import _x` and `m._x` on a module
    bound by `from . import m` all reach past another module's interface."""
    private, siblings = [], set()
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
            node.level or (node.module or "").split(".")[0] == "cdvcert"
        ):
            for alias in node.names:
                if _is_private(alias.name):
                    private.append(alias.name)
                if node.module in (None, "cdvcert"):
                    siblings.add(alias.asname or alias.name)
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in siblings
            and _is_private(node.attr)
        ):
            private.append(f"{node.value.id}.{node.attr}")
    assert private == []


@pytest.mark.parametrize("name", ["exactlinalg.py", "cdvcore.py"])
def test_hot_paths_read_no_fraction_parts(name):
    """QuadScalar's .a and .b build a Fraction on every read; these modules
    read its ints n, r, q and d instead."""
    path = PACKAGE / name
    reads = [
        f"line {node.lineno}: .{node.attr}"
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Attribute) and node.attr in ("a", "b")
    ]
    assert reads == []


@pytest.mark.parametrize("name", ["exactlinalg.py", "cdvcore.py"])
def test_no_elimination_in_the_field(name):
    """These modules eliminate only over F_p: a call to .inverse() would
    be a field elimination, whose answer no exact check guards."""
    path = PACKAGE / name
    calls = [
        f"line {node.lineno}"
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "inverse"
    ]
    assert calls == []


def test_only_the_field_and_the_matrix_trust_a_radicand():
    """QuadScalar(n, r, d, q=q) trusts d without checking it, so only
    exactfield, which checked it, and exactlinalg, whose matrices read it
    from checked entries or the checked ExactMatrix constructor, build
    scalars that way; the integer-pair format stays behind exactlinalg."""
    calls = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        if path.name not in ("exactfield.py", "exactlinalg.py")
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None)) == "QuadScalar"
        and any(k.arg == "q" for k in node.keywords)
    ]
    assert calls == []


def test_the_operator_module_builds_no_scalar():
    """An operator stores its numbers once, as its matrix's integer
    pairs, so cdvcore names no QuadScalar or scalar constant and takes
    from exactfield only the bound, the pair sign and the parsers."""
    path = PACKAGE / "cdvcore.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    names, imported = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.append((node.lineno, node.id))
        elif isinstance(node, ast.Attribute):
            names.append((node.lineno, node.attr))
        elif isinstance(node, ast.ImportFrom):
            names += [(node.lineno, alias.name) for alias in node.names]
            if (node.module or "").split(".")[-1] == "exactfield":
                imported.update(alias.name for alias in node.names)
    scalars = [
        f"line {line}: {name}"
        for line, name in names
        if name in ("QuadScalar", "ZERO", "ONE")
    ]
    assert scalars == []
    assert imported == {"MAX_RADICAND", "pair_sign", "parse_scalar", "squarefree_split"}


def _asserts(node) -> bool:
    """An `assert` statement, or a `raise` that names AssertionError."""
    if isinstance(node, ast.Assert):
        return True
    return isinstance(node, ast.Raise) and node.exc is not None and any(
        isinstance(n, ast.Name) and n.id == "AssertionError"
        for n in ast.walk(node.exc)
    )


def test_no_assertion_reaches_the_cli():
    """cli.main reports ValueError, RuntimeError and OSError as a failed
    report; an AssertionError, raised or from an `assert`, would escape it
    as a traceback."""
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if _asserts(node)
    ]
    assert found == []


def test_the_checks_stand_alone():
    """check.py is the trusted base a reader can take alone: it imports the
    standard library only, by absolute name, and nothing of the package."""
    path = PACKAGE / "check.py"
    relative = [
        node.lineno
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.ImportFrom) and node.level
    ]
    names = _absolute_imports(path)
    assert relative == []
    assert [n for n in names if n.split(".")[0] not in sys.stdlib_module_names] == []


def _names(path) -> set:
    """Every name, attribute and imported name the module's code uses."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.name.split(".")[-1] for alias in node.names)
    return names


def test_the_primes_and_the_elimination_stay_in_exactlinalg():
    """The prime table and the elimination mod p stay behind one module:
    no other module names them, so every rank or kernel of a pair system
    is one pair_kernel_basis call."""
    hidden = {"PRIMES", "_echelon", "_residues", "_root_mod_p"}
    named = {p.name: _names(p) & hidden for p in SOURCES}
    assert named.pop("exactlinalg.py") == hidden
    assert {name: found for name, found in named.items() if found} == {}


def _names_the_kernel_slot(path) -> list:
    """The lines that read or write `_kernel`, as an attribute or as the
    name handed to setattr."""
    return [
        node.lineno
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if (isinstance(node, ast.Attribute) and node.attr == "_kernel")
        or (isinstance(node, ast.Constant) and node.value == "_kernel")
    ]


def test_only_exactlinalg_names_the_kernel_slot():
    """A matrix keeps a kernel record in its `_kernel` slot only once
    exactlinalg has proved it, so the kernel cache stays the business of
    that module: no other module names the slot."""
    named = {p.name: _names_the_kernel_slot(p) for p in SOURCES}
    assert named.pop("exactlinalg.py")
    assert {name: lines for name, lines in named.items() if lines} == {}


def test_every_module_is_checked():
    assert {p.name for p in SOURCES} >= {
        "__init__.py",
        "cdvcore.py",
        "check.py",
        "exactlinalg.py",
    }

