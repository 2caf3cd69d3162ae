"""cdvcert has no runtime dependencies: every module under src/cdvcert
imports only the standard library and its own package."""

import ast
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).parent.parent / "src" / "cdvcert").glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_imports_only_the_standard_library(path):
    outside = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module]
        else:
            continue
        outside += [n for n in names if n.split(".")[0] not in sys.stdlib_module_names]
    assert outside == []


def test_every_module_is_checked():
    assert {p.name for p in SOURCES} >= {"__init__.py", "cdvcore.py", "exactlinalg.py"}
