"""The library is stdlib-only: every module under src/safevote imports only
the standard library and safevote itself, and the certificate checker
imports nothing of safevote but its core."""

import ast
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "safevote").glob("*.py"))


def imported_top_levels(tree: ast.AST) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            # A relative import stays inside the package.
            names.add("safevote" if node.level else node.module.partition(".")[0])
    return names


def test_sources_found():
    assert {path.name for path in SOURCES} >= {"__init__.py", "core.py", "rules.py", "strategy.py", "cli.py"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_imports_only_stdlib_and_safevote(path):
    imported = imported_top_levels(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
    assert imported, f"{path.name} imports nothing; the scan is broken"
    outside = sorted(name for name in imported if name != "safevote" and name not in sys.stdlib_module_names)
    assert not outside, f"{path.name} imports {outside}, which are neither safevote nor the standard library"


def test_the_checker_imports_only_the_core():
    path = next(path for path in SOURCES if path.name == "check.py")
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    ours = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            ours.update(alias.name for alias in node.names if alias.name.partition(".")[0] == "safevote")
        elif isinstance(node, ast.ImportFrom) and (node.level or node.module.partition(".")[0] == "safevote"):
            ours.add("." * node.level + (node.module or ""))
    assert ours == {"safevote.core"}, ours
