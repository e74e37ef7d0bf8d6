"""Source hygiene of the package modules, read with the stdlib ast module."""

import ast
from pathlib import Path

import pytest

import horadam

PACKAGE = Path(horadam.__file__).resolve().parent
# __init__.py imports only to re-export, so every module but it is checked.
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    assert _unused_imports((PACKAGE / module).read_text(encoding="utf-8")) == []


def test_the_check_sees_an_unused_import():
    source = "from typing import Iterator, Optional\nimport os\n__all__ = ['os']\nx: Iterator\n"
    assert _unused_imports(source) == [(1, "Optional")]
