"""Source hygiene of the package modules, read with the stdlib ast module."""

import ast
import subprocess
import sys
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
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)} | _exported(tree)
    return sorted((line, name) for name, line in imported.items() if name not in used)


def _exported(tree: ast.Module) -> set:
    """The names a module's __all__ lists."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def _dead_names(sources: dict) -> list:
    """(module, name) for each top-level function, class or assigned name of the
    modules in sources that none of them reads (a loaded name, an attribute or an
    imported alias) and that its own module's __all__ does not list."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = set()
    for node in (node for tree in trees.values() for node in ast.walk(tree)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
    dead = []
    for module, tree in trees.items():
        kept = read | _exported(tree) | {"__all__"}
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            dead += [(module, name) for name in names if name not in kept]
    return sorted(dead)


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    assert _unused_imports((PACKAGE / module).read_text(encoding="utf-8")) == []


def test_the_check_sees_an_unused_import():
    source = "from typing import Iterator, Optional\nimport os\n__all__ = ['os']\nx: Iterator\n"
    assert _unused_imports(source) == [(1, "Optional")]


def test_no_dead_names():
    sources = {p.name: p.read_text(encoding="utf-8") for p in PACKAGE.glob("*.py")}
    assert _dead_names(sources) == []


def test_the_check_sees_a_dead_helper():
    sources = {
        "a.py": "__all__ = ['api']\ndef api(): return _used()\ndef _used(): pass\n"
                "def _dead(): pass\nclass _Gone: pass\nLIMIT, _SPARE = 1, 2\n_attr = 3\n",
        "b.py": "from a import LIMIT\nimport a\nprint(a._attr)\n",
    }
    assert _dead_names(sources) == [("a.py", "_Gone"), ("a.py", "_SPARE"), ("a.py", "_dead")]


def test_import_loads_no_dataclasses_inspect_or_difflib():
    # each would cost every fresh process (each CLI call) milliseconds before it does any work
    code = ("import sys; sys.path.insert(0, sys.argv[1]); before = set(sys.modules); "
            "import horadam, horadam.cli; print(*sorted(set(sys.modules) - before))")
    done = subprocess.run([sys.executable, "-c", code, str(PACKAGE.parent)],
                          capture_output=True, text=True, check=True, timeout=60)
    loaded = set(done.stdout.split())
    assert "horadam.cli" in loaded
    assert loaded.isdisjoint({"dataclasses", "inspect", "difflib"})
    for path in PACKAGE.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        modules = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                   for alias in node.names}
        modules |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
        assert "dataclasses" not in modules, path.name
