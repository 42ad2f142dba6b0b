"""No library module defines a private name that the library never reads.

A module-level function, class or variable whose name starts with a single
underscore is the library's own; once no code in `src/metriclp` reads it,
it is dead, and a test that still calls it only keeps it alive.  This guard
reads every module of the package with `ast`, as `test_imports.py` does.
"""

from __future__ import annotations

import ast
from pathlib import Path

import metriclp

PACKAGE = Path(metriclp.__file__).parent


def private_definitions(tree: ast.Module) -> dict[str, int]:
    """name -> line of each module-level single-underscore definition."""
    found = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            nodes = node.targets if isinstance(node, ast.Assign) else [node.target]
            targets = [n.id for t in nodes for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in targets:
            if name.startswith("_") and not name.startswith("__"):
                found[name] = node.lineno
    return found


def read_names(tree: ast.Module) -> set[str]:
    """Every name the source loads, bare or as an attribute."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
    return names


def dead_private_names(sources: dict[str, str]) -> list[tuple[str, int, str]]:
    """(module, line, name) of each private definition no module reads."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = set().union(*(read_names(tree) for tree in trees.values()))
    return sorted(
        (module, line, name)
        for module, tree in trees.items()
        for name, line in private_definitions(tree).items()
        if name not in read
    )


def test_library_reads_every_private_name_it_defines():
    sources = {p.name: p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))}
    assert dead_private_names(sources) == []


def test_the_guard_finds_a_private_name_nobody_reads():
    sources = {
        "a.py": (
            "_LIMIT = 3\n"
            "_unused: int = 0\n"
            "__all__ = []\n"
            "def _helper():\n"
            "    return _LIMIT\n"
            "def _orphan():\n"
            "    return 1\n"
            "class _Shape:\n"
            "    def _method(self):\n"
            "        return 0\n"
        ),
        "b.py": "from .a import _orphan\nimport a\nx = a._helper() + a._Shape()\n",
    }
    assert dead_private_names(sources) == [("a.py", 2, "_unused"), ("a.py", 6, "_orphan")]
