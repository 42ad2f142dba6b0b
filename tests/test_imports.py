"""No library module imports a name it never uses.

No linter is part of the toolchain, so this guard reads each module of the
package with `ast`, the package's `__init__.py` (which imports to
re-export) excepted.  An import kept on purpose carries `# noqa: F401` on
the line that names it; `from __future__` imports are directives, not names.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import metriclp

PACKAGE = Path(metriclp.__file__).parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of every name the source imports and never reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = alias.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(
        (line, name) for name, line in bound.items()
        if name not in used and "# noqa: F401" not in lines[line - 1]
    )


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_library_module_uses_every_name_it_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_the_guard_finds_an_unused_import_unless_marked():
    source = (
        "from __future__ import annotations\n"
        "import numpy as np\n"
        "import os.path\n"
        "from .errors import (\n"
        "    CapabilityError,\n"
        "    GeometryError,\n"
        "    MetricLpError,  # noqa: F401\n"
        ")\n"
        "raise GeometryError(os.path.sep)\n"
    )
    assert unused_imports(source) == [(2, "np"), (5, "CapabilityError")]
