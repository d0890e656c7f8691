"""Every module-level import in the package is used by its module.

A stdlib `ast` walk stands in for a linter: a name bound by a top-level
import must appear as a name somewhere else in the same module.
`__init__.py` is skipped, since its imports are the package's exports.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "sagefuse"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source):
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in bound.items()
                  if name not in used)


def test_checker_flags_an_unused_import():
    source = ("from dataclasses import dataclass, field\n"
              "import numpy as np\n\n"
              "@dataclass\nclass A:\n    x: int = np.int64(1)\n")
    assert unused_imports(source) == [(1, "field")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_level_imports(path):
    unused = unused_imports(path.read_text(encoding="utf-8"))
    assert not unused, f"{path.name}: unused imports " + ", ".join(
        f"{name} (line {line})" for line, name in unused)
