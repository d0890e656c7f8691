"""Every module-level import in the package is used by its module, and
every top-level function and class is used by the project.

A stdlib `ast` walk stands in for a linter: a name bound by a top-level
import must appear as a name somewhere else in the same module.
`__init__.py` is skipped, since its imports are the package's exports.
A top-level `def` or `class` must be referenced outside its own body by
the package, the scripts or the benchmark harness.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "sagefuse"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")

# Directory -> whether its string constants count as references:
# perfbench names the functions it wraps by string (`SPAN_TARGETS`).
REFERENCE_ROOTS = {"src": False, "scripts": False, "perfbench": True}

# Definitions that only tests use, each kept on purpose.
DEAD_NAME_ALLOWLIST = {
    "textenc.tokenize": "one text at a time: the oracle tests check "
                        "tokenize_graph against",
    "fusion.audit_parameters": "the registry walk tests check the "
                               "analytic audit_from_shapes against",
}


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


def referenced_names(source, strings=False):
    """{owner: names} over the top-level statements of `source`: the names,
    attributes and import aliases each references (with `strings`, its
    string constants too). The owner is the name of a top-level def or
    class, else None."""
    refs = {}
    for stmt in ast.parse(source).body:
        owner = stmt.name if isinstance(stmt, DEFINITIONS) else None
        names = refs.setdefault(owner, set())
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.update(node.name.split("."))
            elif strings and isinstance(node, ast.Constant) and \
                    isinstance(node.value, str):
                names.add(node.value)
    return refs


DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def dead_definitions(modules, sources):
    """"module.name" of each top-level def or class of `modules` (module ->
    source) that no source in `sources` (label -> (source, strings))
    references outside the definition's own body. A module's own label
    in `sources` is its name in `modules`."""
    users = {}
    for label, (source, strings) in sources.items():
        for owner, names in referenced_names(source, strings).items():
            for name in names:
                users.setdefault(name, set()).add((label, owner))
    dead = []
    for module, source in modules.items():
        for stmt in ast.parse(source).body:
            if isinstance(stmt, DEFINITIONS) and \
                    not users.get(stmt.name, set()) - {(module, stmt.name)}:
                dead.append(f"{module}.{stmt.name}")
    return sorted(dead)


def test_dead_name_guard_on_a_synthetic_source():
    module = ("def used():\n    return 1\n\n"
              "def recursive(n):\n    return recursive(n - 1)\n\n"
              "def by_attribute():\n    pass\n\n"
              "def by_string():\n    pass\n\n"
              "def by_import():\n    pass\n\n"
              "class Dead:\n    def used(self):\n        return Dead\n\n"
              "VALUE = used()\n")
    tool = ("import m\nfrom m import by_import\n"
            "m.by_attribute()\nSPANS = [('m', 'by_string')]\n")
    modules = {"m": module}
    assert dead_definitions(modules, {"m": (module, False),
                                      "tool": (tool, True)}) == \
        ["m.Dead", "m.recursive"]
    assert dead_definitions(modules, {"m": (module, False),
                                      "tool": (tool, False)}) == \
        ["m.Dead", "m.by_string", "m.recursive"]


def test_every_top_level_definition_is_referenced():
    sources = {p.stem if p.parent == SRC else p:
               (p.read_text(encoding="utf-8"), strings)
               for top, strings in REFERENCE_ROOTS.items()
               for p in sorted((ROOT / top).rglob("*.py"))}
    modules = {p.stem: sources[p.stem][0] for p in SRC.glob("*.py")}
    dead = dead_definitions(modules, sources)
    assert dead == sorted(DEAD_NAME_ALLOWLIST), (
        f"unreferenced: {sorted(set(dead) - set(DEAD_NAME_ALLOWLIST))}; "
        f"allowlisted but referenced or gone: "
        f"{sorted(set(DEAD_NAME_ALLOWLIST) - set(dead))}")


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
