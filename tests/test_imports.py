"""Every module-level import in the package is used by its module, and
every top-level definition is used by the project.

A stdlib `ast` walk stands in for a linter: a name bound by a top-level
import must appear as a name somewhere else in the same module.
`__init__.py` is skipped, since its imports are the package's exports.
A top-level `def`, `class` or assigned name must be referenced outside its
own statement by the package, the scripts or the benchmark harness; a
re-export by `__init__.py` is no such reference. A name a function binds
for itself (a parameter or an assignment) is that function's own, so
reading it is no reference to a top-level namesake.
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

DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


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


def defined_names(stmt):
    """The names a top-level statement defines: a def's or class's name, or
    the plain names an assignment binds. Dunder names such as
    `__version__` are read by Python and packaging tools, so none counts."""
    if isinstance(stmt, DEFINITIONS):
        return frozenset({stmt.name})
    if isinstance(stmt, ast.Assign):
        targets = stmt.targets
    elif isinstance(stmt, ast.AnnAssign):
        targets = [stmt.target]
    else:
        return frozenset()
    return frozenset(n.id for t in targets for n in ast.walk(t)
                     if isinstance(n, ast.Name)
                     and isinstance(n.ctx, ast.Store)
                     and not n.id.startswith("__"))


def local_names(function):
    """The names `function` binds for itself: its parameters, the names it
    assigns and the defs and classes it nests, less any it declares global
    or nonlocal. The bodies of nested functions and classes are their own
    scopes and are not searched."""
    args = function.args
    names = {a.arg for a in (*args.posonlyargs, *args.args,
                             *args.kwonlyargs, args.vararg, args.kwarg)
             if a is not None}
    shared = set()
    body = function.body
    todo = list(body) if isinstance(body, list) else [body]
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.Global, ast.Nonlocal)):
            shared.update(node.names)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        if isinstance(node, DEFINITIONS):
            names.add(node.name)
        elif not isinstance(node, ast.Lambda):
            todo.extend(ast.iter_child_nodes(node))
    return names - shared


def _add_references(node, local, strings, names):
    """Add to `names` what `node` and its children reference: names not in
    `local` (the names bound by the enclosing functions), attributes and
    import aliases and, with `strings`, string constants."""
    if isinstance(node, FUNCTIONS):
        local = local | local_names(node)
    if isinstance(node, ast.Name):
        if node.id not in local:
            names.add(node.id)
    elif isinstance(node, ast.Attribute):
        names.add(node.attr)
    elif isinstance(node, ast.alias):
        names.update(node.name.split("."))
    elif strings and isinstance(node, ast.Constant) and \
            isinstance(node.value, str):
        names.add(node.value)
    for child in ast.iter_child_nodes(node):
        _add_references(child, local, strings, names)


def referenced_names(source, strings=False):
    """{owner: names} over the top-level statements of `source`: the names
    each references (see `_add_references`). The owner is the set of
    names the statement defines (`defined_names`), empty for the rest."""
    refs = {}
    for stmt in ast.parse(source).body:
        _add_references(stmt, frozenset(), strings,
                        refs.setdefault(defined_names(stmt), set()))
    return refs


def dead_definitions(modules, sources):
    """"module.name" of each name a top-level statement of `modules`
    (module -> source) defines that no source in `sources` (label ->
    (source, strings)) references outside a statement defining it. A
    module's own label in `sources` is its name in `modules`."""
    users = {}
    for label, (source, strings) in sources.items():
        for owner, names in referenced_names(source, strings).items():
            for name in names:
                users.setdefault(name, set()).add((label, owner))
    dead = []
    for module, source in modules.items():
        for stmt in ast.parse(source).body:
            for name in defined_names(stmt):
                if all(label == module and name in owner
                       for label, owner in users.get(name, ())):
                    dead.append(f"{module}.{name}")
    return sorted(dead)


def reference_sources(root):
    """label -> (source, strings) for every file under `root` whose
    references count: the package modules, labelled by module name, and
    the files under the other `REFERENCE_ROOTS`, labelled by path. The
    package's `__init__.py` is left out, so a name that is only
    re-exported counts as unreached."""
    src = root / "src" / "sagefuse"
    return {p.stem if p.parent == src else p:
            (p.read_text(encoding="utf-8"), strings)
            for top, strings in REFERENCE_ROOTS.items()
            for p in sorted((root / top).rglob("*.py"))
            if p != src / "__init__.py"}


def test_dead_name_guard_on_a_synthetic_source():
    module = ("def used():\n    return 1\n\n"
              "def recursive(n):\n    return recursive(n - 1)\n\n"
              "def by_attribute():\n    pass\n\n"
              "def by_string():\n    pass\n\n"
              "def by_import():\n    pass\n\n"
              "def shadowed():\n    pass\n\n"
              "def param():\n    pass\n\n"
              "class Dead:\n    def used(self):\n        return Dead\n\n"
              "def encode(param):\n    shadowed = param * LIMIT\n"
              "    return shadowed\n\n"
              "def toggle():\n    global FLAG\n    FLAG = not FLAG\n\n"
              "LIMIT = 3\nUNREAD = 4\nFLAG = True\nVALUE = used()\n"
              "__version__ = '1'\n")
    tool = ("import m\nfrom m import by_import\n"
            "m.by_attribute(m.VALUE, m.encode, m.toggle)\n"
            "SPANS = [('m', 'by_string')]\n")
    modules = {"m": module}
    assert dead_definitions(modules, {"m": (module, False),
                                      "tool": (tool, True)}) == \
        ["m.Dead", "m.UNREAD", "m.param", "m.recursive", "m.shadowed"]
    assert dead_definitions(modules, {"m": (module, False),
                                      "tool": (tool, False)}) == \
        ["m.Dead", "m.UNREAD", "m.by_string", "m.param", "m.recursive",
         "m.shadowed"]


def test_a_re_export_is_no_reference(tmp_path):
    src = tmp_path / "src" / "sagefuse"
    src.mkdir(parents=True)
    (tmp_path / "scripts").mkdir()
    module = "def exported():\n    pass\n\ndef used():\n    pass\n"
    (src / "m.py").write_text(module)
    (src / "__init__.py").write_text("from .m import exported, used\n")
    (tmp_path / "scripts" / "run.py").write_text(
        "from sagefuse.m import used\nused()\n")
    assert dead_definitions({"m": module}, reference_sources(tmp_path)) == \
        ["m.exported"]


def test_every_top_level_definition_is_referenced():
    modules = {p.stem: p.read_text(encoding="utf-8")
               for p in SRC.glob("*.py")}
    assert dead_definitions(modules, reference_sources(ROOT)) == []


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
