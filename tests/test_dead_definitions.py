"""Every function, class and method defined in src/laxkit has a user.

A definition counts as used when its name is loaded (as a name or an
attribute) or appears in an identifier string such as ``"restrict"`` or
``"opcore.restrict_to_matrix"`` anywhere in the package, its tests, the
scripts or the benchmark, outside the definition's own body.  Imports do
not count, so an unused import does not keep a definition alive.  Dunder
names are exempt: the interpreter calls them.

Imports in the tests and scripts are checked too: every name a file there
imports must be loaded as a name somewhere in that file.  So are their
local assignments: a function that assigns a single name must load it.
"""

import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent
SCANNED = ("src", "tests", "scripts", "perfbench")
IMPORT_CHECKED = ("tests", "scripts")
IDENTIFIERS = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _uses(tree):
    """(name, line) for every load and identifier-string part in ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr, node.lineno
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and IDENTIFIERS.fullmatch(node.value)):
            for part in node.value.split("."):
                yield part, node.lineno


def unused_definitions():
    uses = {}                                   # name -> [(path, line)]
    defs = []                                   # (path, name, first, last)
    for top in SCANNED:
        for path in sorted((ROOT / top).rglob("*.py")):
            tree = ast.parse(path.read_text(), str(path))
            for name, line in _uses(tree):
                uses.setdefault(name, []).append((path, line))
            if top == "src":
                defs.extend((path, node.name, node.lineno, node.end_lineno)
                            for node in ast.walk(tree) if isinstance(node, DEFS))
    out = []
    for path, name, first, last in defs:
        if name.startswith("__") and name.endswith("__"):
            continue
        if not any(p != path or not first <= line <= last
                   for p, line in uses.get(name, ())):
            out.append(f"{path.relative_to(ROOT)}:{first} {name}")
    return out


def test_no_definition_in_the_package_is_unused():
    assert unused_definitions() == []


def unused_imports():
    out = []
    for top in IMPORT_CHECKED:
        for path in sorted((ROOT / top).rglob("*.py")):
            tree = ast.parse(path.read_text(), str(path))
            loaded = {node.id for node in ast.walk(tree)
                      if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
            for node in ast.walk(tree):
                if (isinstance(node, (ast.Import, ast.ImportFrom))
                        and getattr(node, "module", None) != "__future__"):
                    for alias in node.names:
                        name = alias.asname or alias.name.split(".")[0]
                        if name not in loaded:
                            out.append(f"{path.relative_to(ROOT)}:{node.lineno} {name}")
    return out


def test_no_import_in_the_tests_or_scripts_is_unused():
    assert unused_imports() == []


def dead_assignments():
    """Single-name assignments in a function under tests/ or scripts/ whose
    name the function never loads (``_``-prefixed and global names exempt)."""
    out = []
    for top in IMPORT_CHECKED:
        for path in sorted((ROOT / top).rglob("*.py")):
            tree = ast.parse(path.read_text(), str(path))
            for fn in ast.walk(tree):
                if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                loaded, declared = set(), set()
                for node in ast.walk(fn):
                    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                        loaded.add(node.id)
                    elif isinstance(node, (ast.Global, ast.Nonlocal)):
                        declared.update(node.names)
                for node in ast.walk(fn):
                    if (isinstance(node, ast.Assign) and len(node.targets) == 1
                            and isinstance(node.targets[0], ast.Name)):
                        name = node.targets[0].id
                        if not (name.startswith("_") or name in loaded
                                or name in declared):
                            out.append(f"{path.relative_to(ROOT)}:{node.lineno} {name}")
    return out


def test_no_local_assignment_in_the_tests_or_scripts_is_dead():
    assert dead_assignments() == []
