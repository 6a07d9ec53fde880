"""Every function, class and method defined in src/laxkit has a user.

A definition counts as used when its name is loaded (as a name or an
attribute) or appears in an identifier string such as ``"restrict"`` or
``"opcore.restrict_to_matrix"`` anywhere in the package, its tests, the
scripts or the benchmark, outside the definition's own body.  Imports do
not count, so an unused import does not keep a definition alive.  Dunder
names are exempt: the interpreter calls them.

The package holds what the program runs: every top-level function and class
in src/laxkit is named by the package, the scripts or the benchmark, not by
tests alone.  A construction that only tests read (a paper identity, an
oracle) lives under tests/.

Imports in the package, tests and scripts are checked too: every name a file
there imports must be loaded as a name somewhere in that file or listed in
its ``__all__``.  The local assignments of the tests and scripts are
checked: a function that assigns a single name must load it.

Every parameter with a default of a module-level function or method in
src/laxkit is passed by some call: a default that no call overrides is a
constant.  A keyword of ``replace(record, name=...)`` passes the
``__init__`` parameter ``name`` of every class.  Every parameter of a
module-level function in src/laxkit is read in its body; methods are exempt,
since they keep their class's signature.

No ``LinArg`` in src/laxkit takes a lambda expression as its kernel: a
lambda is a new object per call, so two equal leaves built by separate calls
would each run their kernel at every point; a ``fields.kernel_family``
factory returns one kernel per parameter set.
"""

import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent
SCANNED = ("src", "tests", "scripts", "perfbench")
PROGRAM = ("src", "scripts", "perfbench")
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


def _unnamed(tops, nodes):
    """Each definition among ``nodes(tree)`` of a module in src/laxkit whose
    name no file under ``tops`` uses outside the definition's own body."""
    uses = {}                                   # name -> [(path, line)]
    defs = []                                   # (path, name, first, last)
    for top in tops:
        for path in sorted((ROOT / top).rglob("*.py")):
            tree = ast.parse(path.read_text(), str(path))
            for name, line in _uses(tree):
                uses.setdefault(name, []).append((path, line))
            if top == "src":
                defs.extend((path, node.name, node.lineno, node.end_lineno)
                            for node in nodes(tree) if isinstance(node, DEFS))
    out = []
    for path, name, first, last in defs:
        if name.startswith("__") and name.endswith("__"):
            continue
        if not any(p != path or not first <= line <= last
                   for p, line in uses.get(name, ())):
            out.append(f"{path.relative_to(ROOT)}:{first} {name}")
    return out


def test_no_definition_in_the_package_is_unused():
    assert _unnamed(SCANNED, ast.walk) == []


def test_every_top_level_definition_in_the_package_is_named_by_the_program():
    assert _unnamed(PROGRAM, lambda tree: tree.body) == []


def _exported(tree):
    """The names listed in the module's ``__all__``."""
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "__all__" for t in node.targets)):
            yield from (e.value for e in node.value.elts)


def unused_imports(tops):
    out = []
    for top in tops:
        for path in sorted((ROOT / top).rglob("*.py")):
            tree = ast.parse(path.read_text(), str(path))
            loaded = {node.id for node in ast.walk(tree)
                      if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
            loaded.update(_exported(tree))
            for node in ast.walk(tree):
                if (isinstance(node, (ast.Import, ast.ImportFrom))
                        and getattr(node, "module", None) != "__future__"):
                    for alias in node.names:
                        name = alias.asname or alias.name.split(".")[0]
                        if name not in loaded:
                            out.append(f"{path.relative_to(ROOT)}:{node.lineno} {name}")
    return out


def test_no_import_in_the_tests_or_scripts_is_unused():
    assert unused_imports(IMPORT_CHECKED) == []


def test_no_import_in_the_package_is_unused():
    assert unused_imports(("src",)) == []


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


def _params_with_defaults(fn, skip):
    """(name, positional index or None) for each parameter of ``fn`` that
    has a default; the first ``skip`` positional slots are bound by the
    call (self, cls) and do not count in the index."""
    args = fn.args
    pos = args.posonlyargs + args.args
    first = len(pos) - len(args.defaults)
    out = [(a.arg, i - skip) for i, a in enumerate(pos) if i >= first]
    out += [(a.arg, None) for a, d in zip(args.kwonlyargs, args.kw_defaults)
            if d is not None]
    return out


def unpassed_defaults():
    """Parameters with a default in src/laxkit that no call passes.

    Calls are matched by name: ``f(...)`` and ``obj.f(...)`` both call every
    definition named ``f``, a class name calls its ``__init__``, and
    ``replace(obj, name=...)`` (``weyl.replace``, a copy with the attribute
    ``name`` set) passes the ``__init__`` parameter ``name`` of every class.
    A parameter is passed when some call names it as a keyword, gives enough
    positional arguments to reach it, or spreads a starred argument over it."""
    calls = {}                                  # name -> [(npos, keywords, starred)]
    params = []                                 # (path, line, call names, name, index)
    for top in SCANNED:
        for path in sorted((ROOT / top).rglob("*.py")):
            tree = ast.parse(path.read_text(), str(path))
            for node in ast.walk(tree):
                if isinstance(node, ast.Call):
                    f = node.func
                    name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                    starred = (any(isinstance(a, ast.Starred) for a in node.args)
                               or any(k.arg is None for k in node.keywords))
                    calls.setdefault(name, []).append(
                        (len(node.args), {k.arg for k in node.keywords}, starred))
            if top != "src":
                continue
            for cls in ast.walk(tree):
                if isinstance(cls, ast.ClassDef):
                    for fn in cls.body:
                        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                            static = any(getattr(d, "id", None) == "staticmethod"
                                         for d in fn.decorator_list)
                            names = ((cls.name, "__init__") if fn.name == "__init__"
                                     else (fn.name,))
                            for pname, index in _params_with_defaults(fn, 0 if static else 1):
                                params.append((path, fn.lineno, names, pname, index))
            for fn in tree.body:
                if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    for pname, index in _params_with_defaults(fn, 0):
                        params.append((path, fn.lineno, (fn.name,), pname, index))
    replaced = {kw for _npos, kws, _starred in calls.get("replace", ()) for kw in kws}
    out = []
    for path, line, names, pname, index in params:
        if names[-1] == "__init__" and pname in replaced:
            continue
        if not any(pname in kws or starred or (index is not None and npos > index)
                   for name in names for npos, kws, starred in calls.get(name, ())):
            out.append(f"{path.relative_to(ROOT)}:{line} {names[0]}({pname})")
    return out


def test_every_parameter_default_is_overridden_by_some_call():
    assert unpassed_defaults() == []


def unread_parameters():
    """Parameters of module-level functions in src/laxkit whose body never
    loads them (nested functions and lambdas count as the body)."""
    out = []
    for path in sorted((ROOT / "src").rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for fn in tree.body:
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            loaded = {node.id for stmt in fn.body for node in ast.walk(stmt)
                      if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
            args = fn.args
            for a in (args.posonlyargs + args.args + args.kwonlyargs
                      + [args.vararg, args.kwarg]):
                if a is not None and a.arg not in loaded:
                    out.append(f"{path.relative_to(ROOT)}:{fn.lineno} {fn.name}({a.arg})")
    return out


def test_every_function_parameter_is_read():
    assert unread_parameters() == []


def lambda_kernels():
    """``LinArg(...)`` calls in src/laxkit whose kernel is a lambda expression."""
    out = []
    for path in sorted((ROOT / "src").rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Call)
                    and getattr(node.func, "id", getattr(node.func, "attr", None)) == "LinArg"):
                continue
            kernels = node.args[:1] + [k.value for k in node.keywords if k.arg == "fn"]
            if any(isinstance(k, ast.Lambda) for k in kernels):
                out.append(f"{path.relative_to(ROOT)}:{node.lineno}")
    return out


def test_no_leaf_kernel_is_a_lambda():
    assert lambda_kernels() == []
