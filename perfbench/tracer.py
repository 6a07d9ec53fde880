"""Span and counter tracing of laxkit, installed from outside the package.

The tracer wraps the public functions of each layer module and rebinds every
laxkit global that refers to them, so calls made through ``from .x import f``
bindings, module attributes and imports done at call time all pass through
the wrapper.  Nothing inside ``src/laxkit`` is edited and no private state of
the package is read.

Spans are aggregated as they close, because the difference workloads open
millions of them: each span adds its duration to its parent's child time,
and its self time is its duration minus that child time.  Inclusive time is
counted only for the outermost open span of a group (and of a layer), so
nested or recursive spans are not counted twice.
"""

from __future__ import annotations

import functools
import sys
import time
import types

# layer -> laxkit modules whose public functions are wrapped as that layer
LAYER_MODULES = {
    "cli": ("cli",),
    "suites": ("suites",),
    "construct": ("rational", "trig", "koorn", "ellcm", "ellrel"),
    "opcore": ("opcore",),
    "weyl": ("weyl",),
    "special": ("special",),
    "verify": ("verify",),
}

# called once per residual or per series term: wrapping them would measure
# the wrapper, not the layer
SKIP = {("opcore", "residual_pair")}
# called tens of thousands of times per sample point: counted, not timed
# (their time falls in the calling kernel's span)
COUNT_ONLY = {("special", "theta"): "theta"}

OPERATOR_CLASSES = ("WOp", "DiffOp", "DynOp", "OperatorMatrix")
OPERATOR_GROUPS = {"__mul__": "opcore.mul", "power": "opcore.mul",
                   "restrict": "opcore.restrict",
                   "apply_field": "opcore.apply_field",
                   "__add__": "opcore.algebra", "__sub__": "opcore.algebra",
                   "scale": "opcore.algebra", "conj": "opcore.algebra",
                   "collapse": "opcore.algebra"}
FUNCTION_GROUPS = {"opcore.restrict_to_matrix": "opcore.restrict"}
DUAL_FUNCTIONS = ("directional", "gradient", "gradient_vec")


class _Layer:
    __slots__ = ("depth", "incl", "self_s")

    def __init__(self):
        self.depth = 0
        self.incl = 0.0
        self.self_s = 0.0


class _Group:
    __slots__ = ("layer", "depth", "calls", "outer_calls", "incl", "self_s")

    def __init__(self, layer):
        self.layer = layer
        self.depth = 0
        self.calls = 0
        self.outer_calls = 0
        self.incl = 0.0
        self.self_s = 0.0


class Tracer:
    """Aggregating span recorder; ``clock`` is injectable for tests."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.layers = {}
        self.groups = {}
        self.stack = []          # [group, start, child_time]
        self.counts = {}         # plain counters, e.g. leaf calls
        self.point_totals = {}   # counter deltas inside evaluation points
        self.points = 0
        self.rhs_points = 0
        self.pole_resamples = 0
        self.capture = None      # (op, field) pairs from apply_field
        self.eval_roots = []     # field roots of every evalfn, for node counts
        self.eval_terms = 0

    def group(self, name, layer):
        g = self.groups.get(name)
        if g is None:
            if layer not in self.layers:
                self.layers[layer] = _Layer()
            g = self.groups[name] = _Group(self.layers[layer])
        return g

    def enter(self, g):
        g.calls += 1
        if g.depth == 0:
            g.outer_calls += 1
        g.depth += 1
        g.layer.depth += 1
        self.stack.append([g, self.clock(), 0.0])

    def exit(self):
        end = self.clock()
        g, start, child = self.stack.pop()
        dur = end - start
        own = dur - child
        g.depth -= 1
        g.self_s += own
        layer = g.layer
        layer.depth -= 1
        layer.self_s += own
        if g.depth == 0:
            g.incl += dur
        if layer.depth == 0:
            layer.incl += dur
        if self.stack:
            self.stack[-1][2] += dur

    def span(self, fn, name, layer):
        g = self.group(name, layer)
        enter, exit_ = self.enter, self.exit

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            enter(g)
            try:
                return fn(*args, **kwargs)
            finally:
                exit_()
        return wrapper

    def snapshot(self):
        return dict(self.counts)

    def add_point(self, before, rhs=False):
        after = self.snapshot()
        for k, v in after.items():
            self.point_totals[k] = self.point_totals.get(k, 0) + v - before.get(k, 0)
        if rhs:
            self.rhs_points += 1
        else:
            self.points += 1


def count_nodes(roots, field_cls):
    """(distinct, tree) node counts of the expression graphs under ``roots``.

    ``tree`` counts a shared node once per path that reaches it, which is the
    size the graph would have with no sharing; ``distinct`` counts objects.
    """
    size = {}
    tree = 0
    for root in roots:
        stack = [(root, False)]
        while stack:
            node, done = stack.pop()
            key = id(node)
            if key in size and not done:
                continue
            kids = _children(node, field_cls)
            if done:
                size[key] = 1 + sum(size[id(k)] for k in kids)
                continue
            stack.append((node, True))
            stack.extend((k, False) for k in kids if id(k) not in size)
        tree += size[id(root)]
    return len(size), tree


def _children(node, field_cls):
    kids = []
    for cls in type(node).__mro__:
        for slot in getattr(cls, "__slots__", ()):
            val = getattr(node, slot, None)
            if isinstance(val, field_cls):
                kids.append(val)
            elif isinstance(val, (list, tuple)):
                kids.extend(v for v in val if isinstance(v, field_cls))
    return kids


# -- installation -------------------------------------------------------

def _rebind(old, new):
    for name, mod in list(sys.modules.items()):
        if name == "laxkit" or name.startswith("laxkit."):
            for key, val in list(vars(mod).items()):
                if val is old:
                    setattr(mod, key, new)


def _public_functions(mod):
    for name, obj in list(vars(mod).items()):
        if (not name.startswith("_") and isinstance(obj, types.FunctionType)
                and obj.__module__ == mod.__name__):
            yield name, obj


def install_check_clock(laxkit_verify, marks):
    """Record (check name, time) whenever a CheckResult is made."""
    cls = laxkit_verify.CheckResult
    orig = cls.__init__

    def __init__(self, name, *args, **kwargs):
        orig(self, name, *args, **kwargs)
        marks.append((name, time.monotonic()))
    cls.__init__ = __init__


def install(tracer):
    """Wrap every layer of an imported laxkit; returns the tracer."""
    import importlib
    mods = {}
    for layer, names in LAYER_MODULES.items():
        for short in names:
            mods[short] = importlib.import_module("laxkit." + short)
    fields = importlib.import_module("laxkit.fields")
    dual = importlib.import_module("laxkit.dual")

    for layer, names in LAYER_MODULES.items():
        for short in names:
            mod = mods[short]
            for name, fn in _public_functions(mod):
                if (layer, name) in SKIP:
                    continue
                group = FUNCTION_GROUPS.get(f"{short}.{name}", f"{layer}.{name}")
                if (layer, name) in COUNT_ONLY:
                    wrapped = _counted(tracer, fn, COUNT_ONLY[layer, name])
                elif layer == "verify" and name.endswith("_evalfn"):
                    wrapped = _wrap_evalfn_factory(tracer, fn, fields, group)
                else:
                    wrapped = tracer.span(fn, group, layer)
                if name == "hamiltonian_rhs":
                    wrapped = _wrap_rhs(tracer, wrapped)
                _rebind(fn, wrapped)

    opcore = mods["opcore"]
    for cls_name in OPERATOR_CLASSES:
        cls = getattr(opcore, cls_name)
        for meth, group in OPERATOR_GROUPS.items():
            fn = cls.__dict__.get(meth)
            if fn is None:
                continue
            wrapped = tracer.span(fn, group, "opcore")
            if meth == "apply_field":
                wrapped = _wrap_capture(tracer, wrapped)
            setattr(cls, meth, wrapped)

    for name in DUAL_FUNCTIONS:
        fn = getattr(dual, name, None)
        if fn is not None:
            _rebind(fn, tracer.span(fn, f"dual.{name}", "dual"))
    _count_calls(tracer, dual.Dual, "__init__", "dual_objects")
    for cls_name in ("LinArg", "BiArg"):
        _count_calls(tracer, getattr(fields, cls_name), "__call__", "leaf_calls")
    return tracer


def _counted(tracer, fn, key):
    counts = tracer.counts
    counts.setdefault(key, 0)

    @functools.wraps(fn)
    def counted(*args, **kwargs):
        counts[key] += 1
        return fn(*args, **kwargs)
    return counted


def _count_calls(tracer, cls, meth, key):
    setattr(cls, meth, _counted(tracer, cls.__dict__[meth], key))


def _wrap_capture(tracer, apply_field):
    group = tracer.groups["opcore.apply_field"]

    def wrapper(self, f):
        out = apply_field(self, f)
        if tracer.capture is not None and group.depth == 0:
            tracer.capture.append((self, out))
        return out
    return wrapper


def _wrap_evalfn_factory(tracer, factory, fields, group):
    eval_group = tracer.group("fields.eval", "fields")
    pole_error = fields.PoleError
    field_cls = fields.Field
    span_factory = tracer.span(factory, group, "verify")

    def make(*args, **kwargs):
        outer, tracer.capture = tracer.capture, []
        try:
            evalfn = span_factory(*args, **kwargs)
            captured = tracer.capture
        finally:
            tracer.capture = outer
        tracer.eval_roots.extend(f for _op, f in captured
                                 if isinstance(f, field_cls))
        tracer.eval_terms += sum(len(getattr(op, "terms", ())) for op, _f in captured)

        def evalfn_traced(x):
            before = tracer.snapshot()
            tracer.enter(eval_group)
            try:
                return evalfn(x)
            except pole_error:
                tracer.pole_resamples += 1
                raise
            finally:
                tracer.exit()
                tracer.add_point(before)
        return evalfn_traced
    return make


def _wrap_rhs(tracer, rhs):
    def wrapper(*args, **kwargs):
        before = tracer.snapshot()
        try:
            return rhs(*args, **kwargs)
        finally:
            tracer.add_point(before, rhs=True)
    return wrapper
