"""Scalar fields on C^n with exact directional derivatives.

A field is a small expression tree whose leaves are Dual-safe callables;
evaluating with dual-seeded points gives exact derivatives of any order,
so operator calculus below never needs symbolic differentiation.  The
workhorse leaf is ``LinArg`` (a univariate function of an affine-linear
form), which is closed under composition with x -> w x + v: exactly the
substitutions generated by group-algebra arithmetic.

Evaluation contract.  Calling a field, or ``evaluate(roots, x)``, opens one
memo scope for the point x, and every node is computed at most once in it:
sums, products, quotients and scalings are keyed by node identity, and the
leaves ``LinArg``/``BiArg`` by their kernel and affine form, so the equal
copies that ``o_affine`` makes share one kernel call.  Nodes that move the
point (``XLift``, ``Deriv``, ``FuncField``) evaluate their subtree in a
fresh scope.  This is sound because leaf kernels are pure functions of
their argument and nodes are immutable.  A scope lives for one evaluation
only and an exception discards it, so no value survives from one point to
the next; children are visited left to right, so the first ``PoleError``
raised is the one the plain tree walk would raise.

Composition with an affine map, ``o_affine``, is structural: every node
kind that operators transform pushes the map down to its leaves (``Deriv``
moves its directions with it), so no node stores a map.  The phase-space
nodes ``XLift`` and ``FuncField`` have no such rule and raise
``TypeError``.
"""

from __future__ import annotations

from .dual import d_exp, directional, value


class PoleError(ArithmeticError):
    """Evaluation too close to a pole; the message names the factor."""


class Field:
    __slots__ = ()

    def __call__(self, x):
        """Value at the point x, in a memo scope of its own."""
        return self._eval(x, {})

    def _ev(self, x, memo):
        """Value at x in the scope ``memo``; computed only on a miss."""
        v = memo.get(self)
        if v is None:
            v = memo[self] = self._eval(x, memo)
        return v

    def _eval(self, x, memo):
        raise NotImplementedError

    def __add__(self, other):
        return nsum([self, as_field(other)])

    def __radd__(self, other):
        return nsum([as_field(other), self])

    def __sub__(self, other):
        return nsum([self, -as_field(other)])

    def __rsub__(self, other):
        return nsum([as_field(other), -self])

    def __neg__(self):
        return Scale(-1.0, self)

    def __mul__(self, other):
        if isinstance(other, (int, float, complex)):
            return Scale(other, self)
        return Prod(self, other)

    def __rmul__(self, other):
        if isinstance(other, (int, float, complex)):
            return Scale(other, self)
        return Prod(as_field(other), self)

    def __truediv__(self, other):
        if isinstance(other, (int, float, complex)):
            return Scale(1.0 / other, self)
        return Quot(self, other)

    def __rtruediv__(self, other):
        return Quot(as_field(other), self)

    def o_affine(self, w, v):
        """The field x -> f(w x + v); w is a SignedPerm or None."""
        raise TypeError(f"{type(self).__name__} has no composition with an affine map")

    def o_group(self, w):
        return self.o_affine(w, None)

    def deriv(self, direction):
        """Directional derivative field along the vector ``direction``."""
        return Deriv(self, (tuple(direction),))


def as_field(x):
    if isinstance(x, Field):
        return x
    return Const(complex(x))


def evaluate(roots, x):
    """Values of the fields ``roots`` at x from one memo scope, so a node
    shared between roots is computed once."""
    memo = {}
    return [f._ev(x, memo) for f in roots]


class Const(Field):
    __slots__ = ("c",)

    def __init__(self, c):
        self.c = c

    def __call__(self, x):
        return self.c

    def _ev(self, x, memo):
        return self.c

    def o_affine(self, w, v):
        return self


ZERO = Const(0j)
ONE = Const(1.0 + 0j)


class LinArg(Field):
    """fn(<k, x> + c0); fn=None means the linear form itself."""

    __slots__ = ("fn", "k", "c0")

    def __init__(self, fn, k, c0=0j):
        self.fn = fn
        self.k = tuple(k)
        self.c0 = c0

    def __call__(self, x):
        z = self.c0
        for ki, xi in zip(self.k, x):
            if ki != 0:
                z = z + ki * xi
        return z if self.fn is None else self.fn(z)

    def _ev(self, x, memo):
        key = (self.fn, self.k, self.c0)
        v = memo.get(key)
        if v is None:
            v = memo[key] = self(x)
        return v

    def o_affine(self, w, v):
        k = self.k
        if w is not None and not w.is_identity():
            # <k, w x> = <w^{-1} k, x>
            k = w.inverse().apply_vec(k + (0,) * (w.n - len(k)))
        c0 = self.c0
        if v is not None:
            for ki, vi in zip(self.k, v):
                if ki != 0:
                    c0 = c0 + ki * vi
        return LinArg(self.fn, k, c0)


def exp_lin(k, c0=0j):
    """e^{<k,x> + c0}."""
    return LinArg(d_exp, k, c0)


def inv_form(k, c0=0j, guard=1e-3, name="linear form"):
    """1/(<k,x> + c0) with a pole guard on the denominator."""
    def fn(z):
        if abs(value(z)) < guard:
            raise PoleError(f"|{name}| = {abs(value(z)):.2e} below pole guard {guard}")
        return 1.0 / z
    return LinArg(fn, k, c0)


def linear_form(k, c0=0j):
    return LinArg(None, k, c0)


def momentum(n, i, sign=1.0):
    """sign * p_i as a field on phase points (x_1..x_n, p_1..p_n)."""
    k = [0.0] * (2 * n)
    k[n + i] = sign
    return LinArg(None, tuple(k))


class BiArg(Field):
    """fn(<ka,x> + ca, <kb,x> + cb) for a Dual-safe two-argument kernel.

    Used for dynamical R-matrix coefficients, where both the spectral
    argument and the spatial argument are affine-linear in the combined
    (xi, x) coordinates.
    """

    __slots__ = ("fn", "ka", "ca", "kb", "cb")

    def __init__(self, fn, ka, kb, ca=0j, cb=0j):
        self.fn = fn
        self.ka = tuple(ka)
        self.kb = tuple(kb)
        self.ca = ca
        self.cb = cb

    def __call__(self, x):
        za = self.ca
        for ki, xi in zip(self.ka, x):
            if ki != 0:
                za = za + ki * xi
        zb = self.cb
        for ki, xi in zip(self.kb, x):
            if ki != 0:
                zb = zb + ki * xi
        return self.fn(za, zb)

    def _ev(self, x, memo):
        key = (self.fn, self.ka, self.kb, self.ca, self.cb)
        v = memo.get(key)
        if v is None:
            v = memo[key] = self(x)
        return v

    def o_affine(self, w, v):
        ka, kb = self.ka, self.kb
        ca, cb = self.ca, self.cb
        if v is not None:
            for ki, vi in zip(ka, v):
                if ki != 0:
                    ca = ca + ki * vi
            for ki, vi in zip(kb, v):
                if ki != 0:
                    cb = cb + ki * vi
        if w is not None and not w.is_identity():
            winv = w.inverse()
            ka = winv.apply_vec(ka + (0,) * (w.n - len(ka)))
            kb = winv.apply_vec(kb + (0,) * (w.n - len(kb)))
        return BiArg(self.fn, ka, kb, ca, cb)


class Scale(Field):
    __slots__ = ("c", "f")

    def __init__(self, c, f):
        if isinstance(f, Scale):
            c, f = c * f.c, f.f
        self.c = c
        self.f = f

    def _eval(self, x, memo):
        return self.c * self.f._ev(x, memo)

    def o_affine(self, w, v):
        return Scale(self.c, self.f.o_affine(w, v))


class NSum(Field):
    __slots__ = ("parts",)

    def __init__(self, parts):
        self.parts = parts

    def _eval(self, x, memo):
        out = 0j
        for p in self.parts:
            out = out + p._ev(x, memo)
        return out

    def o_affine(self, w, v):
        return NSum([p.o_affine(w, v) for p in self.parts])


def nsum(parts):
    flat = []
    const = 0j
    for p in parts:
        if isinstance(p, NSum):
            flat.extend(p.parts)
        elif isinstance(p, Const):
            const += p.c
        else:
            flat.append(p)
    if const != 0:
        flat.append(Const(const))
    if not flat:
        return ZERO
    if len(flat) == 1:
        return flat[0]
    return NSum(flat)


class Prod(Field):
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b

    def _eval(self, x, memo):
        return self.a._ev(x, memo) * self.b._ev(x, memo)

    def o_affine(self, w, v):
        return Prod(self.a.o_affine(w, v), self.b.o_affine(w, v))


class Quot(Field):
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b

    def _eval(self, x, memo):
        return self.a._ev(x, memo) / self.b._ev(x, memo)

    def o_affine(self, w, v):
        return Quot(self.a.o_affine(w, v), self.b.o_affine(w, v))


class Deriv(Field):
    __slots__ = ("base", "dirs")

    def __init__(self, base, dirs):
        if isinstance(base, Deriv):
            dirs = base.dirs + tuple(dirs)
            base = base.base
        self.base = base
        self.dirs = tuple(dirs)

    def _eval(self, x, memo):
        return directional(self.base, tuple(x), self.dirs)

    def o_affine(self, w, v):
        # (D_d f)(w x + v) = D_{w^-1 d} (f(w x + v))
        if (w is None or w.is_identity()) and (v is None or not any(v)):
            return self
        dirs = self.dirs
        if w is not None:
            winv = w.inverse()
            dirs = tuple(winv.apply_vec(d) for d in dirs)
        return Deriv(self.base.o_affine(w, v), dirs)

    def deriv(self, direction):
        return Deriv(self.base, self.dirs + (tuple(direction),))


class FuncField(Field):
    """Arbitrary Dual-safe callable on points."""

    __slots__ = ("fn",)

    def __init__(self, fn):
        self.fn = fn

    def _eval(self, x, memo):
        return self.fn(x)


class XLift(Field):
    """An x-space field read on phase points (x_1..x_n, p_1..p_n)."""

    __slots__ = ("base", "n")

    def __init__(self, base, n):
        self.base = base
        self.n = n

    def _eval(self, z, memo):
        return self.base(z[:self.n])


def symmetrized(field, group_elements):
    """Average of f over x -> w^{-1} x, i.e. the W-invariant projection."""
    parts = [field.o_group(w.inverse()) for w in group_elements]
    return Scale(1.0 / len(parts), nsum(parts))
