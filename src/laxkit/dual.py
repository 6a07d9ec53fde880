"""Forward-mode dual scalars over the complex numbers.

A ``Dual`` carries a value and one infinitesimal component; nesting duals
inside duals yields exact higher-order and mixed directional derivatives.
Kernels are written against the small generic API here (Dual arithmetic,
``abs`` of the value for pole guards, ``d_exp``, ``taylor``), so one body
serves plain and Dual arguments and one kernel differentiates another by a
run on a Dual: ``fields`` derives fields by rule and keeps Duals inside
single kernels (a derivative kernel, a kernel without a pair).  No package
path hands a Dual to a tape; the tests' oracle of derivatives and gradients
runs one on seeded points.  ``d_exp`` is its own derivative (``d_exp.dz``) and
gives its value and slope at a plain point from one exponential
(``d_exp.pair``).
"""

from __future__ import annotations

import cmath
import math


class Dual:
    """val + eps * (infinitesimal); val/eps may themselves be Dual."""

    __slots__ = ("val", "eps")

    def __init__(self, val, eps=0j):
        self.val = val
        self.eps = eps

    def __repr__(self):
        return f"Dual({self.val!r}, {self.eps!r})"

    def __add__(self, other):
        if isinstance(other, Dual):
            return Dual(self.val + other.val, self.eps + other.eps)
        return Dual(self.val + other, self.eps)

    __radd__ = __add__

    def __neg__(self):
        return Dual(-self.val, -self.eps)

    def __sub__(self, other):
        if isinstance(other, Dual):
            return Dual(self.val - other.val, self.eps - other.eps)
        return Dual(self.val - other, self.eps)

    def __rsub__(self, other):
        return Dual(other - self.val, -self.eps)

    def __mul__(self, other):
        if isinstance(other, Dual):
            return Dual(self.val * other.val,
                        self.val * other.eps + self.eps * other.val)
        return Dual(self.val * other, self.eps * other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Dual):
            q = self.val / other.val
            return Dual(q, (self.eps - q * other.eps) / other.val)
        return Dual(self.val / other, self.eps / other)

    def __rtruediv__(self, other):
        return Dual(other, 0j) / self

    def __pow__(self, k):
        if not isinstance(k, int):
            raise TypeError("Dual powers are integer only")
        if k < 0:
            return (Dual(1.0 + 0j, 0j) / self) ** (-k)
        out = 1.0 + 0j
        base = self
        while k:
            if k & 1:
                out = base * out
            base = base * base
            k >>= 1
        return out

    def __abs__(self):
        # the modulus of the value, which a kernel's pole guard compares
        return abs(value(self))

    def __eq__(self, other):
        return isinstance(other, Dual) and self.val == other.val and self.eps == other.eps

    def __hash__(self):
        return hash((self.val, self.eps))


def value(x):
    """Strip all infinitesimal parts, returning the underlying complex."""
    while isinstance(x, Dual):
        x = x.val
    return x


# j! for the orders of a Taylor shift (Dual depth plus jet order below 21)
_FACTORIALS = tuple(math.factorial(j) for j in range(21))


def taylor(derivs, h):
    """sum_j derivs[j] h^j / j!: f(z0 + h) from the derivatives of f at z0,
    exact for a Dual h of value 0 and depth below len(derivs), whose powers
    past its depth vanish."""
    out = derivs[-1] / _FACTORIALS[len(derivs) - 1]
    for j in range(len(derivs) - 2, -1, -1):
        out = out * h + derivs[j] / _FACTORIALS[j]
    return out


def d_exp(x):
    if isinstance(x, Dual):
        e = d_exp(x.val)
        return Dual(e, e * x.eps)
    return cmath.exp(x)


def _d_exp_pair(z):
    """(e^z, its slope) at a plain z, as ``d_exp`` gives them on Dual(z, 1.0)."""
    e = cmath.exp(z)
    return e, e * 1.0


d_exp.pair = _d_exp_pair
d_exp.dz = d_exp


def extract(x):
    """First-order infinitesimal part of a (possibly plain) scalar."""
    return x.eps if isinstance(x, Dual) else 0j


def gradient_vec(f, point):
    """All first partials of the field ``f`` at ``point``, from the gradient
    function generated for its tape (``fields.Field.gradient``: one forward
    pass and one adjoint sweep as straight-line code, compiled once per
    tape; a ``Scale`` root runs its operand's function)."""
    return f.gradient(point)
