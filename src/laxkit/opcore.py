"""Crossed-product operator algebra and its matrix representations.

Two term shapes cover every construction in the package:

* ``WOp`` — difference-reflection operators, finite sums of h(x) * w * t(lam)
  with h a scalar field, w a finite signed permutation and t(lam) a lattice
  translation acting by f(x) -> f(x + c*lam).  Step constant c = 0 gives the
  classical crossed product, where t(lam) is read as e^{p_lam} and
  composition drops the shift of coefficients.  A dynamical operator
  h(xi, x) * (a ⊗ w t(lam)), used for the unitary R-matrix Weyl-group
  action, is the ``WOp`` on the 2n coordinates (xi, x) with group part
  a ⊕ w and translation (0, lam); ``DynOp`` builds it from (a, w, lam).
* ``DiffOp`` — differential-reflection operators, sums of f(x) (t d)^m w
  with the Planck constant t.  Composition follows the Leibniz rule, whose
  j-th term carries t^|j|, so t = 0 gives the classical crossed product:
  (t d)^m reads as the momentum monomial p^m and composition drops the
  derivatives of coefficients.  As for a WOp at c = 0, a DiffOp at t = 0
  has no function action, only symbols.

Both keep their terms in one dictionary keyed by (group element, exponent),
sharing the linear algebra; a zero coefficient is dropped, so the zero
operator has no terms.  Each flavor gives one rule for its exponent (moved
past the group factor, conjugated by a coset representative, read as a
classical symbol), and collapse, restriction to M' = e'M and the symbol
readings ``symbol_component``/``phase_field`` are written once over it.
Matrices over the scalar (reflection-free) parts represent operator
actions on the induced module M and its parabolic reduction M'.  The
symbol and module readings call fields at complex points, so what they sum
and compare are plain numbers.
"""

from __future__ import annotations

import cmath
import itertools
import math

from .fields import ONE, Const, Field, NSum, as_field, exp_lin, momentum, nsum
from .weyl import SignedPerm


class FlavorError(TypeError):
    """Composition of incompatible operator flavors."""


class RestrictionError(ValueError):
    """Operator fails W'-invariance, so no matrix on M' exists."""


def _is_zero_field(f):
    return isinstance(f, Const) and f.c == 0


def _multi_transform(m, g: SignedPerm):
    """d^m -> sign * d^(m') under conjugation x -> g x (i.e. g^{-1} d^m g)."""
    out = [0] * len(m)
    sign = 1
    ginv = g.inverse()
    for i, mi in enumerate(m):
        if mi:
            j, s = ginv.basis_image(i)
            out[j] = mi
            if s < 0 and mi % 2 == 1:
                sign = -sign
    return tuple(out), sign


# (n, i) -> the unit direction e_i of C^n, made once; plain floats with no
# -0.0, so each is its own derivative memo key (``fields._direction_key``)
_UNITS = {}


def field_dmulti(f: Field, m):
    """Iterated coordinate derivatives d^m f as a field."""
    n = len(m)
    for i, mi in enumerate(m):
        if mi:
            e = _UNITS.get((n, i))
            if e is None:
                e = _UNITS[n, i] = tuple(1.0 if j == i else 0.0 for j in range(n))
            for _ in range(mi):
                f = f._derived(e, e)
    return f


class _TermOp:
    """Finite sum of coefficient fields over term keys (w, exponent).

    Subclasses give the flavor (``_flavor``, ``_like``), composition and
    the exponent hooks ``_moved``, ``_conj``, ``_symbol``, ``_symbol_field``
    over which collapse, restriction and the symbol readings are written.
    """

    __slots__ = ("n", "terms")

    def __init__(self, n, terms=None):
        self.n = n
        self.terms = {}
        if terms:
            for key, f in terms.items():
                self._add_term(key, f)

    def _add_term(self, key, f):
        if _is_zero_field(f):
            return
        old = self.terms.get(key)
        self.terms[key] = f if old is None else nsum([old, f])

    def _like(self, terms=None):
        """Operator of the same algebra, dimension and flavor with ``terms``."""
        raise NotImplementedError

    def _flavor(self):
        raise NotImplementedError

    def _check(self, other):
        if not isinstance(other, _TermOp) or other._flavor() != self._flavor():
            raise FlavorError(f"cannot combine {type(self).__name__} with "
                              f"{type(other).__name__} of another dimension "
                              f"or flavor")

    def __add__(self, other):
        self._check(other)
        out = self._like(self.terms)
        for key, f in other.terms.items():
            out._add_term(key, f)
        return out

    def __sub__(self, other):
        return self + other.scale(-1.0)

    def scale(self, z):
        if z == 0:
            return self._like()
        return self._like({key: z * f for key, f in self.terms.items()})

    def __neg__(self):
        return self.scale(-1.0)

    def __rmul__(self, z):
        if isinstance(z, (int, float, complex)):
            return self.scale(z)
        return NotImplemented

    def collapse(self):
        """Sum of the scalar parts a_w, group factors dropped."""
        out = self._like()
        one = SignedPerm.identity(self.n)
        for (w, e), f in self.terms.items():
            out._add_term((one, self._moved(w, e)), f)
        return out

    def restrict(self, tbl) -> "OperatorMatrix":
        """Matrix of the action on M' = e'M in the basis e' r_j (x) f_j.

        Entry (k, j) collects conj(d, r_k) over all w' in W' with
        u w' r_j = r_k; this is exact whenever the operator preserves M',
        with no two-sided W'-commutation assumed.
        """
        m = tbl.m
        rep_index = {r: k for k, r in enumerate(tbl.reps)}
        one = SignedPerm.identity(self.n)
        entries = [[self._like() for _ in range(m)] for _ in range(m)]
        for (w, e), f in self.terms.items():
            moved = self._moved(w, e)
            for j, rj in enumerate(tbl.reps):
                for wp in tbl.stabilizer:
                    k = rep_index.get(w * (wp * rj))
                    if k is None:
                        continue
                    ek, fk = self._conj(tbl.reps[k], moved, f)
                    entries[k][j]._add_term((one, ek), fk)
        return OperatorMatrix(entries)

    def symbol_component(self, w, x, p):
        """Classical symbol of the a_w component at the phase point (x, p).
        A WOp reads t(lam) as e^{<lam, p>}; a DiffOp reads (t d)_k as p_k."""
        total = 0j
        for (w2, e), f in self.terms.items():
            if w2 == w:
                total += f(x) * self._symbol(self._moved(w2, e), p)
        return total

    def phase_field(self):
        """The classical symbol, summed over components, as a field on phase
        points (x_1..x_n, p_1..p_n), read as in ``symbol_component``: an
        x-space coefficient reads the first n coordinates as it stands, a unit
        coefficient leaves its symbol alone, and each component, a sum
        included, is one part of the sum."""
        parts = []
        for (w, e), f in self.terms.items():
            sym = self._symbol_field(self._moved(w, e))
            if sym is not ONE:
                f = sym if isinstance(f, Const) and f.c == 1 else f * sym
            parts.append(f)
        return NSum(parts) if len(parts) > 1 else nsum(parts)


class WOp(_TermOp):
    """Finite sum of h(x) * w * t(lam) in normal form."""

    __slots__ = ("c",)

    def __init__(self, n, c, terms=None):
        self.c = c
        super().__init__(n, terms)

    def _like(self, terms=None):
        return WOp(self.n, self.c, terms)

    def _flavor(self):
        return WOp, self.n, self.c

    # -- constructors -------------------------------------------------
    @staticmethod
    def zero(n, c):
        return WOp(n, c)

    @staticmethod
    def one(n, c):
        return WOp.from_scalar(n, c, 1.0)

    @staticmethod
    def from_scalar(n, c, z):
        key = (SignedPerm.identity(n), (0,) * n)
        return WOp(n, c, {key: as_field(z)})

    @staticmethod
    def from_field(n, c, f):
        key = (SignedPerm.identity(n), (0,) * n)
        return WOp(n, c, {key: f})

    @staticmethod
    def from_group(n, c, w: SignedPerm, coeff=1.0):
        return WOp(n, c, {(w, (0,) * n): as_field(coeff)})

    @staticmethod
    def translation(n, c, lam):
        return WOp(n, c, {(SignedPerm.identity(n), tuple(lam)): as_field(1.0)})

    # -- algebra -------------------------------------------------------
    def mul_field_left(self, g: Field):
        return WOp(self.n, self.c, {key: g * f for key, f in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, float, complex)):
            return self.scale(other)
        self._check(other)
        out = self._like()
        rights = [(w2, w2.inverse(), l2, h2) for (w2, l2), h2 in other.terms.items()]
        for (w1, l1), h1 in self.terms.items():
            w1inv = w1.inverse()
            shift = tuple(self.c * v for v in l1) if self.c != 0 else None
            # o_affine's memo key of the map, made once for all of other's terms
            if shift is not None:
                key = repr((w1inv.img, shift))
            else:
                key = None if w1inv.is_identity() else w1inv
            for w2, w2inv, l2, h2 in rights:
                # h1 w1 t(l1) h2 w2 t(l2) = h1 * (h2 o map) * (w1 w2) t(w2^-1 l1 + l2)
                h2c = h2 if key is None else h2._image(w1inv, shift, key)
                lam = tuple(a + b for a, b in zip(w2inv.apply_vec(l1), l2))
                out._add_term((w1 * w2, lam), h1 * h2c)
        return out

    # -- flavor hooks: h w t(lam) = h t(w lam) w; t(lam) reads as e^{p_lam}
    def _moved(self, w, lam):
        return w.apply_vec(lam)

    def _conj(self, r, lam, h):
        return r.inverse().apply_vec(lam), h.o_group(r)

    def _symbol(self, lam, p):
        return cmath.exp(sum(pi * li for pi, li in zip(p, lam)))

    def _symbol_field(self, lam):
        return exp_lin((0.0,) * self.n + tuple(lam))

    # -- actions ---------------------------------------------------------
    def apply_field(self, f: Field) -> Field:
        if self.c == 0:
            raise FlavorError("classical WOp has no function action; use symbols")
        parts = []
        for (w, lam), h in self.terms.items():
            shift = tuple(self.c * v for v in lam)
            parts.append(h * f.o_affine(w.inverse(), shift))
        return nsum(parts)

    restrict = _TermOp.restrict   # a class-dict entry, which perfbench/tracer.py times


class DiffOp(_TermOp):
    """Finite sum of f(x) (t d)^m w for the Planck constant t; at t = 0 the
    Leibniz rule keeps only its leading term and (t d)_k reads as p_k."""

    __slots__ = ("t",)

    def __init__(self, n, t, terms=None):
        self.t = t
        super().__init__(n, terms)

    def _like(self, terms=None):
        return DiffOp(self.n, self.t, terms)

    def _flavor(self):
        return DiffOp, self.n, self.t

    @staticmethod
    def zero(n, t):
        return DiffOp(n, t)

    @staticmethod
    def from_field(n, t, f):
        key = (SignedPerm.identity(n), (0,) * n)
        return DiffOp(n, t, {key: as_field(f)})

    @staticmethod
    def partial(n, t, direction_index, coeff=1.0):
        """coeff * (t d_i) for i = ``direction_index``."""
        m = tuple(1 if i == direction_index else 0 for i in range(n))
        return DiffOp(n, t, {(SignedPerm.identity(n), m): as_field(coeff)})

    @staticmethod
    def from_group(n, t, w, coeff=1.0):
        return DiffOp(n, t, {(w, (0,) * n): as_field(coeff)})

    def __mul__(self, other):
        if isinstance(other, (int, float, complex)):
            return self.scale(other)
        self._check(other)
        out = self._like()
        for (w1, m1), f1 in self.terms.items():
            w1inv = w1.inverse()
            ranges = [range(mi + 1) for mi in m1]
            for (w2, m2), f2 in other.terms.items():
                g_w = f2.o_group(w1inv)
                m2t, sign = _multi_transform(m2, w1inv)
                w12 = w1 * w2
                # (t d)^m1 g = sum_j C(m1,j) t^|j| (d^j g) (t d)^(m1-j): at t = 0
                # or for a constant g only j = 0 is left
                lead_only = not self.t or isinstance(g_w, Const)
                for j in ([(0,) * self.n] if lead_only else itertools.product(*ranges)):
                    coeff = sign
                    for a, b in zip(m1, j):
                        coeff *= math.comb(a, b)
                    if any(j):
                        coeff = coeff * self.t ** sum(j)
                    dj = field_dmulti(g_w, j)
                    mm = tuple(a - b + cpart for a, b, cpart in zip(m1, j, m2t))
                    out._add_term((w12, mm), coeff * (f1 * dj))
        return out

    def power(self, k):
        out = DiffOp.from_field(self.n, self.t, Const(1.0 + 0j))
        for _ in range(k):
            out = out * self
        return out

    def components(self):
        comp = {}
        for (w, m), f in self.terms.items():
            comp.setdefault(w, []).append((m, f))
        return comp

    # -- flavor hooks: f (t d)^m w has its group factor right; (t d)_k reads as p_k
    def _moved(self, w, m):
        return m

    def _conj(self, r, m, f):
        mt, sign = _multi_transform(m, r)
        fr = f.o_group(r)
        return mt, (fr if sign == 1 else sign * fr)

    def _symbol(self, m, p):
        mono = 1.0 + 0j
        for k, mk in enumerate(m):
            if mk:
                mono *= p[k] ** mk
        return mono

    def _symbol_field(self, m):
        mono = ONE
        for k, mk in enumerate(m):
            for _ in range(mk):
                p = momentum(self.n, k)
                mono = p if mono is ONE else mono * p
        return mono

    def _scaled(self, h, m):
        """t^|m| h, the coefficient of d^m in h (t d)^m."""
        k = sum(m)
        return self.t ** k * h if k else h

    def apply_field(self, f: Field) -> Field:
        if self.t == 0:
            raise FlavorError("classical DiffOp (t = 0) has no function action; "
                              "use symbols")
        parts = []
        for (w, m), h in self.terms.items():
            g = f.o_group(w.inverse())
            parts.append(self._scaled(h, m) * field_dmulti(g, m))
        return nsum(parts)

    restrict = _TermOp.restrict   # a class-dict entry, which perfbench/tracer.py times


class DynOp(WOp):
    """Dynamical operator sum h(xi, x) * (a ⊗ w t(lam)) on C^n x C^n: the WOp
    on the 2n coordinates (xi, x) with group part a ⊕ w and translation
    (0, lam), built from terms keyed by (a, w, lam)."""

    __slots__ = ()

    def __init__(self, n, c, terms=None):
        super().__init__(2 * n, c, {(SignedPerm.block(a, w), (0,) * n + tuple(lam)): h
                                    for (a, w, lam), h in (terms or {}).items()})

    @staticmethod
    def one(n, c):
        return WOp.one(2 * n, c)


# -- module elements ---------------------------------------------------

def module_inject(tbl, fields):
    """e' sum_j r_j f_j as a dict w -> field over the whole of W."""
    out = {}
    norm = 1.0 / len(tbl.stabilizer)
    for rj, f in zip(tbl.reps, fields):
        for wp in tbl.stabilizer:
            g = wp * rj
            out[g] = nsum([out[g], norm * f]) if g in out else norm * f
    return out


def module_apply_wop(op: WOp, melem: dict) -> dict:
    """Left action of a WOp on a module element Sum_g g (x) f_g."""
    out = {}
    for (w, lam), h in op.terms.items():
        wl = w.apply_vec(lam)
        for g, f in melem.items():
            tgt = w * g
            ginv = tgt.inverse()
            coeff = h.o_group(tgt)
            shifted = f.o_affine(None, tuple(op.c * v for v in ginv.apply_vec(wl)))
            term = coeff * shifted
            out[tgt] = nsum([out[tgt], term]) if tgt in out else term
    return out


def module_apply_diffop(op: DiffOp, melem: dict) -> dict:
    out = {}
    for (w, m), h in op.terms.items():
        for g, f in melem.items():
            tgt = w * g
            mt, sign = _multi_transform(m, tgt)
            term = (sign * op._scaled(h, m).o_group(tgt)) * field_dmulti(f, mt)
            out[tgt] = nsum([out[tgt], term]) if tgt in out else term
    return out


def module_group_act(w: SignedPerm, melem: dict) -> dict:
    return {w * g: f for g, f in melem.items()}


def module_residual(m1: dict, m2: dict, points) -> float:
    worst = 0.0
    zero = Const(0j)
    for g in {**m1, **m2}:
        f1 = m1.get(g, zero)
        f2 = m2.get(g, zero)
        for x in points:
            worst = max(worst, residual_pair(f1(x), f2(x)))
    return worst


# -- matrices ----------------------------------------------------------

class OperatorMatrix:
    """Square matrix of scalar-factor operators (difference or differential)."""

    __slots__ = ("entries",)

    def __init__(self, entries):
        self.entries = entries

    @property
    def m(self):
        return len(self.entries)

    @staticmethod
    def diagonal(scalar_op, m):
        """scalar_op * 1: off the diagonal the operator with no terms."""
        zero = scalar_op._like()
        return OperatorMatrix([[scalar_op if i == j else zero for j in range(m)]
                               for i in range(m)])

    def __add__(self, other):
        return OperatorMatrix([[a + b for a, b in zip(ra, rb)]
                               for ra, rb in zip(self.entries, other.entries)])

    def __sub__(self, other):
        return OperatorMatrix([[a - b for a, b in zip(ra, rb)]
                               for ra, rb in zip(self.entries, other.entries)])

    def scale(self, z):
        return OperatorMatrix([[a.scale(z) for a in row] for row in self.entries])

    def __mul__(self, other):
        m = self.m
        out = []
        for i in range(m):
            row = []
            for j in range(m):
                acc = None
                for k in range(m):
                    prod = self.entries[i][k] * other.entries[k][j]
                    acc = prod if acc is None else acc + prod
                row.append(acc)
            out.append(row)
        return OperatorMatrix(out)

    def apply_vector(self, fields):
        return [nsum([self.entries[i][j].apply_field(fields[j])
                      for j in range(self.m)]) for i in range(self.m)]

    def phase_field(self):
        """The entries' classical symbols as nested lists of phase fields."""
        return [[e.phase_field() for e in row] for row in self.entries]


# -- Lax pairs -----------------------------------------------------------

class LaxPair:
    """Quantum Lax pair on M' = e'M: L and A are |W/W'|-square matrices over
    the coset table ``tbl``, and [L, H 1] = [A, L]."""

    def __init__(self, tbl, L, A, H):
        self.tbl, self.L, self.A, self.H = tbl, L, A, H


def lax_pair(tbl, L, fY, H) -> LaxPair:
    """The pair whose A is the restriction of the off-identity part fY - H of
    an invariant combination f(Y) of Dunkl or Cherednik operators."""
    return LaxPair(tbl, L, (fY - H).restrict(tbl), H)


def integrals(L, kmax, weights=None):
    """H_k = u L^k v for k = 1..kmax: the sum of all entries of L^k, row i
    multiplied on the left by the field ``weights[i]`` when weights are given."""
    out = []
    Lk = L
    for k in range(1, kmax + 1):
        acc = None
        for i in range(Lk.m):
            for j in range(Lk.m):
                term = Lk.entries[i][j]
                if weights is not None:
                    term = term.mul_field_left(weights[i])
                acc = term if acc is None else acc + term
        out.append(acc)
        if k < kmax:
            Lk = Lk * L
    return out


def hecke_generator(n, c, tau, kernel, s, lam=None) -> WOp:
    """T = tau + kernel (s t(lam) - 1), the basic-representation form of a
    Hecke generator whose root has the c-function ``kernel``."""
    return WOp(n, c, {(SignedPerm.identity(n), (0,) * n): nsum([Const(tau + 0j), -kernel]),
                      (s, (0,) * n if lam is None else lam): kernel})


def hecke_inverse(T: WOp, tau) -> WOp:
    """T^-1 = T - (tau - 1/tau) for a generator with (T - tau)(T + 1/tau) = 0."""
    return T - WOp.from_scalar(T.n, T.c, tau - 1.0 / tau)


def check_wprime_invariance(op, tbl, probes, points):
    """Max residual of (1 - w) op e' on probe module vectors, w in W'."""
    apply_mod = module_apply_wop if isinstance(op, WOp) else module_apply_diffop
    worst = 0.0
    for f in probes:
        for j in range(tbl.m):
            vec = [Const(0j)] * tbl.m
            vec[j] = f
            melem = module_inject(tbl, vec)
            image = apply_mod(op, melem)
            for wp in tbl.stabilizer:
                if wp.is_identity():
                    continue
                moved = module_group_act(wp, image)
                worst = max(worst, module_residual(image, moved, points))
    return worst


def restrict_to_matrix(op, tbl, probes, points):
    """Matrix of the action on M' = e'M, gated on W'-invariance (worst
    residual at most 1e-9 on the probes at the points)."""
    res = check_wprime_invariance(op, tbl, probes, points)
    if res > 1e-9:
        raise RestrictionError(
            f"operator is not W'-invariant on M' (worst residual {res:.3e})")
    return op.restrict(tbl)


# -- residual evaluation ------------------------------------------------

def nan_as_inf(r):
    """r, or inf for a NaN: ``max`` keeps its first argument against a NaN,
    so a NaN residual or drift would be dropped and its check would pass."""
    return math.inf if r != r else r


def residual_pair(lhs_val, rhs_val):
    return nan_as_inf(abs(lhs_val - rhs_val) / (1.0 + abs(lhs_val) + abs(rhs_val)))


def make_probes(n, count, rng):
    """Exponential probes e^{<k,x>} with seeded standard complex-Gaussian k."""
    out = []
    for _ in range(count):
        k = tuple(complex(rng.gauss(0, 1.0), rng.gauss(0, 1.0)) for _ in range(n))
        out.append(exp_lin(k))
    return out
