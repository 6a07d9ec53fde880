"""Rational Dunkl operators and Calogero-Moser Lax pairs.

The Dunkl operator y_xi = t d_xi + sum_{a>0} c_a <a,xi>/<a,x> s_a generates
everything here: invariant polynomials in the y's split as q(y) = L_q + A
with A e = 0, and restricting to M' = e'M turns (y_xi, A) into a quantum Lax
pair of size |W/W'|.  The Planck constant t is the only flavor switch: the
same operators built at t = 0, where (t d)_k reads as p_k, give the classical
pair, whose Lax matrix is the Moser matrix; the classical A-partner is minus
the t-linear part of the quantum A (``classical_a_matrix``).
"""

from __future__ import annotations

from .fields import Const, inv_form, linear_form, nsum
from .opcore import DiffOp, LaxPair, OperatorMatrix, lax_pair
from .weyl import (SignedPerm, dot, ext_coord, ext_form, orbit_stabilizer,
                   replace)


class RationalDunklConfig:
    """W-invariant couplings: one value per root-length orbit."""

    def __init__(self, rs, t, c_short, c_long=None):
        self.rs, self.t, self.c_short, self.c_long = rs, t, c_short, c_long

    def coupling(self, alpha):
        if dot(alpha, alpha) == 4 and self.rs.kind == "C":
            return self.c_long if self.c_long is not None else self.c_short
        return self.c_short


def dunkl(cfg: RationalDunklConfig, xi) -> DiffOp:
    """y_xi = t d_xi + sum_{a>0} c_a <a,xi>/<a,x> s_a."""
    rs = cfg.rs
    n = rs.dim
    t = cfg.t
    op = DiffOp.zero(n, t)
    for i, x in enumerate(xi):
        if x != 0:
            op = op + DiffOp.partial(n, t, i, x)
    for a in rs.pos_roots:
        ax = dot(a, xi)
        if ax == 0:
            continue
        coeff = (cfg.coupling(a) * ax) * inv_form(a)
        op = op + DiffOp(n, t, {(rs.reflection(a), (0,) * n): coeff})
    return op


def dunkl_basis(cfg):
    n = cfg.rs.dim
    return [dunkl(cfg, ext_coord(n, i)) for i in range(n)]


def power_sum(cfg, k) -> DiffOp:
    """sum_i y_i^k over an orthonormal basis (invariant for k even or type A)."""
    ys = dunkl_basis(cfg)
    out = None
    for y in ys:
        yk = y.power(k)
        out = yk if out is None else out + yk
    return out


def cm_split(cfg, poly=((1.0, 2),)):
    """q(y) = L_q + A_hat for q a combination of power sums.

    ``poly`` lists (coefficient, power); the default q = <y,y>.  Returns
    (q(y), L_q, A_hat) with L_q the group-free part and A_hat e = 0.
    """
    total = None
    for coeff, k in poly:
        term = power_sum(cfg, k).scale(coeff)
        total = term if total is None else total + term
    L_q = total.collapse()
    A_hat = total - L_q
    return total, L_q, A_hat


def cm_hamiltonian_explicit(cfg) -> DiffOp:
    """L_{xi^2} = t^2 Delta - sum_{a>0} c_a (c_a + t) <a,a> / <a,x>^2."""
    rs = cfg.rs
    n = rs.dim
    t = cfg.t
    op = DiffOp.zero(n, t)
    for i in range(n):
        m = tuple(2 if j == i else 0 for j in range(n))
        op = op + DiffOp(n, t, {(SignedPerm.identity(n), m): Const(1.0 + 0j)})
    parts = []
    for a in rs.pos_roots:
        ca = cfg.coupling(a)
        inv = inv_form(a)
        parts.append((-ca * (ca + t) * dot(a, a)) * (inv * inv))
    return op + DiffOp.from_field(n, t, nsum(parts))


def lax_pair_rational(cfg, xi=None, poly=((0.5, 2),)) -> LaxPair:
    """Quantum Lax pair (L, A, H) of size |W/W'| for the stabilizer of xi.

    The default q = xi^2/2 gives H = L_{xi^2}/2 and the textbook-normalized
    pair; [L, H 1] = [A, L] holds by construction and is re-checked by the
    harness.
    """
    rs = cfg.rs
    if xi is None:
        xi = ext_coord(rs.dim, 0)
    tbl = orbit_stabilizer(rs, xi)
    qy, L_q, _A_hat = cm_split(cfg, poly)
    return lax_pair(tbl, dunkl(cfg, xi).restrict(tbl), qy, L_q)


def qlp_reference_matrices(cfg, tbl):
    """Entry formulas of the small type-A pair: off-diagonal c/(x_k - x_l),
    diagonal t d_k for L; -ct/(x_k-x_l)^2 off-diagonal for A."""
    rs = cfg.rs
    n = rs.dim
    m = tbl.m
    c = cfg.c_short
    t = cfg.t
    Lrows, Arows = [], []
    for k in range(m):
        Lrow, Arow = [], []
        for l in range(m):
            if k == l:
                Lrow.append(DiffOp.partial(n, t, k))
                diag_parts = []
                for j in range(m):
                    if j != k:
                        iv = inv_form(ext_form(n, j, k))
                        diag_parts.append((c * t) * (iv * iv))
                Arow.append(DiffOp.from_field(n, t, nsum(diag_parts)))
            else:
                iv = inv_form(ext_form(n, k, l))
                Lrow.append(DiffOp.from_field(n, t, c * iv))
                Arow.append(DiffOp.from_field(n, t, (-c * t) * (iv * iv)))
        Lrows.append(Lrow)
        Arows.append(Arow)
    return OperatorMatrix(Lrows), OperatorMatrix(Arows)


def position_matrix(cfg, tbl):
    """Restriction of multiplication by x_1: diag(x_1, ..., x_n) in type A."""
    n = cfg.rs.dim
    x1 = DiffOp.from_field(n, cfg.t, linear_form(ext_coord(n, 0)))
    return x1.restrict(tbl)


def kks_matrices(cfg, tbl):
    """Both sides of X L - L X + (c + t) 1 = c * ones (type A, xi = e_1)."""
    y1 = dunkl(cfg, ext_coord(cfg.rs.dim, 0))
    Lmat = y1.restrict(tbl)
    Xmat = position_matrix(cfg, tbl)
    n = cfg.rs.dim
    m = tbl.m
    lhs = Xmat * Lmat - Lmat * Xmat
    const = DiffOp.from_field(n, cfg.t, Const(cfg.c_short + cfg.t))
    lhs = lhs + OperatorMatrix.diagonal(const, m)
    ones = OperatorMatrix([[DiffOp.from_field(n, cfg.t, Const(cfg.c_short + 0j))
                            for _ in range(m)] for _ in range(m)])
    return lhs, ones


def classical_a_matrix(cfg):
    """Classical A-partner of the Moser matrix: minus the t-coefficient of the
    quantum A, which is -A_hat restricted to M' at t = 1 because the split of
    <y,y>/2 is linear in t off the identity.  It does not depend on cfg.t."""
    tbl = orbit_stabilizer(cfg.rs, ext_coord(cfg.rs.dim, 0))
    _qy, _L, A_hat = cm_split(replace(cfg, t=1.0), ((0.5, 2),))
    return A_hat.restrict(tbl).scale(-1.0)
