"""Affine Hecke basic representation, Cherednik operators, and the GL_n
trigonometric Ruijsenaars Lax pair.

Generators are realized as T_i = tau_i + c_i(x)(s_i - 1) with the standard
kernel c_a = (tau^-1 - tau e^a)/(1 - e^a); R-matrices are R(a) = T_a s_a,
inverted through the quadratic relation T^-1 = T - tau + tau^-1.  The GL_n
Cherednik operators Y_i then produce the Macdonald-Ruijsenaars operator,
the size-n quantum Lax pair, and the u L^k v integrals.
"""

from __future__ import annotations

import cmath

from .fields import Const, Field, LinArg, nsum
from .opcore import (LaxPair, OperatorMatrix, WOp, hecke_generator,
                     hecke_inverse, lax_pair)
from .special import hecke_kernel
from .weyl import (RootSystemData, SignedPerm, affine_reflection,
                   build_root_system, dot, ext_coord, ext_form, orbit_stabilizer)


class TrigGLConfig:
    def __init__(self, n, tau, c):
        self.n, self.tau, self.c = n, tau, c      # c: step constant, q = e^c

    @property
    def q(self):
        return cmath.exp(self.c)


def a_field(cfg, i, j) -> Field:
    """a(x_i - x_j), 1-based i, j."""
    return LinArg(hecke_kernel(cfg.tau, 0), ext_form(cfg.n, i - 1, j - 1))


def b_field(cfg, i, j, shift=0.0) -> Field:
    """b(x_i - x_j + shift), 1-based i, j."""
    return LinArg(hecke_kernel(cfg.tau, 1), ext_form(cfg.n, i - 1, j - 1), shift)


def _a_product(cfg, j, skip, start=None, flip=False) -> Field:
    """start * prod_{l not in skip} a(x_j - x_l), or a(x_l - x_j) if ``flip``,
    folded from the first factor in increasing l; 1 if nothing is left."""
    out = start
    for l in range(1, cfg.n + 1):
        if l not in skip:
            f = a_field(cfg, l, j) if flip else a_field(cfg, j, l)
            out = f if out is None else out * f
    return Const(1.0 + 0j) if out is None else out


def r_ij(cfg, i, j) -> WOp:
    """R_{ij} = a(x_i - x_j) + b(x_i - x_j) s_{ij}."""
    n = cfg.n
    s = SignedPerm.transposition(n, i - 1, j - 1)
    return WOp(n, cfg.c, {(SignedPerm.identity(n), (0,) * n): a_field(cfg, i, j),
                          (s, (0,) * n): b_field(cfg, i, j)})


def r_ij_inv(cfg, i, j) -> WOp:
    """Inverse via the quadratic relation: R^-1 = s (T - tau + tau^-1)."""
    n = cfg.n
    s_op = WOp.from_group(n, cfg.c, SignedPerm.transposition(n, i - 1, j - 1))
    return s_op * hecke_inverse(r_ij(cfg, i, j) * s_op, cfg.tau)


def translation_op(cfg, i) -> WOp:
    return WOp.translation(cfg.n, cfg.c, ext_coord(cfg.n, i - 1))


# -- general basic representation ---------------------------------------

def hecke_tau(rs: RootSystemData, alpha, tau_short, tau_long):
    return tau_long if (rs.kind == "C" and dot(alpha, alpha) == 4) else tau_short


def basic_rep(rs: RootSystemData, c, tau_short, tau_long=None):
    """Realized generators T_0..T_n of the affine Hecke algebra (reduced case)."""
    if tau_long is None:
        tau_long = tau_short
    n = rs.dim
    gens = []
    for ar in rs.affine_simple_roots():
        tau_a = hecke_tau(rs, ar.alpha, tau_short, tau_long)
        s_aff = affine_reflection(ar)
        kernel = LinArg(hecke_kernel(tau_a, 0), ar.alpha, ar.k * c)
        gens.append(hecke_generator(n, c, tau_a, kernel, s_aff.w, s_aff.lam))
    return gens


# -- GL_n Cherednik operators -------------------------------------------

def cherednik_gln(cfg, i) -> WOp:
    """Y_i = R_{i,i+1} ... R_{i,n} t(e_i) R_{1i}^-1 ... R_{i-1,i}^-1."""
    n = cfg.n
    out = None
    for j in range(i + 1, n + 1):
        R = r_ij(cfg, i, j)
        out = R if out is None else out * R
    ti = translation_op(cfg, i)
    out = ti if out is None else out * ti
    for j in range(1, i):
        out = out * r_ij_inv(cfg, j, i)
    return out


def mr_operator(cfg) -> WOp:
    """L_f for f = Y_1 + ... + Y_n: sum_i (prod_{l != i} a_il) t(e_i)."""
    n = cfg.n
    out = WOp.zero(n, cfg.c)
    for i in range(1, n + 1):
        out += WOp(n, cfg.c, {(SignedPerm.identity(n), ext_coord(n, i - 1)):
                              _a_product(cfg, i, {i})})
    return out


def lax_trig_gln(cfg) -> LaxPair:
    """Quantum Lax pair of size n for the trigonometric Ruijsenaars system."""
    n = cfg.n
    tbl = orbit_stabilizer(build_root_system("A", n), ext_coord(n, 0))
    Y1 = cherednik_gln(cfg, 1)
    fY = Y1
    for i in range(2, n + 1):
        fY = fY + cherednik_gln(cfg, i)
    return lax_pair(tbl, Y1.restrict(tbl), fY, mr_operator(cfg))


def lax_tables(cfg):
    """Closed-form L and A entries (the Nazarov-Sklyanin shaped matrices); at
    c = 0 the A entries are the derivative limit of the difference quotients."""
    n = cfg.n
    c = cfg.c
    Lrows, Arows = [], []
    for i in range(1, n + 1):
        Lrow, Arow = [], []
        for j in range(1, n + 1):
            key = (SignedPerm.identity(n), ext_coord(n, j - 1))
            if i == j:
                Lrow.append(WOp(n, c, {key: _a_product(cfg, j, {j})}))
                Arow.append(None)  # filled below as negative row sum
                continue
            base = _a_product(cfg, j, {i, j})
            Lrow.append(WOp(n, c, {key: base * b_field(cfg, i, j)}))
            if c == 0:
                # d b(x_i - x_j)/d x_j
                Arow.append(WOp(n, c, {key: base * -b_field(cfg, i, j).dz()}))
            else:
                # b_{ij} t(e_j) - t(e_j) b_{ij} = (b_ij - b_ij(x + c e_j)) t(e_j)
                diff = nsum([b_field(cfg, i, j), -b_field(cfg, i, j, shift=-c)])
                Arow.append(WOp(n, c, {key: base * diff}))
        Lrows.append(Lrow)
        Arows.append(Arow)
    for i in range(n):
        acc = None
        for j in range(n):
            if j != i:
                acc = Arows[i][j] if acc is None else acc + Arows[i][j]
        Arows[i][i] = acc.scale(-1.0)
    return OperatorMatrix(Lrows), OperatorMatrix(Arows)


def phi_vector(cfg):
    """phi_i = prod_{l != i} a_{li}: the row weights u of the integrals
    H_k = u L^k v (``opcore.integrals``)."""
    return [_a_product(cfg, i, {i}, flip=True) for i in range(1, cfg.n + 1)]


