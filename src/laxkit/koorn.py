"""Noumi representation of the C-vee-C_n affine Hecke algebra and the
2n x 2n Koornwinder--van Diejen Lax matrix L = P Q.

Five parameters (tau0, tau0v, taun, taunv, tau) enter through the kernels
a, b (difference roots), u, v (doubled roots) and u~, v~ (odd-level doubled
roots).  Y_1 restricted to M' factorizes as P Q with P carrying the finite
reflection data and Q the single shift; the Koornwinder operator is the
collapse of sum_i (Y_i + Y_i^{-1}).
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

from .fields import Const, Field, LinArg, nsum
from .opcore import OperatorMatrix, WOp
from .special import trig_ab, u_fun, ut_fun
from .weyl import SignedPerm, build_root_system, orbit_stabilizer


@dataclass
class CCnParams:
    n: int
    tau0: complex
    tau0v: complex
    taun: complex
    taunv: complex
    tau: complex
    c: complex
    beta: float = 1.0

    @property
    def q(self):
        return cmath.exp(self.c)

    def taus(self):
        return [self.tau0] + [self.tau] * (self.n - 1) + [self.taun]


def ext_coeffs(idx, n):
    """Coefficient vector of the extended coordinate x_idx (1-based,
    x_{n+i} = -x_i)."""
    out = [0.0] * n
    if idx <= n:
        out[idx - 1] = 1.0
    else:
        out[idx - n - 1] = -1.0
    return tuple(out)


def ext_sum(i, j, n, si=1.0, sj=1.0):
    a = ext_coeffs(i, n)
    b = ext_coeffs(j, n)
    return tuple(si * u + sj * v for u, v in zip(a, b))


def _kernel(fn, form, const=0j):
    return LinArg(fn, form, const)


def a_ext(p: CCnParams, i, j) -> Field:
    """a(x_i - x_j) in extended indices."""
    tau = p.tau
    return _kernel(lambda z: trig_ab(z, tau)[0], ext_sum(i, j, p.n, 1.0, -1.0))


def b_ext(p: CCnParams, i, j) -> Field:
    tau = p.tau
    return _kernel(lambda z: trig_ab(z, tau)[1], ext_sum(i, j, p.n, 1.0, -1.0))


def a_plus(p, i, j) -> Field:
    tau = p.tau
    return _kernel(lambda z: trig_ab(z, tau)[0], ext_sum(i, j, p.n, 1.0, 1.0))


def b_plus(p, i, j) -> Field:
    tau = p.tau
    return _kernel(lambda z: trig_ab(z, tau)[1], ext_sum(i, j, p.n, 1.0, 1.0))


def a_mm(p, i, j) -> Field:
    """a(-x_i - x_j)."""
    tau = p.tau
    return _kernel(lambda z: trig_ab(z, tau)[0], ext_sum(i, j, p.n, -1.0, -1.0))


def u_ext(p, i, q_level=0) -> Field:
    """u(x_i) (even kernel) or u~(x_i) (odd kernel) in extended indices."""
    if q_level == 0:
        tn, tnv = p.taun, p.taunv
        return _kernel(lambda z: u_fun(z, tn, tnv), ext_coeffs(i, p.n))
    t0, t0v, q = p.tau0, p.tau0v, p.q
    return _kernel(lambda z: ut_fun(z, t0, t0v, q), ext_coeffs(i, p.n))


def v_ext(p, i, q_level=0) -> Field:
    if q_level == 0:
        return nsum([Const(p.taun + 0j), -u_ext(p, i, 0)])
    return nsum([Const(p.tau0 + 0j), -u_ext(p, i, 1)])


# -- Noumi generators ----------------------------------------------------

def noumi_rep(p: CCnParams, classical=False):
    """Realized T_0 .. T_n; T_i = tau_i + c_{a_i}(s_i - 1)."""
    n = p.n
    c = 0.0 if classical else p.c
    q = 1.0 if classical else p.q
    gens = []
    # T_0: a_0 = delta - 2 e_1, s_0 = (s_1, e_1), kernel u~(-x_1)
    t0, t0v = p.tau0, p.tau0v
    ker0 = _kernel(lambda z: ut_fun(z, t0, t0v, q),
                   tuple(-1.0 if k == 0 else 0.0 for k in range(n)))
    e1 = tuple(1 if k == 0 else 0 for k in range(n))
    gens.append(WOp(n, c, {(SignedPerm.identity(n), (0,) * n): nsum([Const(p.tau0 + 0j), -ker0]),
                           (SignedPerm.sign_flip(n, 0), e1): ker0}))
    tau = p.tau
    for i in range(1, n):
        ker = _kernel(lambda z: trig_ab(z, tau)[0], ext_sum(i, i + 1, n, 1.0, -1.0))
        gens.append(WOp(n, c, {(SignedPerm.identity(n), (0,) * n): nsum([Const(tau + 0j), -ker]),
                               (SignedPerm.transposition(n, i - 1, i), (0,) * n): ker}))
    tn, tnv = p.taun, p.taunv
    kern = _kernel(lambda z: u_fun(z, tn, tnv),
                   tuple(1.0 if k == n - 1 else 0.0 for k in range(n)))
    gens.append(WOp(n, c, {(SignedPerm.identity(n), (0,) * n): nsum([Const(p.taun + 0j), -kern]),
                           (SignedPerm.sign_flip(n, n - 1), (0,) * n): kern}))
    return gens


def hecke_inv(T: WOp, tau_i) -> WOp:
    return T - WOp.from_scalar(T.n, T.c, tau_i - 1.0 / tau_i)


def y_operator(p: CCnParams, i, classical=False) -> WOp:
    """Y_i = T_i ... T_{n-1} T_n T_{n-1} ... T_1 T_0 T_1^{-1} ... T_{i-1}^{-1}."""
    n = p.n
    Ts = noumi_rep(p, classical=classical)
    taus = [p.tau0] + [p.tau] * (n - 1) + [p.taun]
    out = None
    for k in range(i, n):
        out = Ts[k] if out is None else out * Ts[k]
    out = Ts[n] if out is None else out * Ts[n]
    for k in range(n - 1, 0, -1):
        out = out * Ts[k]
    out = out * Ts[0]
    for k in range(1, i):
        out = out * hecke_inv(Ts[k], taus[k])
    return out


def y_inverse(p: CCnParams, i, classical=False) -> WOp:
    n = p.n
    Ts = noumi_rep(p, classical=classical)
    taus = [p.tau0] + [p.tau] * (n - 1) + [p.taun]
    factors = []
    for k in range(i, n):
        factors.append((k, False))
    factors.append((n, False))
    for k in range(n - 1, 0, -1):
        factors.append((k, False))
    factors.append((0, False))
    for k in range(1, i):
        factors.append((k, True))
    out = None
    for k, inverted in reversed(factors):
        op = hecke_inv(Ts[k], taus[k]) if not inverted else Ts[k]
        out = op if out is None else out * op
    return out


# -- R-matrix product form of Y_1 ----------------------------------------

def r_diff(p, i, j, classical=False) -> WOp:
    n = p.n
    c = 0.0 if classical else p.c
    return WOp(n, c, {(SignedPerm.identity(n), (0,) * n): a_ext(p, i, j),
                      (SignedPerm.transposition(n, i - 1, j - 1), (0,) * n): b_ext(p, i, j)})


def r_sum(p, i, j, classical=False) -> WOp:
    n = p.n
    c = 0.0 if classical else p.c
    return WOp(n, c, {(SignedPerm.identity(n), (0,) * n): a_plus(p, i, j),
                      (SignedPerm.neg_transposition(n, i - 1, j - 1), (0,) * n): b_plus(p, i, j)})


def r_two_e1(p, classical=False) -> WOp:
    n = p.n
    c = 0.0 if classical else p.c
    return WOp(n, c, {(SignedPerm.identity(n), (0,) * n): u_ext(p, 1, 0),
                      (SignedPerm.sign_flip(n, 0), (0,) * n): v_ext(p, 1, 0)})


def r_odd_shift(p, classical=False) -> WOp:
    """R(delta + 2 e_1) t(e_1) = u~_1 t(e_1) + v~_1 s_1."""
    n = p.n
    c = 0.0 if classical else p.c
    e1 = tuple(1 if k == 0 else 0 for k in range(n))
    return WOp(n, c, {(SignedPerm.identity(n), e1): u_ext(p, 1, 1),
                      (SignedPerm.sign_flip(n, 0), (0,) * n): v_ext(p, 1, 1)})


def y1_product(p: CCnParams, classical=False) -> WOp:
    """Y_1 = R_{12}...R_{1n} R(2e_1) R^+_{1n}...R^+_{12} R(delta+2e_1) t(e_1)."""
    n = p.n
    out = None
    for j in range(2, n + 1):
        R = r_diff(p, 1, j, classical=classical)
        out = R if out is None else out * R
    R2 = r_two_e1(p, classical=classical)
    out = R2 if out is None else out * R2
    for j in range(n, 1, -1):
        out = out * r_sum(p, 1, j, classical=classical)
    return out * r_odd_shift(p, classical=classical)


# -- closed forms ----------------------------------------------------------

def abcd_coeffs(p: CCnParams):
    """A, B, C_i, D_i of the restriction of the three-factor product."""
    n = p.n
    A = u_ext(p, 1, 0)
    for l in range(2, n + 1):
        A = A * a_ext(p, 1, l) * a_plus(p, 1, l)
    Cs, Ds = {}, {}
    for i in range(2, n + 1):
        C = u_ext(p, i, 0) * b_ext(p, 1, i) * a_plus(p, 1, i)
        D = u_ext(p, n + i, 0) * b_plus(p, 1, i) * a_ext(p, 1, i)
        for l in range(2, n + 1):
            if l != i:
                C = C * a_ext(p, i, l) * a_plus(p, i, l)
                D = D * a_mm(p, l, i) * a_ext(p, l, i)
        Cs[i] = C
        Ds[i] = D
    const = (p.tau ** (2 * n - 2)) * p.taun
    B = nsum([Const(const + 0j), -A] + [-Cs[i] for i in Cs] + [-Ds[i] for i in Ds])
    return A, B, Cs, Ds


def abcd_operator(p: CCnParams) -> WOp:
    """Z = A + B s_1 + sum_i (C_i s_{1i} + D_i s^+_{1i})."""
    n = p.n
    A, B, Cs, Ds = abcd_coeffs(p)
    terms = {(SignedPerm.identity(n), (0,) * n): A,
             (SignedPerm.sign_flip(n, 0), (0,) * n): B}
    op = WOp(n, p.c, terms)
    for i in range(2, n + 1):
        op += WOp(n, p.c, {(SignedPerm.transposition(n, 0, i - 1), (0,) * n): Cs[i]})
        op += WOp(n, p.c, {(SignedPerm.neg_transposition(n, 0, i - 1), (0,) * n): Ds[i]})
    return op


def middle_product(p: CCnParams) -> WOp:
    """R_{12}...R_{1n} R(2e_1) R^+_{1n}...R^+_{12} (the first three factors)."""
    n = p.n
    out = None
    for j in range(2, n + 1):
        R = r_diff(p, 1, j)
        out = R if out is None else out * R
    R2 = r_two_e1(p)
    out = R2 if out is None else out * R2
    for j in range(n, 1, -1):
        out = out * r_sum(p, 1, j)
    return out


def _excluded(l, i, j, n):
    return (l - i) % (2 * n) in (0, n) or (l - j) % (2 * n) in (0, n)


def excluded_indices(i, j, n):
    """The l in 1..2n dropped by the primed product of the P-matrix."""
    return [l for l in range(1, 2 * n + 1) if _excluded(l, i, j, n)]


def p_matrix(p: CCnParams, classical=False) -> OperatorMatrix:
    """The 2n x 2n matrix P of Prop. (lmct) entry formulas."""
    n = p.n
    m = 2 * n
    c = 0.0 if classical else p.c
    rows = []
    for i in range(1, m + 1):
        row = []
        for j in range(1, m + 1):
            if (i - j) % m in (0, n) and i != j:
                row.append(None)  # constraint column, filled after
                continue
            if i == j:
                f = u_ext(p, i, 0)
            else:
                f = u_ext(p, j, 0) * b_ext(p, i, j) * a_plus(p, i, j)
            for l in range(1, m + 1):
                if not _excluded(l, i, j, n):
                    f = f * a_ext(p, j, l)
            row.append(WOp.from_field(n, c, f))
        rows.append(row)
    const = (p.tau ** (2 * n - 2)) * p.taun
    for i in range(m):
        for j in range(m):
            if rows[i][j] is None:
                acc = WOp.from_scalar(n, c, const)
                for l in range(m):
                    if l != j:
                        acc = acc - rows[i][l]
                rows[i][j] = acc
    return OperatorMatrix(rows)


def q_matrix(p: CCnParams, classical=False) -> OperatorMatrix:
    """Q: diagonal u~_i t(e_i), anti-diagonal v~_i, zero elsewhere."""
    n = p.n
    m = 2 * n
    c = 0.0 if classical else p.c
    qlev = 1
    rows = []
    for i in range(1, m + 1):
        row = []
        lam = ext_coeffs(i, n)
        lam = tuple(int(v) for v in lam)
        for j in range(1, m + 1):
            if i == j:
                if classical:
                    row.append(WOp(n, c, {(SignedPerm.identity(n), lam):
                                          _uclassical(p, i)}))
                else:
                    row.append(WOp(n, c, {(SignedPerm.identity(n), lam):
                                          u_ext(p, i, qlev)}))
            elif (i - j) % m == n:
                f = _vclassical(p, i) if classical else v_ext(p, i, qlev)
                row.append(WOp.from_field(n, c, f))
            else:
                row.append(WOp.zero(n, c))
        rows.append(row)
    return OperatorMatrix(rows)


def _uclassical(p, i):
    t0, t0v = p.tau0, p.tau0v
    return _kernel(lambda z: ut_fun(z, t0, t0v, 1.0), ext_coeffs(i, p.n))


def _vclassical(p, i):
    return nsum([Const(p.tau0 + 0j), -_uclassical(p, i)])


@dataclass
class KoornLax:
    params: CCnParams
    tbl: object
    P: OperatorMatrix
    Q: OperatorMatrix
    L: OperatorMatrix
    H: WOp
    A: OperatorMatrix
    Y1: WOp


def koornwinder_table(p: CCnParams):
    rs = build_root_system("C", p.n)
    e1 = tuple(1 if i == 0 else 0 for i in range(p.n))
    _o, _s, tbl = orbit_stabilizer(rs, e1)
    return tbl


def koornwinder_hamiltonian(p: CCnParams, classical=False) -> WOp:
    """Koornwinder operator: collapse of sum_i (Y_i + Y_i^{-1})."""
    total = None
    for i in range(1, p.n + 1):
        term = y_operator(p, i, classical=classical) + y_inverse(p, i, classical=classical)
        total = term if total is None else total + term
    return total.collapse(), total


def koornwinder_lax(p: CCnParams) -> KoornLax:
    tbl = koornwinder_table(p)
    Y1 = y1_product(p)
    P = p_matrix(p)
    Q = q_matrix(p)
    H, fY = koornwinder_hamiltonian(p)
    Ahat = fY - H
    return KoornLax(params=p, tbl=tbl, P=P, Q=Q, L=P * Q, H=H,
                    A=Ahat.restrict(tbl), Y1=Y1)


def phi_vector_ccn(p: CCnParams):
    """phi_i = u_i^- prod_{l != i} a_{li} a^-_{li}; phi_{n+i} = u_i prod a^+_{li} a_{il}."""
    n = p.n
    out = []
    for i in range(1, n + 1):
        f = u_ext(p, n + i, 0)
        for l in range(1, n + 1):
            if l != i:
                f = f * a_ext(p, l, i) * a_mm(p, l, i)
        out.append(f)
    for i in range(1, n + 1):
        f = u_ext(p, i, 0)
        for l in range(1, n + 1):
            if l != i:
                f = f * a_plus(p, l, i) * a_ext(p, i, l)
        out.append(f)
    return out


def integrals_ccn(lax: KoornLax, kmax=3):
    phis = phi_vector_ccn(lax.params)
    out = []
    Lk = lax.L
    for _k in range(1, kmax + 1):
        acc = None
        for i in range(Lk.m):
            for j in range(Lk.m):
                term = Lk.entries[i][j].mul_field_left(phis[i])
                acc = term if acc is None else acc + term
        out.append(acc)
        if _k < kmax:
            Lk = Lk * lax.L
    return out


# -- classical limit -------------------------------------------------------

def classical_pq(p: CCnParams):
    """Phase-field entries of the classical L = P Q (q = 1, t -> e^{beta p})."""
    Lc = p_matrix(p, classical=True) * q_matrix(p, classical=True)
    return [[e.phase_field(p.beta) for e in row] for row in Lc.entries]


def classical_hamiltonian_ccn(p: CCnParams):
    Hc, _f = koornwinder_hamiltonian(p, classical=True)
    return Hc.phase_field(p.beta)
