"""Elliptic Dunkl operators and spectral-parameter Lax pairs for the
elliptic Calogero-Moser (type A) and Inozemtsev (BC_n) systems.

The dynamical vector lambda enters through the kernels sigma_{<a^vee,
lambda>}(<a, x>); specializing lambda = (mu, 0, ..., 0) makes mu a spectral
parameter and turns the quadratic split <y,y> - const = H + A into a Lax
pair on M' after dropping scalar terms (which are retained internally so
the split closes exactly).  The Planck constant t is the only flavor
switch: the classical Lax matrices and Hamiltonians are the same operators
built at t = 0, where (t d)_k reads as p_k in their ``phase_field``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .fields import Const, Field, LinArg, nsum
from .opcore import DiffOp, LaxPair, OperatorMatrix
from .special import (dual_couplings, eta1, half_periods, sigma_dz_form,
                      sigma_form, v_dz_kernel, v_kernel, wp, wp_kernel)
from .weyl import (RootSystemData, SignedPerm, build_root_system, dot,
                   ext_coord, ext_form, orbit_stabilizer, same_coord)


@dataclass
class EllipticDunklConfig:
    rs: RootSystemData
    t: complex
    c: complex
    tau: complex
    lam: tuple
    g: tuple = None          # (g0..g3) for the BC/Inozemtsev flavor

    @property
    def bc(self):
        """BC flavor: v-kernel sign-flip terms instead of reduced 2e_i roots."""
        return self.g is not None


def wp_form(form, tau, const=0j) -> Field:
    return LinArg(wp_kernel(tau), form, const)


def v_form(mu, form, g, tau) -> Field:
    return LinArg(v_kernel(mu, g, tau), form)


def v_dz_form(mu, form, g, tau) -> Field:
    return LinArg(v_dz_kernel(mu, g, tau), form)


def elliptic_dunkl(cfg: EllipticDunklConfig, i) -> DiffOp:
    """y_i(lambda); the BC flavor has the v-kernel on sign flips."""
    rs = cfg.rs
    n = rs.dim
    t = cfg.t
    tau = cfg.tau
    lam = cfg.lam
    op = DiffOp.partial(n, t, i)
    xi = ext_coord(n, i)
    if not cfg.bc:
        for a in rs.pos_roots:
            ax = dot(a, xi)
            if ax == 0:
                continue
            av = rs.coroot(a)
            mu = sum(v * l for v, l in zip(av, lam))
            ker = (cfg.c * ax) * sigma_form(mu, a, tau)
            op = op + DiffOp(n, t, {(rs.reflection(a), (0,) * n): ker})
        return op
    # Inozemtsev flavor: v_{lam_i}(x_i) s_i + c sum_j (sigma terms)
    op = op + DiffOp(n, t, {(SignedPerm.sign_flip(n, i), (0,) * n):
                               v_form(lam[i], xi, cfg.g, tau)})
    for j in range(n):
        if j == i:
            continue
        op = op + DiffOp(n, t, {(SignedPerm.transposition(n, i, j), (0,) * n):
                                   cfg.c * sigma_form(lam[i] - lam[j], ext_form(n, i, j), tau)})
        op = op + DiffOp(n, t, {(SignedPerm.neg_transposition(n, i, j), (0,) * n):
                                   cfg.c * sigma_form(lam[i] + lam[j], ext_form(n, i, j, 1), tau)})
    return op


def quadratic_sum(cfg) -> DiffOp:
    out = None
    for i in range(cfg.rs.dim):
        y = elliptic_dunkl(cfg, i)
        y2 = y * y
        out = y2 if out is None else out + y2
    return out


def split_constant(cfg) -> complex:
    """The lambda-dependent scalar subtracted from <y,y> (or <y,y>/2)."""
    rs = cfg.rs
    tau = cfg.tau
    lam = cfg.lam
    if not cfg.bc:
        total = 0j
        for a in rs.pos_roots:
            av = rs.coroot(a)
            mu = sum(v * l for v, l in zip(av, lam))
            total += cfg.c ** 2 * dot(a, a) * wp(mu, tau)
        return 0.5 * total
    n = rs.dim
    gv = dual_couplings(cfg.g)
    om = half_periods(tau)
    total = 0j
    for i in range(n):
        for j in range(i + 1, n):
            total += 2 * cfg.c ** 2 * (wp(lam[i] - lam[j], tau) + wp(lam[i] + lam[j], tau))
    for i in range(n):
        for r in range(4):
            total += gv[r] ** 2 * wp(lam[i] + om[r], tau)
    return total


def split_hamiltonian(cfg) -> DiffOp:
    """The lambda-free H of the quadratic split (A: with 1/2, BC: without)."""
    rs = cfg.rs
    n = rs.dim
    tau = cfg.tau
    t = cfg.t
    op = DiffOp.zero(n, t)
    for i in range(n):
        m = tuple(2 if k == i else 0 for k in range(n))
        op = op + DiffOp(n, t, {(SignedPerm.identity(n), m):
                                Const((1.0 if cfg.bc else 0.5) + 0j)})
    parts = []
    if not cfg.bc:
        for a in rs.pos_roots:
            parts.append((-0.5 * cfg.c * (cfg.c + t) * dot(a, a)) * wp_form(a, tau))
        return op + DiffOp.from_field(n, t, nsum(parts))
    om_shift = half_periods(tau)
    for i in range(n):
        for j in range(i + 1, n):
            parts.append((-2 * cfg.c * (cfg.c + t)) * (wp_form(ext_form(n, i, j), tau)
                                                       + wp_form(ext_form(n, i, j, 1), tau)))
    for i in range(n):
        for r in range(4):
            gr = cfg.g[r]
            parts.append((-gr * (gr + t)) * wp_form(ext_coord(n, i), tau, om_shift[r]))
    return op + DiffOp.from_field(n, t, nsum(parts))


def split_a_operator(cfg) -> DiffOp:
    """A-hat of the quadratic split, with sigma'-terms replaced by their
    limits on lambda-stabilized root pairs (exact, constants retained)."""
    rs = cfg.rs
    n = rs.dim
    tau = cfg.tau
    t = cfg.t
    e1 = eta1(tau)
    op = DiffOp.zero(n, t)
    if not cfg.bc:
        for a in rs.pos_roots:
            av = rs.coroot(a)
            mu = sum(v * l for v, l in zip(av, cfg.lam))
            s = rs.reflection(a)
            pref = 0.5 * t * cfg.c * dot(a, a)
            if pref == 0:
                continue
            if abs(mu) < 1e-12:
                # sigma'_0(z) s -> (-wp(z) - 2 eta1) s
                op = op + DiffOp(n, t, {(SignedPerm.identity(n), (0,) * n): pref * wp_form(a, tau),
                                        (s, (0,) * n): pref * nsum([-wp_form(a, tau),
                                                                    Const(-2 * e1)])})
            else:
                op = op + DiffOp(n, t, {(SignedPerm.identity(n), (0,) * n): pref * wp_form(a, tau),
                                        (s, (0,) * n): pref * sigma_dz_form(mu, a, tau)})
        return op
    lam = cfg.lam
    om_shift = half_periods(tau)
    for i in range(n):
        for j in range(i + 1, n):
            for form, mu, s in ((ext_form(n, i, j), lam[i] - lam[j],
                                 SignedPerm.transposition(n, i, j)),
                                (ext_form(n, i, j, 1), lam[i] + lam[j],
                                 SignedPerm.neg_transposition(n, i, j))):
                pref = 2 * cfg.c * t
                if pref == 0:
                    continue
                if abs(mu) < 1e-12:
                    op = op + DiffOp(n, t, {(SignedPerm.identity(n), (0,) * n): pref * wp_form(form, tau),
                                            (s, (0,) * n): pref * nsum([-wp_form(form, tau),
                                                                        Const(-2 * e1)])})
                else:
                    op = op + DiffOp(n, t, {(SignedPerm.identity(n), (0,) * n): pref * wp_form(form, tau),
                                            (s, (0,) * n): pref * sigma_dz_form(mu, form, tau)})
    for i in range(n):
        xi = ext_coord(n, i)
        parts = [(t * cfg.g[r]) * wp_form(xi, tau, om_shift[r]) for r in range(4)]
        op = op + DiffOp.from_field(n, t, nsum(parts))
        if abs(lam[i]) < 1e-12:
            ker = nsum([(-t * cfg.g[r]) * wp_form(xi, tau, om_shift[r])
                        for r in range(4)] + [Const(-2 * e1 * t * sum(cfg.g))])
        else:
            ker = t * v_dz_form(lam[i], xi, cfg.g, tau)
        op = op + DiffOp(n, t, {(SignedPerm.sign_flip(n, i), (0,) * n): ker})
    return op


def dual_substitution(cfg: EllipticDunklConfig) -> DiffOp:
    """L_q^vee(y(lambda), lambda), the left side of the quadratic split
    L_q^vee = split_hamiltonian + split_a_operator: (1/2)<y,y> - (1/2) sum
    c^2 <a,a> wp(<a^vee,lambda>) in type A, and <y,y> minus its dual-coupled
    constant in the BC flavor.  At t = 0 its symbol is the regularity probe:
    the classical CM Hamiltonian on the identity component and 0 off it, for
    every lambda."""
    scale = 0.5 if not cfg.bc else 1.0
    return (quadratic_sum(cfg).scale(scale)
            - DiffOp.from_field(cfg.rs.dim, cfg.t, Const(split_constant(cfg))))


# -- type A Lax pair -------------------------------------------------------

def lax_elliptic_A(n, t, c, mu, tau) -> LaxPair:
    """Spectral-parameter Lax pair from y_1 at lambda = (mu, 0, ..., 0)."""
    rs = build_root_system("A", n)
    lam = (mu,) + (0,) * (n - 1)
    cfg = EllipticDunklConfig(rs, t, c, tau, lam)
    tbl = orbit_stabilizer(rs, ext_coord(n, 0))
    y1 = elliptic_dunkl(cfg, 0)
    Lmat = y1.restrict(tbl)
    # A-hat on M': c t sum_j (wp(x_1j) + sigma'_mu(x_1j) s_1j), constants dropped
    Ahat = DiffOp.zero(n, t)
    for j in range(1, n):
        form = ext_form(n, 0, j)
        Ahat = Ahat + DiffOp(n, t, {(SignedPerm.identity(n), (0,) * n): (cfg.c * t) * wp_form(form, tau),
                                    (SignedPerm.transposition(n, 0, j), (0,) * n): (cfg.c * t) * sigma_dz_form(mu, form, tau)})
    return LaxPair(tbl, Lmat, Ahat.restrict(tbl), split_hamiltonian(cfg))


def ael_tables(n, t, c, mu, tau):
    """Explicit (size n) matrices: L off-diag c sigma_mu(x_k - x_l), diag t d_k;
    A off-diag c t sigma'_mu, diag c t sum_j wp(x_j - x_k)."""
    Lrows, Arows = [], []
    for k in range(n):
        Lrow, Arow = [], []
        for l in range(n):
            if k == l:
                Lrow.append(DiffOp.partial(n, t, k))
                parts = []
                for j in range(n):
                    if j != k:
                        parts.append(wp_form(ext_form(n, j, k), tau))
                Arow.append(DiffOp.from_field(n, t, (c * t) * nsum(parts)))
            else:
                form = ext_form(n, k, l)
                Lrow.append(DiffOp.from_field(n, t, c * sigma_form(mu, form, tau)))
                Arow.append(DiffOp.from_field(n, t, (c * t) * sigma_dz_form(mu, form, tau)))
        Lrows.append(Lrow)
        Arows.append(Arow)
    return OperatorMatrix(Lrows), OperatorMatrix(Arows)


# -- Inozemtsev (BC_n) ------------------------------------------------------

def lax_inozemtsev(n, t, c, g, mu, tau):
    """2n x 2n quantum Lax pair for the Inozemtsev system at lambda = (mu, 0..0)."""
    rs = build_root_system("C", n)
    lam = (mu,) + (0,) * (n - 1)
    cfg = EllipticDunklConfig(rs, t, c, tau, lam, g=tuple(g))
    tbl = orbit_stabilizer(rs, ext_coord(n, 0))
    y1 = elliptic_dunkl(cfg, 0)
    Lmat = y1.restrict(tbl)
    om_shift = half_periods(tau)
    x1 = ext_coord(n, 0)
    Ahat = DiffOp.zero(n, t)
    for j in range(1, n):
        dform, sform = ext_form(n, 0, j), ext_form(n, 0, j, 1)
        Ahat = Ahat + DiffOp(n, t, {
            (SignedPerm.identity(n), (0,) * n):
                (2 * c * t) * (wp_form(dform, tau) + wp_form(sform, tau)),
            (SignedPerm.transposition(n, 0, j), (0,) * n): (2 * c * t) * sigma_dz_form(mu, dform, tau),
            (SignedPerm.neg_transposition(n, 0, j), (0,) * n): (2 * c * t) * sigma_dz_form(mu, sform, tau)})
    parts = [(t * g[r]) * wp_form(x1, tau, om_shift[r]) for r in range(4)]
    Ahat = Ahat + DiffOp.from_field(n, t, nsum(parts))
    Ahat = Ahat + DiffOp(n, t, {(SignedPerm.sign_flip(n, 0), (0,) * n):
                                t * v_dz_form(mu, x1, g, tau)})
    return LaxPair(tbl, Lmat, Ahat.restrict(tbl), split_hamiltonian(cfg))


def inozemtsev_tables(n, t, c, g, mu, tau):
    """Explicit 2n x 2n tables of the Inozemtsev pair (extended indices)."""
    m = 2 * n
    om_shift = half_periods(tau)
    Lrows, Arows = [], []
    for i in range(m):
        Lrow, Arow = [], []
        fi = ext_coord(n, i)
        for j in range(m):
            if i == j:
                sign = 1.0 if i < n else -1.0
                Lrow.append(DiffOp.partial(n, t, i % n, sign))
                parts = [wp_form(ext_form(n, i, l), tau) for l in range(m)
                         if not same_coord(n, l, i)]
                acc = (2 * c * t) * nsum(parts)
                acc = nsum([acc] + [(t * g[r]) * wp_form(fi, tau, om_shift[r])
                                    for r in range(4)])
                Arow.append(DiffOp.from_field(n, t, acc))
            elif (i - j) % m == n:
                Lrow.append(DiffOp.from_field(n, t, v_form(mu, fi, g, tau)))
                Arow.append(DiffOp.from_field(n, t, t * v_dz_form(mu, fi, g, tau)))
            else:
                diff = ext_form(n, i, j)
                Lrow.append(DiffOp.from_field(n, t, c * sigma_form(mu, diff, tau)))
                Arow.append(DiffOp.from_field(n, t, (2 * c * t) * sigma_dz_form(mu, diff, tau)))
        Lrows.append(Lrow)
        Arows.append(Arow)
    return OperatorMatrix(Lrows), OperatorMatrix(Arows)

