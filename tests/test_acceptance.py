"""Acceptance criteria, one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
summary lines and timings.
"""

import cmath
import json
import random
import subprocess
import sys
import time

from laxkit.dual import value
from laxkit.opcore import OperatorMatrix, WOp, integrals, make_probes
from laxkit.verify import (PointPolicy, hamiltonian_flow, isospectral_drift,
                           matrix_fn_from_fields, op_residual, scaled_flow,
                           trace_powers)
from laxkit.weyl import build_root_system, orbit_stabilizer, replace
from support import fit_slope, poisson_residual, symbol_parts

TAU_ELL = 0.27 + 0.82j
C_STEP = 0.19 + 0.05j
G4 = (0.8 + 0.1j, -0.4 + 0.2j, 0.6 - 0.1j, 0.3 + 0.15j)
GB4 = (0.5 - 0.2j, 0.7 + 0.1j, -0.3 + 0.3j, 0.4 + 0j)

ELAPSED = {}


def report(num, desc, residual, tol, t0, budget=None):
    dt = time.time() - t0
    ELAPSED[num] = dt
    ok = residual < tol and (budget is None or dt < budget)
    line = (f"criterion {num:2d} [{'PASS' if ok else 'FAIL'}] {desc}: "
            f"residual {residual:.3e} (tol {tol:g}, {dt:.1f}s"
            + (f"/{budget:g}s" if budget else "") + ")")
    print(line)
    assert residual < tol, line
    if budget is not None:
        assert dt < budget, line
    return ok


def pts(n, count, seed, im=0.05, lo=-0.35, hi=0.35):
    rng = random.Random(seed)
    pol = PointPolicy(n, lo, hi, im)
    return [pol.draw(rng) for _ in range(count)]


def test_criterion_01_special_identities():
    t0 = time.time()
    from laxkit.special import dual_couplings, hecke, sigma, v_func, wp
    rng = random.Random(101)
    worst = 0.0
    tau = TAU_ELL
    gv = dual_couplings(G4)
    om = (0j, 0.5 + 0j, (1 + tau) / 2, tau / 2)
    got = 0
    while got < 10:
        z = complex(rng.uniform(-0.45, 0.45), rng.uniform(-0.08, 0.08))
        mu = complex(rng.uniform(-0.45, 0.45), rng.uniform(-0.08, 0.08))
        if min(abs(z), abs(mu), abs(z - mu), abs(z + mu), abs(z - 2 * mu)) < 0.07:
            continue
        got += 1
        lhs = sigma(mu, z, tau) * sigma(mu, -z, tau)
        rhs = wp(mu, tau) - wp(z, tau)
        worst = max(worst, abs(lhs - rhs) / (1 + abs(lhs) + abs(rhs)))
        worst = max(worst, abs(sigma(mu + 1, z, tau) - sigma(mu, z, tau))
                    / (1 + 2 * abs(sigma(mu, z, tau))))
        qp = cmath.exp(2j * cmath.pi * z) * sigma(mu, z, tau)
        worst = max(worst, abs(sigma(mu + tau, z, tau) - qp) / (1 + 2 * abs(qp)))
        lhs = v_func(mu, z, G4, tau) * v_func(mu, -z, G4, tau)
        rhs = sum(gv[r] ** 2 * wp(mu + om[r], tau) - G4[r] ** 2 * wp(z + om[r], tau)
                  for r in range(4))
        worst = max(worst, abs(lhs - rhs) / (1 + abs(lhs) + abs(rhs)))
        sym = -v_func(z, mu, gv, tau)
        worst = max(worst, abs(v_func(mu, z, G4, tau) - sym) / (1 + 2 * abs(sym)))
        th = 1.4 + 0.2j
        a, b = hecke(z, th, 0), hecke(z, th, 1)
        worst = max(worst, abs(a + b - th) / (1 + 2 * abs(th)))
    report(1, "special-function identity suite", worst, 1e-10, t0, budget=5.0)


def test_criterion_02_dunkl_commutativity_equivariance():
    t0 = time.time()
    from laxkit.rational import RationalDunklConfig, dunkl, dunkl_basis
    from laxkit.opcore import DiffOp
    worst = 0.0
    for kind, n in (("A", 3), ("A", 4), ("C", 2), ("C", 3)):
        rs = build_root_system(kind, n)
        cfg = RationalDunklConfig(rs, t=-0.7j, c_short=1.3j,
                                  c_long=0.9j if kind == "C" else None)
        probes = make_probes(n, 3, random.Random(200 + n))
        xs = pts(n, 5, 201 + n, im=0.2, lo=-0.9, hi=0.9)
        ys = dunkl_basis(cfg)
        for i in range(min(2, n)):
            for j in range(i + 1, min(3, n)):
                worst = max(worst, op_residual(ys[i] * ys[j] - ys[j] * ys[i], None,
                                               probes, xs))
        w = rs.reflection(rs.pos_roots[0])
        xi = tuple(1 if i == 0 else 0 for i in range(n))
        lhs = (DiffOp.from_group(n, cfg.t, w) * dunkl(cfg, xi)
               * DiffOp.from_group(n, cfg.t, w.inverse()))
        rhs = dunkl(cfg, w.apply_vec(xi))
        worst = max(worst, op_residual(lhs, rhs, probes, xs))
    report(2, "rational Dunkl commutativity/equivariance (A2,A3,C2,C3)",
           worst, 1e-9, t0, budget=30.0)


def test_criterion_03_rational_lax_and_qlp():
    t0 = time.time()
    import numpy as np
    from laxkit.rational import (RationalDunklConfig, lax_pair_rational,
                                 qlp_reference_matrices)
    worst = 0.0
    for kind, ns in (("A", (2, 3, 4)), ("C", (2, 3))):
        for n in ns:
            rs = build_root_system(kind, n)
            cfg = RationalDunklConfig(rs, t=-0.7j, c_short=1.3j,
                                      c_long=0.9j if kind == "C" else None)
            lax = lax_pair_rational(cfg)
            assert lax.L.m == (n if kind == "A" else 2 * n)
            probes = make_probes(n, 2, random.Random(300 + n))
            xs = pts(n, 4, 301 + n, im=0.2, lo=-0.9, hi=0.9)
            Hm = OperatorMatrix.diagonal(lax.H, lax.L.m)
            worst = max(worst, op_residual(lax.L * Hm - Hm * lax.L,
                                               lax.A * lax.L - lax.L * lax.A,
                                               probes, xs))
            if kind == "A":
                Lref, Aref = qlp_reference_matrices(cfg, lax.tbl)
                worst = max(worst, op_residual(lax.L, Lref, probes, xs))
                worst = max(worst, op_residual(lax.A, Aref, probes, xs))
                # classical Moser matrix (lp): ig/(x_k-x_l) off, p_k diagonal
                Lf = lax_pair_rational(replace(cfg, t=0.0)).L.phase_field()
                z = tuple([0.4 * i - 0.5 for i in range(n)]
                          + [0.1 * ((-1) ** i) for i in range(n)])
                Lv = np.array(matrix_fn_from_fields(Lf)(z))
                for k in range(n):
                    for l in range(n):
                        want = (z[n + k] if k == l
                                else 1.3j / (z[k] - z[l]))
                        worst = max(worst, abs(Lv[k][l] - want))
    report(3, "rational quantum Lax + exact qlp/lp match (A n<=4, C n<=3)",
           worst, 1e-9, t0, budget=60.0)


def test_criterion_04_hecke_braid_relations():
    t0 = time.time()
    from laxkit.trig import TrigGLConfig, basic_rep, braid_order
    from laxkit.koorn import CCnParams, noumi_rep
    worst = 0.0
    for n in (2, 3, 4):
        rs = build_root_system("A", n)
        cfg = TrigGLConfig(n=n, tau=1.4 + 0.2j, c=0.31 + 0.11j)
        Ts = basic_rep(rs, cfg.c, cfg.tau)
        probes = make_probes(n, 2, random.Random(400 + n))
        xs = pts(n, 4, 401 + n, im=0.15, lo=-0.9, hi=0.9)
        for T in Ts:
            quad = (T - WOp.from_scalar(n, cfg.c, cfg.tau)) * \
                   (T + WOp.from_scalar(n, cfg.c, 1 / cfg.tau))
            worst = max(worst, op_residual(quad, None, probes, xs))
        for i in range(len(Ts)):
            for j in range(i + 1, len(Ts)):
                m = braid_order(rs, i, j)
                if m is None:
                    continue
                lhs = rhs = WOp.one(n, cfg.c)
                for k in range(m):
                    lhs = lhs * (Ts[i] if k % 2 == 0 else Ts[j])
                    rhs = rhs * (Ts[j] if k % 2 == 0 else Ts[i])
                worst = max(worst, op_residual(lhs, rhs, probes, xs))
    for n in (2, 3):
        pp = CCnParams(n=n, tau0=1.2 + 0.1j, tau0v=0.8 - 0.05j, taun=1.5 + 0.2j,
                       taunv=0.7 + 0.1j, tau=1.3 - 0.15j, c=0.23 + 0.07j)
        Ts = noumi_rep(pp)
        taus = pp.taus()
        probes = make_probes(n, 2, random.Random(410 + n))
        xs = pts(n, 4, 411 + n, im=0.12, lo=-0.9, hi=0.9)
        for i, T in enumerate(Ts):
            quad = (T - WOp.from_scalar(n, pp.c, taus[i])) * \
                   (T + WOp.from_scalar(n, pp.c, 1 / taus[i]))
            worst = max(worst, op_residual(quad, None, probes, xs))
        for i in (0, n - 1):
            lhs = Ts[i] * Ts[i + 1] * Ts[i] * Ts[i + 1]
            rhs = Ts[i + 1] * Ts[i] * Ts[i + 1] * Ts[i]
            worst = max(worst, op_residual(lhs, rhs, probes, xs))
        if n == 3:
            lhs = Ts[1] * Ts[2] * Ts[1]
            rhs = Ts[2] * Ts[1] * Ts[2]
            worst = max(worst, op_residual(lhs, rhs, probes, xs))
            worst = max(worst, op_residual(Ts[0] * Ts[2], Ts[2] * Ts[0], probes, xs))
    report(4, "Hecke/braid: basic rep GL_n (n<=4) + Noumi rep (n<=3)",
           worst, 1e-9, t0, budget=60.0)


def test_criterion_05_cherednik_commutativity():
    t0 = time.time()
    from laxkit.trig import TrigGLConfig, cherednik_gln
    from laxkit.ellrel import EllRParams, VDParams, y_elliptic
    worst = 0.0
    cfg = TrigGLConfig(n=4, tau=1.4 + 0.2j, c=0.31 + 0.11j)
    probes = make_probes(4, 2, random.Random(500))
    xs = pts(4, 4, 501, im=0.15, lo=-0.9, hi=0.9)
    Ys = [cherednik_gln(cfg, i) for i in (1, 2, 3, 4)]
    for i in range(4):
        for j in range(i + 1, 4):
            worst = max(worst, op_residual(Ys[i] * Ys[j], Ys[j] * Ys[i], probes, xs))
    pg = EllRParams(build_root_system("A", 3), 0.23 + 0.06j, 0.23 + 0.06j, C_STEP,
                    TAU_ELL, (0.31 + 0.02j, -0.12 + 0.04j, 0.27 - 0.03j))
    probes3 = make_probes(3, 2, random.Random(502))
    xs3 = pts(3, 4, 503)
    Ye = [y_elliptic(pg, b) for b in ((1, 0, 0), (0, 1, 0), (0, 0, 1))]
    for i in range(3):
        for j in range(i + 1, 3):
            worst = max(worst, op_residual(Ye[i] * Ye[j], Ye[j] * Ye[i], probes3, xs3))
    pv = VDParams(2, 0.23 + 0.06j, 0.31 - 0.02j, 0.27 + 0.05j, G4, GB4,
                  C_STEP, TAU_ELL, xi=(0.33 + 0.02j, -0.21 + 0.05j))
    probes2 = make_probes(2, 2, random.Random(504))
    xs2 = pts(2, 4, 505)
    Ya = y_elliptic(pv, (1, 0))
    Yb = y_elliptic(pv, (0, 1))
    worst = max(worst, op_residual(Ya * Yb, Yb * Ya, probes2, xs2))
    report(5, "Cherednik commutativity (trig GL4, ell GL3, ell CvC2)",
           worst, 1e-8, t0, budget=120.0)


def test_criterion_06_closed_forms_vs_construction():
    t0 = time.time()
    from laxkit.trig import TrigGLConfig, lax_trig_gln, lemma_ns_closed
    from laxkit.ellrel import (VDParams, lax_elliptic_ruijsenaars,
                               nsel_closed_y1, nsel_closed_y2,
                               r_matrix, ruijsenaars_params, vd_p_matrix,
                               vd_q_matrix, y_elliptic)
    from laxkit.koorn import (CCnParams, abcd_operator, koornwinder_lax,
                              p_matrix, q_matrix)
    from laxkit.weyl import AffineRoot
    worst = 0.0
    cfg = TrigGLConfig(n=3, tau=1.4 + 0.2j, c=0.31 + 0.11j)
    lax = lax_trig_gln(cfg)
    probes = make_probes(3, 2, random.Random(600))
    xs = pts(3, 4, 601, im=0.15, lo=-0.9, hi=0.9)
    worst = max(worst, op_residual(lemma_ns_closed(cfg).restrict(lax.tbl),
                                       lax.L, probes, xs))
    pe = ruijsenaars_params(3, 0.29 + 0.07j, 0.41 - 0.06j, C_STEP, TAU_ELL)
    laxe = lax_elliptic_ruijsenaars(pe)
    probes3 = make_probes(3, 2, random.Random(602))
    xs3 = pts(3, 4, 603)
    worst = max(worst, op_residual(nsel_closed_y1(pe).restrict(laxe.tbl),
                                       laxe.L, probes3, xs3))
    Y2 = y_elliptic(pe, (0, 1, 0))
    worst = max(worst, op_residual(nsel_closed_y2(pe).restrict(laxe.tbl),
                                       Y2.restrict(laxe.tbl), probes3, xs3))
    pp = CCnParams(n=2, tau0=1.2 + 0.1j, tau0v=0.8 - 0.05j, taun=1.5 + 0.2j,
                   taunv=0.7 + 0.1j, tau=1.3 - 0.15j, c=0.23 + 0.07j)
    laxk = koornwinder_lax(pp)
    probes2 = make_probes(2, 2, random.Random(604))
    xs2 = pts(2, 4, 605, im=0.12, lo=-0.9, hi=0.9)
    worst = max(worst, op_residual(p_matrix(pp), abcd_operator(pp).restrict(laxk.tbl),
                                       probes2, xs2))
    # R(delta + 2 e_1) t(e_1), the last factor of Y_1 = R_{t(e_1)} t(e_1)
    odd = r_matrix(pp, AffineRoot((2, 0), 1)) * WOp.translation(2, pp.c, (1, 0))
    worst = max(worst, op_residual(q_matrix(pp), odd.restrict(laxk.tbl),
                                       probes2, xs2))
    worst = max(worst, op_residual(laxk.L, y_elliptic(pp, (1, 0)).restrict(laxk.tbl),
                                       probes2, xs2))
    pv = VDParams(2, 0.23 + 0.06j, 0.31 - 0.02j, 0.27 + 0.05j, G4, GB4,
                  C_STEP, TAU_ELL)
    eta = 0.37 - 0.04j
    PQ = vd_p_matrix(pv, eta) * vd_q_matrix(pv, eta)
    Y1s = y_elliptic(replace(pv, xi=pv.xi_spec(eta)), (1, 0))
    tbl = orbit_stabilizer(pv.rs, (1, 0))
    xs2e = pts(2, 4, 606)
    vd_resid = op_residual(PQ, Y1s.restrict(tbl), probes2, xs2e)
    print(f"    (van Diejen table residual {vd_resid:.3e}, tol 1e-7)")
    assert vd_resid < 1e-7
    report(6, "closed-form vs constructed Lax matrices", worst, 1e-8, t0,
           budget=300.0)


def test_criterion_07_van_diejen_alpha_beta():
    t0 = time.time()
    from laxkit.ellrel import VDParams, vd_alpha_const, vd_p_matrix
    from laxkit.special import sigma, v_func, wp
    pv = VDParams(2, 0.23 + 0.06j, 0.31 - 0.02j, 0.27 + 0.05j, G4, GB4,
                  C_STEP, TAU_ELL)
    eta = 0.37 - 0.04j
    al = vd_alpha_const(pv, eta)
    xi12 = eta + pv.nu

    def alpha_of_x(x):
        tot = -(sigma(pv.mu, x[0] - x[1], TAU_ELL) * sigma(pv.mu, x[1] - x[0], TAU_ELL))
        tot += (sigma(xi12, x[0] - x[1], TAU_ELL)
                * sigma(eta + pv.nu, x[1] - x[0], TAU_ELL))
        return tot
    rng = random.Random(700)
    pol = PointPolicy(2, -0.35, 0.35, 0.05)
    vals = [alpha_of_x(pol.draw(rng)) for _ in range(10)]
    scale = 1 + max(abs(v) for v in vals)
    spread = max(abs(v - vals[0]) for v in vals) / scale
    closed = abs(al - (-wp(pv.mu, TAU_ELL) + wp(eta + pv.nu, TAU_ELL))) / scale
    p1 = VDParams(1, pv.mu, pv.nu, pv.nub, G4, GB4, C_STEP, TAU_ELL)
    P1 = vd_p_matrix(p1, eta)
    x1 = 0.21 + 0.02j
    b_entry = value(list(P1.entries[0][1].terms.values())[0]((x1,)))
    exact_b = abs(b_entry - (-v_func(eta, x1, G4, TAU_ELL)))
    assert exact_b < 1e-12  # B must be exact
    report(7, "van Diejen alpha constancy/closed form; n=1 B exact",
           max(spread, closed), 1e-8, t0)


def test_criterion_08_difference_lax_equations():
    t0 = time.time()
    from laxkit.trig import TrigGLConfig, lax_trig_gln
    from laxkit.koorn import CCnParams, koornwinder_lax
    from laxkit.ellrel import (VDParams, lax_elliptic_ruijsenaars, lax_vandiejen,
                               ruijsenaars_params)
    worst = 0.0
    cfg = TrigGLConfig(n=3, tau=1.4 + 0.2j, c=0.31 + 0.11j)
    lax = lax_trig_gln(cfg)
    probes = make_probes(3, 2, random.Random(800))
    xs = pts(3, 4, 801, im=0.15, lo=-0.9, hi=0.9)
    Hm = OperatorMatrix.diagonal(lax.H, 3)
    worst = max(worst, op_residual(lax.L * Hm - Hm * lax.L,
                                       lax.A * lax.L - lax.L * lax.A, probes, xs))
    pp = CCnParams(n=2, tau0=1.2 + 0.1j, tau0v=0.8 - 0.05j, taun=1.5 + 0.2j,
                   taunv=0.7 + 0.1j, tau=1.3 - 0.15j, c=0.23 + 0.07j)
    laxk = koornwinder_lax(pp)
    probes2 = make_probes(2, 2, random.Random(802))
    xs2 = pts(2, 4, 803, im=0.12, lo=-0.9, hi=0.9)
    Hm2 = OperatorMatrix.diagonal(laxk.H, 4)
    worst = max(worst, op_residual(laxk.L * Hm2 - Hm2 * laxk.L,
                                       laxk.A * laxk.L - laxk.L * laxk.A,
                                       probes2, xs2))
    for eta in (0.41 - 0.06j, 0.23 + 0.09j, -0.31 + 0.04j):
        laxe = lax_elliptic_ruijsenaars(ruijsenaars_params(3, 0.29 + 0.07j, eta,
                                                           C_STEP, TAU_ELL))
        probes3 = make_probes(3, 2, random.Random(804))
        xs3 = pts(3, 3, 805)
        Hm3 = OperatorMatrix.diagonal(laxe.H, 3)
        worst = max(worst, op_residual(laxe.L * Hm3 - Hm3 * laxe.L,
                                           laxe.A * laxe.L - laxe.L * laxe.A,
                                           probes3, xs3))
    pv = VDParams(2, 0.23 + 0.06j, 0.31 - 0.02j, 0.27 + 0.05j, G4, GB4,
                  C_STEP, TAU_ELL)
    for eta in (0.37 - 0.04j, 0.22 + 0.06j, -0.29 + 0.03j):
        laxv = lax_vandiejen(pv, eta)
        probes2e = make_probes(2, 2, random.Random(806))
        xs2e = pts(2, 3, 807)
        Hm4 = OperatorMatrix.diagonal(laxv.H, 4)
        worst = max(worst, op_residual(laxv.L * Hm4 - Hm4 * laxv.L,
                                           laxv.A * laxv.L - laxv.L * laxv.A,
                                           probes2e, xs2e))
    report(8, "quantum Lax equations, all difference regimes (3 spectral values)",
           worst, 1e-7, t0, budget=600.0)


def test_criterion_09_integral_families():
    t0 = time.time()
    from laxkit.rational import RationalDunklConfig, lax_pair_rational
    from laxkit.trig import TrigGLConfig, lax_trig_gln, phi_vector
    from laxkit.koorn import CCnParams, koornwinder_lax, phi_vector_ccn
    worst = 0.0
    rs = build_root_system("A", 3)
    cfg = RationalDunklConfig(rs, t=-0.7j, c_short=1.3j)
    lax = lax_pair_rational(cfg)
    probes = make_probes(3, 2, random.Random(900))
    xs = pts(3, 4, 901, im=0.2, lo=-0.9, hi=0.9)
    for Hk in integrals(lax.L, 3):
        worst = max(worst, op_residual(Hk * lax.H, lax.H * Hk, probes, xs))
    cfgt = TrigGLConfig(n=3, tau=1.4 + 0.2j, c=0.31 + 0.11j)
    laxt = lax_trig_gln(cfgt)
    xs2 = pts(3, 3, 902, im=0.15, lo=-0.9, hi=0.9)
    for Hk in integrals(laxt.L, 3, phi_vector(cfgt)):
        worst = max(worst, op_residual(Hk * laxt.H, laxt.H * Hk, probes, xs2))
    pp = CCnParams(n=2, tau0=1.2 + 0.1j, tau0v=0.8 - 0.05j, taun=1.5 + 0.2j,
                   taunv=0.7 + 0.1j, tau=1.3 - 0.15j, c=0.23 + 0.07j)
    laxk = koornwinder_lax(pp)
    probes2 = make_probes(2, 2, random.Random(903))
    xs3 = pts(2, 3, 904, im=0.12, lo=-0.9, hi=0.9)
    for Hk in integrals(laxk.L, 3, phi_vector_ccn(pp)):
        worst = max(worst, op_residual(Hk * laxk.H, laxk.H * Hk, probes2, xs3))
    report(9, "integral families commute (rational, trig GL3, CvC2; k<=3)",
           worst, 1e-8, t0)


def _max_symbol(entries, x, p):
    mx = 0.0
    for row in entries:
        for e in row:
            for (w, _m) in e.terms:
                mx = max(mx, abs(e.symbol_component(w, x, p)))
    return mx


def test_criterion_10_classical_limit_slopes():
    t0 = time.time()
    from laxkit.rational import RationalDunklConfig, lax_pair_rational
    from laxkit.trig import TrigGLConfig, lax_trig_gln
    from laxkit.koorn import CCnParams, koornwinder_lax
    from laxkit.ellcm import lax_elliptic_A, lax_inozemtsev
    from laxkit.ellrel import (VDParams, dual_substituted, lax_elliptic_ruijsenaars,
                               lax_vandiejen, ruijsenaars_params, vd_hamiltonian)
    hs = [1e-2, 1e-3, 1e-4]
    slopes = {}
    rsA = build_root_system("A", 3)
    x3, p3 = (0.4, -0.2, 0.7), (0.1, 0.3, -0.2)
    vals = []
    for h in hs:
        lax = lax_pair_rational(RationalDunklConfig(rsA, t=-1j * h, c_short=1.3j))
        vals.append(_max_symbol(lax.A.entries, x3, p3))
    slopes["rational"] = fit_slope(hs, vals)
    vals = []
    for h in hs:
        lax = lax_trig_gln(TrigGLConfig(n=3, tau=1.4 + 0.2j, c=-1j * h))
        vals.append(_max_symbol(lax.A.entries, x3, p3))
    slopes["trig"] = fit_slope(hs, vals)
    x2, p2 = (0.4, -0.2), (0.1, 0.3)
    vals = []
    for h in hs:
        laxk = koornwinder_lax(CCnParams(n=2, tau0=1.2 + 0.1j, tau0v=0.8 - 0.05j,
                                         taun=1.5 + 0.2j, taunv=0.7 + 0.1j,
                                         tau=1.3 - 0.15j, c=-1j * h))
        vals.append(_max_symbol(laxk.A.entries, x2, p2))
    slopes["koornwinder"] = fit_slope(hs, vals)
    xe, pe = (0.31, -0.22, 0.4), (0.2, -0.3, 0.14)
    vals = []
    for h in hs:
        lax = lax_elliptic_A(3, -1j * h, 1.3j, 0.27 + 0.04j, TAU_ELL)
        vals.append(_max_symbol(lax.A.entries, xe, pe))
    slopes["ell-cm-A"] = fit_slope(hs, vals)
    xb, pb = (0.31, -0.22), (0.2, -0.3)
    vals = []
    for h in hs:
        lax = lax_inozemtsev(2, -1j * h, 1.3j, G4, 0.22 + 0.03j, TAU_ELL)
        vals.append(_max_symbol(lax.A.entries, xb, pb))
    slopes["inozemtsev"] = fit_slope(hs, vals)
    vals = []
    for h in hs:
        laxe = lax_elliptic_ruijsenaars(ruijsenaars_params(3, 0.29 + 0.07j, 0.41 - 0.06j,
                                                           -1j * h, TAU_ELL))
        vals.append(_max_symbol(laxe.A.entries, xe, pe))
    slopes["ell-ruijsenaars"] = fit_slope(hs, vals)
    eta = 0.37 - 0.04j
    base = VDParams(2, 0.23 + 0.06j, 0.31 - 0.02j, 0.27 + 0.05j, G4, GB4,
                    0.0, TAU_ELL)
    opc = dual_substituted(base, base.xi_spec(eta))
    Hc = vd_hamiltonian(base)
    zpt = xb + pb
    ia, _ = symbol_parts(opc, zpt)
    ib, _ = symbol_parts(Hc, zpt)
    const = ia - ib
    vals = []
    for h in hs:
        pv = VDParams(2, 0.23 + 0.06j, 0.31 - 0.02j, 0.27 + 0.05j, G4, GB4,
                      -1j * h, TAU_ELL)
        laxv = lax_vandiejen(pv, eta)
        shifted = laxv.A - OperatorMatrix.diagonal(WOp.from_scalar(2, pv.c, const), 4)
        vals.append(_max_symbol(shifted.entries, xb, pb))
    slopes["vandiejen"] = fit_slope(hs, vals)
    worst = max(abs(s - 1.0) for s in slopes.values())
    print("    slopes:", {k: round(v.real if hasattr(v, 'real') else v, 4)
                          for k, v in slopes.items()})
    report(10, "A-type operators vanish as O(hbar), slope 1 +- 0.1",
           worst, 0.1, t0)


def test_criterion_11_involution_isospectrality():
    t0 = time.time()
    from laxkit.rational import RationalDunklConfig, lax_pair_rational
    from laxkit.trig import TrigGLConfig, lax_tables, mr_operator
    from laxkit.ellcm import lax_inozemtsev
    from laxkit.ellrel import VDParams, vd_hamiltonian, vd_p_matrix, vd_q_matrix
    worst_inv = 0.0
    worst_drift = 0.0
    # rational A3 (n = 4)
    rs = build_root_system("A", 4)
    lax = lax_pair_rational(RationalDunklConfig(rs, t=0.0, c_short=1.3j))
    Lf, Hcl = lax.L.phase_field(), lax.H.phase_field()
    z0 = (-0.6, -0.1, 0.35, 0.8, 0.1, -0.05, 0.08, -0.1)
    _t, traj = hamiltonian_flow(Hcl, z0, T=1.0, dt=1e-3, n=4)
    worst_drift = max(worst_drift, isospectral_drift(matrix_fn_from_fields(Lf),
                                                     traj[::50]))
    for a, b in ((2, 3), (2, 4), (3, 4)):
        worst_inv = max(worst_inv, poisson_residual(*trace_powers(Lf, (a, b)), z0, 4))
    # trig GL3
    cfgt = TrigGLConfig(n=3, tau=1.4, c=0.0)
    Lf3 = lax_tables(cfgt)[0].phase_field()
    H3 = mr_operator(cfgt).phase_field()
    z3 = (0.4, -0.3, 0.8, 0.1, -0.2, 0.15)
    _t, traj3 = hamiltonian_flow(H3, z3, T=1.0, dt=2e-3, n=3)
    worst_drift = max(worst_drift, isospectral_drift(matrix_fn_from_fields(Lf3),
                                                     traj3[::25]))
    for a, b in ((2, 3), (3, 4)):
        worst_inv = max(worst_inv, poisson_residual(*trace_powers(Lf3, (a, b)), z3, 3))
    # Inozemtsev n=2 (h_k = tr L^{2k})
    taur = 0.9j
    cc = 0.15j
    gr = tuple(1j * v * 0.12 for v in (0.8, -0.4, 0.6, 0.3))
    laxi = lax_inozemtsev(2, 0.0, cc, gr, 0.24, taur)
    Hi, Li = laxi.H.phase_field(), laxi.L.phase_field()
    zi = (0.2, 0.35, 0.012, -0.01)
    _t, traji = hamiltonian_flow(Hi, zi, T=1.0, dt=1e-3, n=2)
    worst_drift = max(worst_drift, isospectral_drift(matrix_fn_from_fields(Li),
                                                     traji[::20]))
    worst_inv = max(worst_inv, poisson_residual(*trace_powers(Li, (2, 4)), zi, 2))
    # van Diejen n=2
    pvr = VDParams(2, 0.21, 0.33, 0.27, (0.4, 0.25, 0.3, 0.2),
                   (0.35, 0.2, 0.25, 0.15), 0.0, 0.85j)
    Lv = (vd_p_matrix(pvr, 0.37) * vd_q_matrix(pvr, 0.37)).phase_field()
    Hv = vd_hamiltonian(pvr).phase_field()
    zv = (0.21, 0.33, 0.015, -0.01)
    Hs, _t, trajv = scaled_flow(Hv, zv, T=1.0, dt=2e-3, n=2, target_speed=0.03)
    worst_drift = max(worst_drift, isospectral_drift(matrix_fn_from_fields(Lv),
                                                     trajv[::25]))
    worst_inv = max(worst_inv, poisson_residual(*trace_powers(Lv, (2, 4)), zv, 2))
    print(f"    involution {worst_inv:.3e} (tol 1e-8), drift {worst_drift:.3e}"
          f" (tol 1e-6)")
    assert worst_inv < 1e-8
    report(11, "classical involution + isospectral drift over T=1",
           worst_drift, 1e-6, t0)


def test_criterion_12_regularity_probes():
    t0 = time.time()
    from laxkit.ellcm import EllipticDunklConfig, dual_substitution
    from laxkit.ellrel import (EllRParams, dual_substituted,
                               macdonald_elliptic, VDParams, vd_hamiltonian)
    rng = random.Random(1200)
    worst = 0.0
    # Prop (elcl)(iii)-type: elliptic CM, A2 and C2/BC
    zpt = (0.31, -0.22, 0.4, 0.2, -0.3, 0.14)
    rsA = build_root_system("A", 3)
    idents = []
    for _ in range(4):
        lam = tuple(complex(rng.uniform(0.1, 0.35), rng.uniform(0, 0.05))
                    for _ in range(3))
        cfg = EllipticDunklConfig(rsA, 0.0, 1.3j, 0.31 + 0.84j, lam)
        ident, off = symbol_parts(dual_substitution(cfg), zpt)
        idents.append(ident)
        worst = max(worst, off)
    worst = max(worst, max(abs(v - idents[0]) for v in idents)
                / (1 + abs(idents[0])))
    rsC = build_root_system("C", 2)
    zb = (0.19, 0.37, 0.21, -0.13)
    identsb = []
    for _ in range(3):
        lam = tuple(complex(rng.uniform(0.1, 0.3), rng.uniform(0, 0.05))
                    for _ in range(2))
        cfgb = EllipticDunklConfig(rsC, 0.0, 1.3j, 0.31 + 0.84j, lam, g=G4)
        identb, offb = symbol_parts(dual_substitution(cfgb), zb)
        identsb.append(identb)
        worst = max(worst, offb)
    worst = max(worst, max(abs(v - identsb[0]) for v in identsb)
                / (1 + abs(identsb[0])))
    # Prop (elclq) classical: C2 quasi-minuscule
    pc = EllRParams(rsC, 0.21 + 0.03j, 0.33 - 0.04j, C_STEP, TAU_ELL, (0.2, 0.1))
    zc = (0.21, 0.36, 0.13, -0.08)
    ids = []
    pc0 = EllRParams(rsC, pc.m_short, pc.m_long, 0.0, TAU_ELL, pc.xi)
    for _ in range(3):
        xi = (complex(rng.uniform(0.1, 0.35), 0.02),
              complex(rng.uniform(0.1, 0.35), -0.01))
        opc = dual_substituted(pc0, xi)
        ident, off = symbol_parts(opc, zc)
        ids.append(ident)
        worst = max(worst, off)
    worst = max(worst, max(abs(v - ids[0]) for v in ids) / (1 + abs(ids[0])))
    Lbc = macdonald_elliptic(pc0, (1, 0), quasi=True)
    zc2 = (0.33, 0.17, -0.11, 0.21)
    opc = dual_substituted(pc0, (0.22 + 0.01j, 0.31 - 0.02j))
    consts = []
    for z in (zc, zc2):
        ia, _ = symbol_parts(opc, z)
        ib, _ = symbol_parts(Lbc, z)
        consts.append(ia - ib)
    worst = max(worst, abs(consts[0] - consts[1]) / (1 + abs(consts[0])))
    # (celclq) classical: van Diejen e_1
    base = VDParams(2, 0.23 + 0.06j, 0.31 - 0.02j, 0.27 + 0.05j, G4, GB4,
                    0.0, TAU_ELL)
    Hc = vd_hamiltonian(base)
    idsv = []
    for _ in range(3):
        xi = (complex(rng.uniform(0.1, 0.35), 0.02),
              complex(rng.uniform(0.1, 0.35), -0.02))
        opv = dual_substituted(base, xi)
        ident, off = symbol_parts(opv, zc)
        idsv.append(ident)
        worst = max(worst, off)
    worst = max(worst, max(abs(v - idsv[0]) for v in idsv) / (1 + abs(idsv[0])))
    constsv = []
    opv = dual_substituted(base, (0.22 + 0.01j, 0.31 - 0.02j))
    for z in (zc, zc2):
        ia, _ = symbol_parts(opv, z)
        ib, _ = symbol_parts(Hc, z)
        constsv.append(ia - ib)
    worst = max(worst, abs(constsv[0] - constsv[1]) / (1 + abs(constsv[0])))
    report(12, "regularity probes (elcl, elclq, celclq consequences)",
           worst, 1e-8, t0)


def test_criterion_13_residue_conditions():
    t0 = time.time()
    from laxkit.ellrel import VDParams, residue_conditions
    pv = VDParams(2, 0.23 + 0.06j, 0.31 - 0.02j, 0.27 + 0.05j, G4, GB4,
                  C_STEP, TAU_ELL)
    worst = 0.0
    nchecks = 0
    for params in (pv, replace(pv, c=0.0)):
        rep = residue_conditions(params, rng=random.Random(13))
        nchecks += len(rep)
        assert any(lbl.startswith("5res") for (lbl, _e, _ok) in rep)
        for _label, expo, _ok in rep:
            worst = max(worst, -expo)
    print(f"    {nchecks} residue checks (quantum + classical)")
    report(13, "van Diejen residue conditions (growth exponents)", worst,
           0.1, t0)


def test_criterion_14_runtime_and_reproducibility(tmp_path):
    t0 = time.time()
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / f"rep_{tag}.json"
        r = subprocess.run([sys.executable, "-m", "laxkit.cli", "verify",
                            "--system", "vandiejen", "--rank", "2", "--seed",
                            "11", "--out", str(out)],
                           capture_output=True, text=True)
        assert r.returncode == 0, r.stderr
        d = json.loads(out.read_text())
        d["runtime_ms"] = 0.0
        outs.append(json.dumps(d, sort_keys=True))
    assert outs[0] == outs[1], "reports are not byte-reproducible"
    total = sum(ELAPSED.values()) + (time.time() - t0)
    line = (f"criterion 14 [{'PASS' if total < 900 else 'FAIL'}] whole suite "
            f"{total:.0f}s < 900s; reports byte-reproducible per seed")
    print(line)
    assert total < 900, line
