"""Elliptic R-matrices, elliptic Cherednik operators, Ruijsenaars and
van Diejen Lax pairs, dual substitution, residue conditions."""

import cmath
import itertools
import random

import pytest

from laxkit.dual import value
from laxkit import ellrel, koorn
from laxkit.ellrel import (EllRParams, VDParams, alpha_sequence,
                           dual_factor_identity_residual,
                           dual_substituted, g_factor, lax_elliptic_ruijsenaars,
                           lax_vandiejen, macdonald_elliptic, nsel_closed_y1,
                           nsel_closed_y2, r_matrix,
                           residue_conditions, residue_control_failure, rho_m,
                           ruijsenaars_hamiltonian, ruijsenaars_lax_tables,
                           ruijsenaars_params,
                           t_hat, t_hat_word, vd_alpha_const, vd_beta_field,
                           vd_hamiltonian, vd_p_matrix, vd_q_matrix,
                           y_elliptic, y_elliptic_dual)
from laxkit.fields import exp_lin
from laxkit.opcore import DynOp, OperatorMatrix, WOp, make_probes
from laxkit.special import sigma, v_func, wp
from laxkit.verify import (PointPolicy, energy_drift, isospectral_drift,
                           matrix_fn_from_fields, op_residual, scaled_flow,
                           trace_powers)
from laxkit.weyl import (AffineElement, AffineRoot, affine_reflection,
                         build_root_system, orbit_stabilizer, reduced_word,
                         replace)
from support import classical_op_residual, fit_slope, poisson_residual, symbol_parts

TAU = 0.27 + 0.82j
C = 0.19 + 0.05j
G = (0.8 + 0.1j, -0.4 + 0.2j, 0.6 - 0.1j, 0.3 + 0.15j)
GB = (0.5 - 0.2j, 0.7 + 0.1j, -0.3 + 0.3j, 0.4 + 0j)


def pA():
    return EllRParams(build_root_system("A", 3), 0.23 + 0.06j, 0.23 + 0.06j,
                      C, TAU, (0.31 + 0.02j, -0.12 + 0.04j, 0.27 - 0.03j))


def pC():
    return EllRParams(build_root_system("C", 2), 0.21 + 0.03j, 0.33 - 0.04j,
                      C, TAU, (0.2, 0.1))


def pV():
    return VDParams(2, 0.23 + 0.06j, 0.31 - 0.02j, 0.27 + 0.05j, G, GB, C, TAU)


def sample(n, count=4, seed=4):
    rng = random.Random(seed)
    pol = PointPolicy(n, -0.35, 0.35, 0.05)
    return [pol.draw(rng) for _ in range(count)]


def test_r_matrix_uni_relations():
    p = pA()
    probes = make_probes(3, 2, random.Random(1))
    xs = sample(3)
    ar = AffineRoot(p.rs.pos_roots[0], 0)
    neg = AffineRoot(tuple(-v for v in ar.alpha), 0)
    mu_dyn = sum(a * b for a, b in zip(p.rs.coroot(ar.alpha), p.xi))
    want = wp(p.m_short, TAU) - wp(mu_dyn, TAU)
    assert op_residual(r_matrix(p, ar) * r_matrix(p, neg),
                       WOp.from_scalar(3, C, want), probes, xs) < 1e-12
    assert op_residual(r_matrix(p, ar, unitary=True) * r_matrix(p, neg, unitary=True),
                       WOp.one(3, C), probes, xs) < 1e-12
    ar1 = AffineRoot(p.rs.pos_roots[1], 1)
    neg1 = AffineRoot(tuple(-v for v in ar1.alpha), -1)
    assert op_residual(r_matrix(p, ar1, unitary=True) * r_matrix(p, neg1, unitary=True),
                       WOp.one(3, C), probes, xs) < 1e-12
    # C-vee-C doubled-root unitarity through the dual-parameter normalization
    pv = replace(pV(), xi=(0.33 + 0.02j, -0.21 + 0.05j))
    probes2 = make_probes(2, 2, random.Random(2))
    xs2 = sample(2)
    ar2 = AffineRoot((2, 0), 0)
    neg2 = AffineRoot((-2, 0), 0)
    assert op_residual(r_matrix(pv, ar2, unitary=True) * r_matrix(pv, neg2, unitary=True),
                       WOp.one(2, C), probes2, xs2) < 1e-11


def test_non_unitary_vandiejen_operators_solve_no_dual_parameters(monkeypatch):
    # the dual parameters enter only the unitary norm of a doubled-root factor
    def refuse(*args):
        raise RuntimeError("dual parameters solved")
    monkeypatch.setattr("laxkit.ellrel.dual_params", refuse)
    pv = replace(pV(), xi=(0.33 + 0.02j, -0.21 + 0.05j))
    y_elliptic(replace(pv, xi=pv.xi0()), (1, 0))
    ar = AffineRoot((2, 0), 1)
    r_matrix(pv, ar)
    with pytest.raises(RuntimeError, match="dual parameters solved"):
        r_matrix(pv, ar, unitary=True)


def test_equivariance_pair_action():
    # (w_vee x w) R(a) (w_vee x w)^-1 = R(w a), exercised as a DynOp identity
    p = pA()
    i = 1
    Th = t_hat(p, i)
    one = DynOp.one(3, C)
    probes = make_probes(6, 2, random.Random(3))
    pol = PointPolicy(6, -0.3, 0.3, 0.04)
    xs = [pol.draw(random.Random(4)) for _ in range(3)]
    assert op_residual(Th * Th, one, probes, xs) < 1e-12
    # and at fixed xi: w R_xi(a) w^-1 = R_{w xi}(w a)
    ar = AffineRoot(p.rs.pos_roots[1], 1)
    w = p.rs.reflection(p.rs.pos_roots[0])
    lhs = WOp.from_group(3, C, w) * r_matrix(p, ar) * WOp.from_group(3, C, w.inverse())
    rhs = r_matrix(replace(p, xi=w.apply_vec(p.xi)),
                   AffineRoot(w.apply_vec(ar.alpha), ar.k))
    assert op_residual(lhs, rhs, make_probes(3, 2, random.Random(5)), sample(3)) < 1e-12


def test_yang_baxter_braid_and_homomorphism():
    p = pA()
    probes = make_probes(6, 2, random.Random(6))
    pol = PointPolicy(6, -0.3, 0.3, 0.04)
    xs = [pol.draw(random.Random(7)) for _ in range(3)]
    Th = [t_hat(p, i) for i in range(3)]
    for i, j in ((0, 1), (1, 2), (0, 2)):
        lhs = Th[i] * Th[j] * Th[i]
        rhs = Th[j] * Th[i] * Th[j]
        assert op_residual(lhs, rhs, probes, xs) < 1e-12
    refl = [affine_reflection(a) for a in p.rs.affine_simple_roots()]
    el = refl[1] * refl[2] * refl[0] * refl[1]
    word = reduced_word(p.rs, el)
    lhs = t_hat_word(p, [1, 2]) * t_hat_word(p, [0, 1])
    assert op_residual(lhs, t_hat_word(p, word), probes, xs) < 1e-11
    # C-vee-C braid (b1): m = 4 pairs
    pv = replace(pV(), xi=(0.33 + 0.02j, -0.21 + 0.05j))
    probes2 = make_probes(4, 2, random.Random(8))
    pol2 = PointPolicy(4, -0.3, 0.3, 0.04)
    xs2 = [pol2.draw(random.Random(9)) for _ in range(3)]
    Tv = [t_hat(pv, i) for i in range(3)]
    for i in (0, 1):
        lhs = Tv[i] * Tv[i + 1] * Tv[i] * Tv[i + 1]
        rhs = Tv[i + 1] * Tv[i] * Tv[i + 1] * Tv[i]
        assert op_residual(lhs, rhs, probes2, xs2) < 1e-11


def test_word_independence_and_gfactor():
    p = pA()
    probes = make_probes(3, 2, random.Random(10))
    xs = sample(3)
    phiv = (1, 0, -1)
    wt = AffineElement.translation(phiv)
    word = reduced_word(p.rs, wt)
    refl = [affine_reflection(a) for a in p.rs.affine_simple_roots()]
    alts = []
    for cand in itertools.product(range(3), repeat=len(word)):
        el = AffineElement.identity(3)
        for i in cand:
            el = el * refl[i]
        if el == wt and list(cand) != word:
            alts.append(list(cand))

    def product_for(wd):
        out = None
        for ar in alpha_sequence(p.rs, wd):
            R = r_matrix(p, ar)
            out = R if out is None else out * R
        return out
    for alt in alts[:2]:
        assert op_residual(product_for(word), product_for(alt), probes, xs) < 1e-12
    Yb = y_elliptic(p, phiv)
    Ybh = y_elliptic(p, phiv, unitary=True)
    assert op_residual(Yb, Ybh.scale(g_factor(p, phiv)), probes, xs) < 1e-12


def test_lemmay_limit():
    p = pA()
    probes = make_probes(3, 2, random.Random(11))
    xs = sample(3)
    av = (1, -1, 0)
    resid = []
    for d in (1e-2, 1e-3):
        xi = (0.21 + 0.01j + d, 0.21 + 0.01j, -0.13 + 0.03j)
        Y = y_elliptic(replace(p, xi=xi), av, unitary=True)
        resid.append(op_residual(Y, WOp.one(3, C), probes, xs))
    assert resid[1] < 0.2 * resid[0]
    assert resid[1] < 1e-2


def test_rhat_value_at_dynamical_half_periods():
    # Rhat(a) -> +e^{pi i (a - 2 nu_vee) beta_r} s_a at <a_vee, xi> = om_r.
    # The paper's (rh1)/Lemma (bb) carry a minus sign, which is inconsistent
    # with the quotient definition (rh) that the braid relations single out;
    # see the decisions ledger.
    pv = pV()
    nuv, _gv, _nubv, _gbv = pv.dual()
    oms = (0j, 0.5 + 0j, (1 + TAU) / 2, TAU / 2)
    betas = (0, 0, 1, 1)
    ar = AffineRoot((2, 0), 0)
    s_aff = affine_reflection(ar)
    probes = make_probes(2, 2, random.Random(12))
    xs = sample(2)
    from laxkit.fields import LinArg
    for r in range(4):
        resid = []
        for d in (1e-2, 1e-3):
            pxi = replace(pv, xi=(oms[r] + d, 0.17 - 0.04j))
            Rh = r_matrix(pxi, ar, unitary=True)
            ph = LinArg(lambda z, br=betas[r]: cmath.exp(1j * cmath.pi * br * (z - 2 * nuv)),
                        ar.alpha, 0j)
            cand = WOp(2, C, {(s_aff.w, s_aff.lam): ph})
            resid.append(op_residual(Rh, cand, probes, xs))
        assert resid[1] < 0.25 * resid[0] and resid[1] < 5e-2


def test_macdonald_elliptic_collapse():
    p = replace(pA(), xi=tuple(-v for v in rho_m(pA())))
    probes = make_probes(3, 2, random.Random(13))
    xs = sample(3)
    phiv = (1, 0, -1)
    Lb = macdonald_elliptic(p, phiv, quasi=True)
    assert op_residual(y_elliptic(p, phiv).collapse(), Lb, probes, xs) < 1e-12
    pc = replace(pC(), xi=tuple(-v for v in rho_m(pC())))
    probes2 = make_probes(2, 2, random.Random(14))
    xs2 = sample(2)
    LbC = macdonald_elliptic(pc, (1, 0), quasi=True)
    assert op_residual(y_elliptic(pc, (1, 0)).collapse(), LbC, probes2, xs2) < 1e-12
    # dual version (kernels on coroots): collapse at zeta = -rho_m_vee
    pcd = replace(pC(), xi=tuple(-v for v in rho_m(pC(), dual=True)))
    LbD = macdonald_elliptic(pcd, (1, 0), quasi=True, dual=True)
    assert op_residual(y_elliptic_dual(pcd, (1, 0)).collapse(), LbD,
                       probes2, xs2) < 1e-12
    # type A minuscule (GL convention): at xi = -rho_m (i.e. eta = -mu up to
    # a uniform shift) the collapse of Y_1 alone is the Ruijsenaars
    # Hamiltonian, with the minuscule products of the closed form
    mu = 0.23 + 0.06j
    pg = ruijsenaars_params(3, mu, -mu, C, TAU)
    H = ruijsenaars_hamiltonian(pg)
    assert op_residual(y_elliptic(pg, (1, 0, 0)).collapse(), H, probes, xs) < 1e-11


def test_elliptic_gl_cherednik_commutativity():
    pg = pA()
    probes = make_probes(3, 2, random.Random(15))
    xs = sample(3)
    Ys = [y_elliptic(pg, b) for b in ((1, 0, 0), (0, 1, 0), (0, 0, 1))]
    for i in range(3):
        for j in range(i + 1, 3):
            assert op_residual(Ys[i] * Ys[j], Ys[j] * Ys[i], probes, xs) < 1e-8


def test_ruijsenaars_lax_block():
    p = ruijsenaars_params(3, 0.29 + 0.07j, 0.41 - 0.06j, C, TAU)
    lax = lax_elliptic_ruijsenaars(p)
    probes = make_probes(3, 2, random.Random(16))
    xs = sample(3)
    assert op_residual(nsel_closed_y1(p).restrict(lax.tbl), lax.L, probes, xs) < 1e-12
    Y2 = y_elliptic(p, (0, 1, 0))
    assert op_residual(nsel_closed_y2(p).restrict(lax.tbl), Y2.restrict(lax.tbl),
                           probes, xs) < 1e-12
    Ltab, Atab = ruijsenaars_lax_tables(p)
    assert op_residual(lax.L, Ltab, probes, xs) < 1e-12
    assert op_residual(lax.A, Atab, probes, xs) < 1e-12
    Hm = OperatorMatrix.diagonal(lax.H, 3)
    assert op_residual(lax.L * Hm - Hm * lax.L,
                           lax.A * lax.L - lax.L * lax.A, probes, xs) < 1e-7


def test_vandiejen_hamiltonian_and_alpha():
    pv = pV()
    probes = make_probes(2, 2, random.Random(17))
    xs = sample(2)
    Y1 = y_elliptic(replace(pv, xi=pv.xi0()), (1, 0))
    H = vd_hamiltonian(pv)
    assert op_residual(Y1.collapse(), H, probes, xs) < 1e-12
    # xi0 solves the (csystem) equations
    xi0 = pv.xi0()
    assert abs(xi0[0] - (-pv.nu - pv.mu)) < 1e-15
    assert abs(xi0[1] - (-pv.nu)) < 1e-15
    eta = 0.37 - 0.04j
    al = vd_alpha_const(pv, eta)
    assert abs(al - (-wp(pv.mu, TAU) + wp(eta + pv.nu, TAU))) < 1e-8
    # alpha constant in x: compare the (alpc1) expression over random points
    n = 2
    xi12 = eta + pv.nu + (n - 2) * pv.mu

    def alpha_of_x(x):
        tot = -(sigma(pv.mu, x[0] - x[1], TAU) * sigma(pv.mu, x[1] - x[0], TAU))
        tot += (sigma(xi12, x[0] - x[1], TAU) * sigma(eta + pv.nu, x[1] - x[0], TAU))
        return tot
    rng = random.Random(18)
    pol = PointPolicy(2, -0.35, 0.35, 0.05)
    vals = [alpha_of_x(pol.draw(rng)) for _ in range(10)]
    scale = 1 + max(abs(v) for v in vals)
    assert max(abs(v - vals[0]) for v in vals) / scale < 1e-8
    assert abs(vals[0] - al) / scale < 1e-8
    # beta for n = 2 equals sigma_{eta+nu}(x_12) sigma_{eta+nu}(x_12^+)
    bf = vd_beta_field(pv, eta, 1)
    x = xs[0]
    want = sigma(xi12, x[0] - x[1], TAU) * sigma(eta + pv.nu, x[0] + x[1], TAU)
    assert abs(value(bf(x)) - want) < 1e-12
    # n = 1: B entry equals -v_{xi_1}(x_1)
    p1 = VDParams(1, pv.mu, pv.nu, pv.nub, G, GB, C, TAU)
    P1 = vd_p_matrix(p1, eta)
    b_entry = value(list(P1.entries[0][1].terms.values())[0]((x[0],)))
    assert abs(b_entry - (-v_func(eta, x[0], G, TAU))) < 1e-13


def test_vandiejen_lax_block():
    pv = pV()
    eta = 0.37 - 0.04j
    probes = make_probes(2, 2, random.Random(19))
    xs = sample(2)
    laxv = lax_vandiejen(pv, eta)
    Y1s = y_elliptic(replace(pv, xi=pv.xi_spec(eta)), (1, 0))
    assert op_residual(laxv.L, Y1s.restrict(laxv.tbl), probes, xs) < 1e-8
    Hm = OperatorMatrix.diagonal(laxv.H, 4)
    assert op_residual(laxv.L * Hm - Hm * laxv.L,
                           laxv.A * laxv.L - laxv.L * laxv.A, probes, xs) < 1e-7
    # commutativity of the elliptic C-vee-C Cherednik operators
    pgen = replace(pv, xi=(0.33 + 0.02j, -0.21 + 0.05j))
    Ya = y_elliptic(pgen, (1, 0))
    Yb = y_elliptic(pgen, (0, 1))
    assert op_residual(Ya * Yb, Yb * Ya, probes, xs) < 1e-8


def test_dual_substitution_probes():
    pc = pC()
    probes = make_probes(2, 2, random.Random(20))
    xs = sample(2)
    # the A_vee Yhat = Y factor identity at generic xi
    assert dual_factor_identity_residual(pc, (0.24 + 0.01j, 0.17 - 0.02j),
                                         probes, xs) < 1e-11
    # boundedness of the substituted operator as xi -> 0
    vals = []
    for scale in (1e-2, 1e-3):
        op = dual_substituted(pc, (0.71 * scale, 0.37 * scale))
        mx = 0.0
        for f in probes:
            gg = op.apply_field(f)
            for x in xs:
                mx = max(mx, abs(value(gg(x))))
        vals.append(mx)
    assert vals[1] < 10 * vals[0] and vals[0] < 10 * vals[1]
    # classical: off-identity components vanish; xi-constancy; = L^b_c + const
    zpt = (0.21, 0.36, 0.13, -0.08)
    rng = random.Random(21)
    idents = []
    pc0 = EllRParams(pc.rs, pc.m_short, pc.m_long, 0.0, TAU, pc.xi)
    for _ in range(3):
        xi = (complex(rng.uniform(0.1, 0.35), 0.02),
              complex(rng.uniform(0.1, 0.35), -0.01))
        opc = dual_substituted(pc0, xi)
        ident, off = symbol_parts(opc, zpt)
        idents.append(ident)
        assert off < 1e-8
    assert max(abs(v - idents[0]) for v in idents) < 1e-8 * (1 + abs(idents[0]))
    Lbc = macdonald_elliptic(pc0, (1, 0), quasi=True)
    zpt2 = (0.33, 0.17, -0.11, 0.21)
    opc = dual_substituted(pc0, (0.22 + 0.01j, 0.31 - 0.02j))
    consts = []
    for z in (zpt, zpt2):
        ia, _ = symbol_parts(opc, z)
        ib, _ = symbol_parts(Lbc, z)
        consts.append(ia - ib)
    assert abs(consts[0] - consts[1]) < 1e-8 * (1 + abs(consts[0]))


def test_dual_substitution_lax_equation_c2():
    pc = pC()
    probes = make_probes(2, 2, random.Random(22))
    xs = sample(2)
    rho = rho_m(pc)
    eta = 0.29 - 0.03j
    xi_il = (-rho[0] + eta, -rho[1])
    tbl = orbit_stabilizer(pc.rs, (1, 0))
    Y1 = y_elliptic(replace(pc, xi=xi_il), (1, 0))
    L = Y1.restrict(tbl)
    H = macdonald_elliptic(pc, (1, 0), quasi=True)
    A = dual_substituted(pc, xi_il).restrict(tbl) - OperatorMatrix.diagonal(H, 4)
    Hm = OperatorMatrix.diagonal(H, 4)
    assert op_residual(L * Hm - Hm * L, A * L - L * A, probes, xs) < 1e-7


def test_translation_covariance_classical():
    pc = replace(pC(), c=0.0)
    xi_a = (0.24 + 0.01j, 0.17 - 0.02j)
    b = (1, 0)
    v = (1, 0)
    Yc1 = y_elliptic(replace(pc, xi=xi_a), b, unitary=False)
    Yc2 = y_elliptic(replace(pc, xi=(xi_a[0] + TAU, xi_a[1])), b, unitary=False)
    ph = exp_lin(tuple(2j * cmath.pi * vv for vv in v))
    phm = exp_lin(tuple(-2j * cmath.pi * vv for vv in v))
    conj = WOp.from_field(2, 0.0, ph) * Yc1 * WOp.from_field(2, 0.0, phm)
    rng = random.Random(23)
    zps = [tuple(complex(rng.uniform(0.1, 0.4), 0.02) for _ in range(2)) +
           tuple(complex(rng.uniform(-0.3, 0.3), 0) for _ in range(2))
           for _ in range(4)]
    assert classical_op_residual(Yc2, conj, zps) < 1e-12


def test_residue_conditions_and_control():
    pv = pV()
    rep = residue_conditions(pv, rng=random.Random(5))
    assert rep and all(ok for (_l, _e, ok) in rep)
    repc = residue_conditions(replace(pv, c=0.0), rng=random.Random(5))
    assert repc and all(ok for (_l, _e, ok) in repc)
    # the lambda_r-weighted sums are present
    assert any(l.startswith("5res") for (l, _e, _ok) in rep)
    assert any(l.startswith("1res") for (l, _e, _ok) in rep)
    # control: without the weights the second-order poles do NOT cancel
    assert residue_control_failure(pv) < -0.5


def test_vandiejen_classical_flow_and_involution():
    taur = 0.85j
    pvr = VDParams(2, 0.21, 0.33, 0.27, (0.4, 0.25, 0.3, 0.2),
                   (0.35, 0.2, 0.25, 0.15), 0.0, taur)
    Lf = (vd_p_matrix(pvr, 0.37) * vd_q_matrix(pvr, 0.37)).phase_field()
    Hc = vd_hamiltonian(pvr).phase_field()
    z0 = (0.21, 0.33, 0.015, -0.01)
    Hs, times, traj = scaled_flow(Hc, z0, T=1.0, dt=2e-3, n=2, target_speed=0.03)
    assert energy_drift(Hs, traj) < 1e-7
    assert isospectral_drift(matrix_fn_from_fields(Lf), traj[::25]) < 1e-6
    rng = random.Random(24)
    tr2, tr4 = trace_powers(Lf, (2, 4))
    zp = [tuple(complex(rng.uniform(0.15, 0.38), 0.01) for _ in range(2)) +
          tuple(complex(rng.uniform(-0.15, 0.15), 0) for _ in range(2))
          for _ in range(4)]
    assert max(poisson_residual(tr2, tr4, z, 2) for z in zp) < 1e-8


def test_slopes_ruijsenaars_and_vandiejen():
    hs = [1e-2, 1e-3, 1e-4]
    x = (0.31, -0.22, 0.4)
    mom = (0.2, -0.3, 0.14)
    vals = []
    for h in hs:
        lax = lax_elliptic_ruijsenaars(ruijsenaars_params(3, 0.29 + 0.07j, 0.41 - 0.06j,
                                                          -1j * h, TAU))
        mx = 0.0
        for row in lax.A.entries:
            for e in row:
                for (w, _l) in e.terms:
                    mx = max(mx, abs(e.symbol_component(w, x, mom)))
        vals.append(mx)
    assert abs(fit_slope(hs, vals) - 1.0) < 0.1
    # van Diejen: subtract the exact classical constant first
    xb, pb = (0.31, -0.22), (0.2, -0.3)
    eta = 0.37 - 0.04j
    base = VDParams(2, 0.23 + 0.06j, 0.31 - 0.02j, 0.27 + 0.05j, G, GB, 0.0, TAU)
    xi = base.xi_spec(eta)
    opc = dual_substituted(base, xi)
    Hc = vd_hamiltonian(base)
    zpt = xb + pb
    ia, _ = symbol_parts(opc, zpt)
    ib, _ = symbol_parts(Hc, zpt)
    const = ia - ib
    vals = []
    for h in hs:
        pv = VDParams(2, 0.23 + 0.06j, 0.31 - 0.02j, 0.27 + 0.05j, G, GB,
                      -1j * h, TAU)
        laxv = lax_vandiejen(pv, eta)
        shifted = laxv.A - OperatorMatrix.diagonal(
            WOp.from_scalar(2, pv.c, const), 4)
        mx = 0.0
        for row in shifted.entries:
            for e in row:
                for (w, _l) in e.terms:
                    mx = max(mx, abs(e.symbol_component(w, xb, pb)))
        vals.append(mx)
    assert abs(fit_slope(hs, vals) - 1.0) < 0.1


def test_word_independence_random_elements():
    # greedy (smallest descent) vs largest-descent reduced words
    from laxkit.weyl import affine_reflection as _arefl
    pc = pC()
    rs = pc.rs
    simples = rs.affine_simple_roots()
    refl = [_arefl(a) for a in simples]

    def reduced_word_largest(w):
        word = []
        cur = w
        while not cur.is_identity():
            inv = cur.inverse()
            for i in reversed(range(len(simples))):
                if inv.apply_affine_root(simples[i]).is_negative():
                    word.append(i)
                    cur = refl[i] * cur
                    break
            else:
                raise AssertionError("no descent")
        return word

    probes = make_probes(2, 2, random.Random(25))
    xs = sample(2)
    rng = random.Random(26)
    checked = 0
    for _ in range(10):
        el = AffineElement.identity(2)
        for _k in range(rng.randrange(2, 7)):
            el = el * refl[rng.randrange(3)]
        w1 = reduced_word(rs, el)
        w2 = reduced_word_largest(el)
        if w1 == w2:
            continue
        checked += 1

        def prod(word):
            out = None
            for ar in alpha_sequence(rs, word):
                R = r_matrix(pc, ar)
                out = R if out is None else out * R
            return out if out is not None else WOp.one(2, C)
        assert op_residual(prod(w1), prod(w2), probes, xs) < 1e-11
        if checked >= 5:
            break
    assert checked >= 3


def test_trig_limit_of_elliptic_r_matrix():
    # Im tau -> infinity, arguments rescaled by 2 pi i: both kernels of
    # R(abar) approach the sinh ratio form of the trigonometric limit
    import math
    tau_big = 40j
    z, m = 0.8 + 0.3j, 0.5 - 0.2j
    lhs = sigma(m / (2j * math.pi), z / (2j * math.pi), tau_big)

    def coth(u):
        return cmath.cosh(u) / cmath.sinh(u)
    rhs = 1j * math.pi * (coth(z / 2) - coth(m / 2))
    assert abs(lhs - rhs) < 1e-10
    # sinh-ratio presentation of the same kernel
    f = cmath.sinh((z - m) / 2) / (cmath.sinh(z / 2) * cmath.sinh(-m / 2))
    assert abs((coth(z / 2) - coth(m / 2)) - f) < 1e-12
    assert abs(lhs - 1j * math.pi * f) < 1e-10


def test_classical_ruijsenaars_a_is_hbar_limit():
    # entries of A_cl match (i hbar)^-1 * (quantum A) as hbar -> 0
    mu, eta = 0.29 + 0.07j, 0.41 - 0.06j
    pcl = ruijsenaars_params(3, mu, eta, 0.0, TAU)
    _Lc, Acl = ruijsenaars_lax_tables(pcl)
    x = (0.31, -0.22, 0.4)
    mom = (0.2, -0.3, 0.14)
    h = 1e-5
    pq = ruijsenaars_params(3, mu, eta, -1j * h, TAU)
    _Lq, Aq = ruijsenaars_lax_tables(pq)
    worst = 0.0
    for i in range(3):
        for j in range(3):
            want = 0j
            for (w, _l) in Acl.entries[i][j].terms:
                want += Acl.entries[i][j].symbol_component(w, x, mom)
            got = 0j
            for (w, _l) in Aq.entries[i][j].terms:
                got += Aq.entries[i][j].symbol_component(w, x, mom)
            got /= (1j * h)
            worst = max(worst, abs(got - want) / (1 + abs(want)))
    assert worst < 1e-3  # O(hbar) agreement at hbar = 1e-5


def test_root_system_is_built_once_per_parameter_object(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return build_root_system(*args)
    pv = replace(pV(), xi=(0.33 + 0.02j, -0.21 + 0.05j))
    pk = koorn.CCnParams(n=2, tau0=1.2 + 0.1j, tau0v=0.8 - 0.05j, taun=1.5 + 0.2j,
                         taunv=0.7 + 0.1j, tau=1.3 - 0.15j, c=0.23 + 0.07j)
    monkeypatch.setattr(ellrel, "build_root_system", counted)
    monkeypatch.setattr(koorn, "build_root_system", counted)
    for params in (pv, pk):
        y_elliptic(params, (1, 0))
        assert calls == []
    # a copy made by replace keeps its source's C_n; a copy of another n
    # builds its own
    copy = replace(pv, xi=pv.xi0(), c=0.0)
    assert copy.rs is pv.rs and calls == []
    y_elliptic(copy, (1, 0))
    assert calls == []
    assert replace(pv, n=1, xi=(0.33 + 0.02j,)).rs.rank == 1
    assert calls == [("C", 1)]
