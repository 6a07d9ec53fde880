"""Affine Hecke basic representation and the GL_n Ruijsenaars Lax pair."""

import random

import numpy as np

from laxkit.dual import value
from laxkit.opcore import (OperatorMatrix, WOp, hecke_inverse, integrals,
                           make_probes)
from laxkit.trig import (TrigGLConfig, a_field, basic_rep,
                         braid_order, cherednik_gln, e_tau_symmetrizer, lax_tables,
                         lax_trig_gln, lemma_ns_closed, mr_operator, phi_vector,
                         r_ij, r_ij_inv)
from laxkit.verify import (PointPolicy, energy_drift, hamiltonian_flow,
                           isospectral_drift, matrix_fn_from_fields, op_residual,
                           poisson_bracket, trace_powers)
from laxkit.weyl import SignedPerm, build_root_system
from support import fit_slope, poisson_residual

TAU, C = 1.4 + 0.2j, 0.31 + 0.11j


def sample(n, count=5, seed=4):
    rng = random.Random(seed)
    pol = PointPolicy(n, -0.9, 0.9, 0.15)
    return [pol.draw(rng) for _ in range(count)]


def test_hecke_quadratic_and_braid():
    n = 3
    cfg = TrigGLConfig(n=n, tau=TAU, c=C)
    rs = build_root_system("A", n)
    Ts = basic_rep(rs, cfg.c, cfg.tau)
    probes = make_probes(n, 2, random.Random(1))
    xs = sample(n, 4)
    for T in Ts:
        quad = (T - WOp.from_scalar(n, C, TAU)) * (T + WOp.from_scalar(n, C, 1 / TAU))
        assert op_residual(quad, None, probes, xs) < 1e-9
        assert op_residual(hecke_inverse(T, TAU) * T, WOp.one(n, C), probes, xs) < 1e-12
    for i, j in ((0, 1), (1, 2), (0, 2)):
        m = braid_order(rs, i, j)
        assert m == 3
        lhs = rhs = WOp.one(n, C)
        for k in range(m):
            lhs = lhs * (Ts[i] if k % 2 == 0 else Ts[j])
            rhs = rhs * (Ts[j] if k % 2 == 0 else Ts[i])
        assert op_residual(lhs, rhs, probes, xs) < 1e-9
    # R(a_i) = T_i s_i
    R = r_ij(cfg, 1, 2)
    s_op = WOp.from_group(n, C, SignedPerm.transposition(n, 0, 1))
    assert op_residual(R, Ts[1] * s_op, probes, xs) < 1e-13


def test_braid_order_infinite_for_affine_a1():
    rs = build_root_system("A", 2)
    assert braid_order(rs, 0, 1) is None


def test_r_inverse_from_quadratic_relation():
    cfg = TrigGLConfig(n=3, tau=TAU, c=C)
    R = r_ij(cfg, 1, 3)
    Rinv = r_ij_inv(cfg, 1, 3)
    probes = make_probes(3, 2, random.Random(2))
    xs = sample(3, 4)
    assert op_residual(R * Rinv, WOp.one(3, C), probes, xs) < 1e-12
    assert op_residual(Rinv * R, WOp.one(3, C), probes, xs) < 1e-12


def test_cherednik_commute_and_gl1():
    cfg = TrigGLConfig(n=3, tau=TAU, c=C)
    Y = [cherednik_gln(cfg, i) for i in (1, 2, 3)]
    probes = make_probes(3, 2, random.Random(3))
    xs = sample(3, 4)
    for i in range(3):
        for j in range(i + 1, 3):
            assert op_residual(Y[i] * Y[j], Y[j] * Y[i], probes, xs) < 1e-9
    cfg1 = TrigGLConfig(n=1, tau=1.3, c=0.2)
    assert op_residual(cherednik_gln(cfg1, 1), WOp.translation(1, 0.2, (1,)),
                       make_probes(1, 2, random.Random(4)), sample(1, 3)) < 1e-14


def test_macdonald_ruijsenaars_collapse():
    cfg = TrigGLConfig(n=3, tau=TAU, c=C)
    fY = None
    for i in (1, 2, 3):
        Y = cherednik_gln(cfg, i)
        fY = Y if fY is None else fY + Y
    assert op_residual(fY.collapse(), mr_operator(cfg),
                       make_probes(3, 2, random.Random(5)), sample(3, 4)) < 1e-12


def test_lemma_ns_and_lax_tables():
    cfg = TrigGLConfig(n=3, tau=TAU, c=C)
    lax = lax_trig_gln(cfg)
    probes = make_probes(3, 2, random.Random(6))
    xs = sample(3, 4)
    assert op_residual(lemma_ns_closed(cfg).restrict(lax.tbl), lax.L,
                           probes, xs) < 1e-12
    Ltab, Atab = lax_tables(cfg)
    assert op_residual(lax.L, Ltab, probes, xs) < 1e-12
    assert op_residual(lax.A, Atab, probes, xs) < 1e-12
    Hm = OperatorMatrix.diagonal(lax.H, 3)
    assert op_residual(lax.L * Hm - Hm * lax.L,
                           lax.A * lax.L - lax.L * lax.A, probes, xs) < 1e-9


def test_integrals_and_nazarov_sklyanin_agreement():
    cfg = TrigGLConfig(n=3, tau=TAU, c=C)
    lax = lax_trig_gln(cfg)
    probes = make_probes(3, 2, random.Random(7))
    xs = sample(3, 4)
    ints = integrals(lax.L, 3, phi_vector(cfg))
    for k in (1, 2):
        assert op_residual(ints[k] * lax.H, lax.H * ints[k], probes, xs) < 1e-8
    # [u L^2 v, u L^3 v] = 0 is the agreement with the U Z^k E family
    assert op_residual(ints[1] * ints[2], ints[2] * ints[1], probes[:1], xs[:3]) < 1e-8
    # phi_i = prod_{l != i} a_{li}
    phis = phi_vector(cfg)
    x = xs[0]
    man = value(a_field(cfg, 2, 1)(x)) * value(a_field(cfg, 3, 1)(x))
    assert abs(value(phis[0](x)) - man) < 1e-14


def test_e_tau_battery():
    cfg = TrigGLConfig(n=3, tau=TAU, c=C)
    et = e_tau_symmetrizer(cfg)
    probes = make_probes(3, 2, random.Random(8))
    xs = sample(3, 3)
    Ts = [r_ij(cfg, i, i + 1) * WOp.from_group(3, C, SignedPerm.transposition(3, i - 1, i))
          for i in (1, 2)]
    for T in Ts:
        assert op_residual(T * et, et.scale(TAU), probes, xs) < 1e-12
        assert op_residual(et * T, et.scale(TAU), probes, xs) < 1e-12
    assert op_residual(et * et, et, probes, xs) < 1e-12
    # w e_tau = e_tau
    w_op = WOp.from_group(3, C, SignedPerm((2, 3, 1)))
    assert op_residual(w_op * et, et, probes, xs) < 1e-12
    # restricted to M': rank one, entries = const * phi_j
    lax = lax_trig_gln(cfg)
    etm = et.restrict(lax.tbl)
    phis = phi_vector(cfg)
    x = xs[0]
    ratios = []
    for k in range(3):
        for j in range(3):
            entry = list(etm.entries[k][j].terms.values())[0]
            ratios.append(value(entry(x)) / value(phis[j](x)))
    assert max(abs(r - ratios[0]) for r in ratios) < 1e-12 * (1 + abs(ratios[0]))


def test_classical_lax_and_flow():
    cfg = TrigGLConfig(n=3, tau=1.4, c=0.0)
    Lf, Af = (M.phase_field() for M in lax_tables(cfg))
    Hcl = mr_operator(cfg).phase_field()
    z0 = (0.4, -0.3, 0.8, 0.1, -0.2, 0.15)
    times, traj = hamiltonian_flow(Hcl, z0, T=1.0, dt=2e-3, n=3)
    assert energy_drift(Hcl, traj) < 1e-8
    Lfn = matrix_fn_from_fields(Lf)
    assert isospectral_drift(Lfn, traj[::25]) < 1e-6
    zmid = traj[101]
    Av = np.array(matrix_fn_from_fields(Af)(zmid))
    Lv = np.array(Lfn(zmid))
    com = Av @ Lv - Lv @ Av
    for i in range(3):
        for j in range(3):
            pb = poisson_bracket(Lf[i][j], Hcl, zmid, 3)
            assert abs(pb - com[i][j]) / (1 + abs(pb)) < 1e-9
    tr2, tr3 = trace_powers(Lf, (2, 3))
    assert poisson_residual(tr2, tr3, z0, 3) < 1e-10


def test_ahat_slope_in_hbar():
    hs = [1e-2, 1e-3, 1e-4]
    vals = []
    x = (0.4, -0.2, 0.7)
    p = (0.1, 0.3, -0.2)
    for h in hs:
        cfg = TrigGLConfig(n=3, tau=TAU, c=-1j * h)
        lax = lax_trig_gln(cfg)
        mx = 0.0
        for row in lax.A.entries:
            for e in row:
                for (w, _l) in e.terms:
                    mx = max(mx, abs(e.symbol_component(w, x, p)))
        vals.append(mx)
    assert abs(fit_slope(hs, vals) - 1.0) < 0.1


def test_general_w_basic_rep_smoke_c2():
    """Reduced C2 basic representation: quadratic + braid relations."""
    import random as _r
    from laxkit.weyl import build_root_system
    rs = build_root_system("C", 2)
    tau_s, tau_l = 1.3 - 0.1j, 1.5 + 0.15j
    c = 0.21 + 0.06j
    Ts = basic_rep(rs, c, tau_s, tau_l)
    taus = [tau_l, tau_s, tau_l]  # a0 and a2 are long, a1 short
    probes = make_probes(2, 2, _r.Random(55))
    xs = sample(2, 3)
    for i, T in enumerate(Ts):
        quad = (T - WOp.from_scalar(2, c, taus[i])) * \
               (T + WOp.from_scalar(2, c, 1 / taus[i]))
        assert op_residual(quad, None, probes, xs) < 1e-9
    for i, j in ((0, 1), (1, 2), (0, 2)):
        m = braid_order(rs, i, j)
        lhs = rhs = WOp.one(2, c)
        for k in range(m):
            lhs = lhs * (Ts[i] if k % 2 == 0 else Ts[j])
            rhs = rhs * (Ts[j] if k % 2 == 0 else Ts[i])
        assert op_residual(lhs, rhs, probes, xs) < 1e-9


def test_restricted_a_annihilates_symmetric_module_vector():
    # rows of A sum to zero on W-invariant probes (A-hat e = 0 restricted)
    import random as _r
    from laxkit.fields import symmetrized
    from laxkit.weyl import build_root_system, weyl_enumerate
    from laxkit.dual import value
    cfg = TrigGLConfig(n=3, tau=TAU, c=C)
    lax = lax_trig_gln(cfg)
    W = weyl_enumerate(build_root_system("A", 3))
    probe = symmetrized(make_probes(3, 1, _r.Random(77))[0], W)
    images = lax.A.apply_vector([probe, probe, probe])
    for g in images:
        for x in sample(3, 4):
            v = value(g(x))
            assert abs(v) / (1 + abs(v)) < 1e-10
