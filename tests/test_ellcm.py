"""Elliptic Dunkl operators, Krichever/Inozemtsev Lax pairs, regularity."""

import random

import pytest

from laxkit import fields, suites, verify
from laxkit.dual import value
from laxkit.ellcm import (EllipticDunklConfig, ael_tables, dual_substitution,
                          elliptic_dunkl, inozemtsev_tables, lax_elliptic_A,
                          lax_inozemtsev, split_a_operator, split_hamiltonian)
from laxkit.fields import Const, Prod, Scale
from laxkit.opcore import DiffOp, OperatorMatrix, make_probes
from laxkit.suites import RunConfig, build_suite, default_params
from laxkit.verify import (PointPolicy, energy_drift, hamiltonian_flow,
                           isospectral_drift, matrix_fn_from_fields, op_residual,
                           trace_powers)
from laxkit.weyl import build_root_system, replace
from test_fields import field_nodes
from support import fit_slope, poisson_residual, symbol_parts

TAU = 0.31 + 0.84j
T, CC = -0.7j, 1.3j
G4 = (0.8 + 0.1j, -0.4 + 0.2j, 0.6 - 0.1j, 0.3 + 0.15j)


def sample(n, count=4, seed=4):
    rng = random.Random(seed)
    pol = PointPolicy(n, -0.35, 0.35, 0.05)
    return [pol.draw(rng) for _ in range(count)]


def acfg(lam=(0.23 + 0.05j, -0.31 + 0.02j, 0.12 - 0.04j)):
    return EllipticDunklConfig(build_root_system("A", 3), T, CC, TAU, lam)


def bcfg(lam=(0.21 + 0.03j, -0.17 + 0.06j)):
    return EllipticDunklConfig(build_root_system("C", 2), T, CC, TAU, lam, g=G4)


def test_commutativity_and_lambda_equivariance():
    cfg = acfg()
    probes = make_probes(3, 2, random.Random(1))
    xs = sample(3)
    y0 = elliptic_dunkl(cfg, 0)
    y1 = elliptic_dunkl(cfg, 1)
    assert op_residual(y0 * y1 - y1 * y0, None, probes, xs) < 1e-9
    # w y_xi(lam) = y_{w xi}(w lam) w
    rs = cfg.rs
    w = rs.reflection(rs.pos_roots[0])
    lhs = DiffOp.from_group(3, T, w) * elliptic_dunkl(cfg, 0)
    cfg_w = replace(cfg, lam=w.apply_vec(cfg.lam))
    rhs = elliptic_dunkl(cfg_w, 1) * DiffOp.from_group(3, T, w)
    assert op_residual(lhs, rhs, probes, xs) < 1e-12


def test_bc_flavor_and_single_variable_case():
    cfg = bcfg()
    assert cfg.bc and not acfg().bc  # the flavor is read from g
    probes = make_probes(2, 2, random.Random(2))
    xs = sample(2)
    y0 = elliptic_dunkl(cfg, 0)
    y1 = elliptic_dunkl(cfg, 1)
    assert op_residual(y0 * y1 - y1 * y0, None, probes, xs) < 1e-9
    rc1 = build_root_system("C", 1)
    cfg1 = EllipticDunklConfig(rc1, T, CC, TAU, (0.2 + 0.05j,), g=G4)
    yb = elliptic_dunkl(cfg1, 0)
    assert len(yb.terms) == 2  # t d_1 + v_lam(x_1) s_1


def test_quadratic_split_identities():
    cfg = acfg()
    probes = make_probes(3, 2, random.Random(3))
    xs = sample(3)
    H, A = split_hamiltonian(cfg), split_a_operator(cfg)
    assert op_residual(dual_substitution(cfg), H + A, probes, xs) < 1e-9
    cfgb = bcfg()
    probesb = make_probes(2, 2, random.Random(4))
    xsb = sample(2)
    Hb, Ab = split_hamiltonian(cfgb), split_a_operator(cfgb)
    assert op_residual(dual_substitution(cfgb), Hb + Ab, probesb, xsb) < 1e-9


def test_zero_coupling_trivial_split():
    rs = build_root_system("A", 2)
    cfg = EllipticDunklConfig(rs, T, 0.0, TAU, (0.2, -0.1))
    assert not split_a_operator(cfg).terms  # c = 0 gives A-hat = 0


def test_lax_elliptic_A_tables_and_equation():
    for n in (2, 3):
        probes = make_probes(n, 2, random.Random(5))
        xs = sample(n)
        for mu in (0.27 + 0.04j, 0.15 - 0.06j):
            lax = lax_elliptic_A(n, T, CC, mu, TAU)
            Ltab, Atab = ael_tables(n, T, CC, mu, TAU)
            assert op_residual(lax.L, Ltab, probes, xs) < 1e-9
            assert op_residual(lax.A, Atab, probes, xs) < 1e-9
            Hm = OperatorMatrix.diagonal(lax.H, lax.tbl.m)
            assert op_residual(lax.L * Hm - Hm * lax.L,
                                   lax.A * lax.L - lax.L * lax.A,
                                   probes, xs) < 1e-8


def test_a_diagonal_independent_of_spectral_parameter():
    n = 3
    _L1, A1 = ael_tables(n, T, CC, 0.27 + 0.04j, TAU)
    _L2, A2 = ael_tables(n, T, CC, 0.15 - 0.06j, TAU)
    x = sample(n)[0]
    for k in range(n):
        f1 = list(A1.entries[k][k].terms.values())[0]
        f2 = list(A2.entries[k][k].terms.values())[0]
        assert abs(value(f1(x)) - value(f2(x))) < 1e-13


def test_inozemtsev_lax_and_tables():
    mu = 0.22 + 0.03j
    probes = make_probes(2, 2, random.Random(6))
    xs = sample(2)
    lax = lax_inozemtsev(2, T, CC, G4, mu, TAU)
    Ltab, Atab = inozemtsev_tables(2, T, CC, G4, mu, TAU)
    assert op_residual(lax.L, Ltab, probes, xs) < 1e-9
    assert op_residual(lax.A, Atab, probes, xs) < 1e-9
    Hm = OperatorMatrix.diagonal(lax.H, 4)
    assert op_residual(lax.L * Hm - Hm * lax.L,
                           lax.A * lax.L - lax.L * lax.A, probes, xs) < 1e-8
    # anti-diagonal entries are v_mu(x_i)
    from laxkit.special import v_func
    x = xs[0]
    f = list(Ltab.entries[0][2].terms.values())[0]
    assert abs(value(f(x)) - v_func(mu, x[0], G4, TAU)) < 1e-12
    # n = 1 reduces to a 2x2 pair with the v_mu(x_1) anti-diagonal
    lax1 = lax_inozemtsev(1, T, CC, G4, mu, TAU)
    assert lax1.L.m == 2
    f1 = list(lax1.L.entries[0][1].terms.values())[0]
    assert abs(value(f1((x[0],))) - v_func(mu, x[0], G4, TAU)) < 1e-12


def test_classical_inozemtsev_entries_carry_no_unit_factors():
    gr = tuple(1j * v * 0.12 for v in (0.8, -0.4, 0.6, 0.3))
    Lf = lax_inozemtsev(2, 0.0, 0.15j, gr, 0.24, 0.9j).L.phase_field()
    nodes = field_nodes([f for row in Lf for f in row])
    assert not [f for f in nodes if isinstance(f, Scale) and f.c == 1]
    assert not [f for f in nodes if isinstance(f, Prod)
                and any(isinstance(g, Const) and g.c == 1 for g in (f.a, f.b))]


def test_corinoz_classical_involution_and_isospectrality():
    taur = 0.9j
    cc = 0.15j
    gr = tuple(1j * v * 0.12 for v in (0.8, -0.4, 0.6, 0.3))
    lax = lax_inozemtsev(2, 0.0, cc, gr, 0.24, taur)
    H, Lf = lax.H.phase_field(), lax.L.phase_field()
    z0 = (0.2, 0.35, 0.012, -0.01)
    times, traj = hamiltonian_flow(H, z0, T=1.0, dt=1e-3, n=2)
    assert energy_drift(H, traj) < 1e-7
    assert isospectral_drift(matrix_fn_from_fields(Lf), traj[::20]) < 1e-6
    # h_k = tr L^{2k} in involution
    tr2, tr4 = trace_powers(Lf, (2, 4))
    rng = random.Random(7)
    zp = [tuple(complex(rng.uniform(0.15, 0.4), 0.01) for _ in range(2)) +
          tuple(complex(rng.uniform(-0.1, 0.1), 0) for _ in range(2))
          for _ in range(4)]
    assert max(poisson_residual(tr2, tr4, z, 2) for z in zp) < 1e-8
    # sensitivity control: perturbing one entry breaks isospectrality
    Lp = [row[:] for row in Lf]
    Lp[0][1] = Lp[0][1] * (1 + 1e-3)
    assert isospectral_drift(matrix_fn_from_fields(Lp), traj[::20]) > 1e-6


def test_regularity_probe_A_and_BC():
    rng = random.Random(8)
    zpt = (0.31, -0.22, 0.4, 0.2, -0.3, 0.14)
    rs = build_root_system("A", 3)
    idents = []
    cfg = None
    for _ in range(5):
        lam = tuple(complex(rng.uniform(0.1, 0.35), rng.uniform(0, 0.05))
                    for _ in range(3))
        cfg = EllipticDunklConfig(rs, 0.0, CC, TAU, lam)
        ident, off = symbol_parts(dual_substitution(cfg), zpt)
        idents.append(ident)
        assert off < 1e-8
    spread = max(abs(v - idents[0]) for v in idents)
    assert spread < 1e-8 * (1 + abs(idents[0]))
    # lambda and lambda + e_1 give equal values
    cfg2 = replace(cfg, lam=(cfg.lam[0] + 1.0,) + cfg.lam[1:])
    id2, _ = symbol_parts(dual_substitution(cfg2), zpt)
    assert abs(id2 - idents[-1]) < 1e-8 * (1 + abs(id2))
    # identity component equals the classical CM Hamiltonian (+ constant 0)
    Hph = split_hamiltonian(cfg).phase_field()
    assert abs(idents[-1] - value(Hph(zpt))) < 1e-8 * (1 + abs(idents[-1]))
    # BC variant
    rc = build_root_system("C", 2)
    zb = (0.19, 0.37, 0.21, -0.13)
    identsb = []
    for _ in range(3):
        lam = tuple(complex(rng.uniform(0.1, 0.3), rng.uniform(0, 0.05))
                    for _ in range(2))
        cfgb = EllipticDunklConfig(rc, 0.0, CC, TAU, lam, g=G4)
        identb, offb = symbol_parts(dual_substitution(cfgb), zb)
        identsb.append(identb)
        assert offb < 1e-8
    assert max(abs(v - identsb[0]) for v in identsb) < 1e-8 * (1 + abs(identsb[0]))


def test_trig_limit_of_elliptic_kernel():
    # Im tau -> infinity: the sigma kernel approaches the cot form (smoke)
    import cmath
    import math
    from laxkit.special import sigma
    z, mu = 0.52, 0.31
    lhs = sigma(mu / math.pi, z / math.pi, 40j) / math.pi
    rhs = cmath.cos(z) / cmath.sin(z) - cmath.cos(mu) / cmath.sin(mu)
    assert abs(lhs - rhs) < 1e-8


def test_ahat_slopes_elliptic():
    hs = [1e-2, 1e-3, 1e-4]
    x = (0.31, -0.22, 0.4)
    p = (0.2, -0.3, 0.14)
    vals = []
    for h in hs:
        lax = lax_elliptic_A(3, -1j * h, CC, 0.27 + 0.04j, TAU)
        mx = 0.0
        for row in lax.A.entries:
            for e in row:
                for (w, _m) in e.terms:
                    mx = max(mx, abs(e.symbol_component(w, x, p)))
        vals.append(mx)
    assert abs(fit_slope(hs, vals) - 1.0) < 0.1
    vals = []
    xb, pb = (0.31, -0.22), (0.2, -0.3)
    for h in hs:
        lax = lax_inozemtsev(2, -1j * h, CC, G4, 0.22 + 0.03j, TAU)
        mx = 0.0
        for row in lax.A.entries:
            for e in row:
                for (w, _m) in e.terms:
                    mx = max(mx, abs(e.symbol_component(w, xb, pb)))
        vals.append(mx)
    assert abs(fit_slope(hs, vals) - 1.0) < 0.1


def test_isospectral_drift_across_spectral_values():
    # one trajectory, three spectral values of the Lax matrix: the
    # char-poly depends on mu but stays constant along the flow for each
    taur = 0.9j
    cc = 0.15j
    gr = tuple(1j * v * 0.12 for v in (0.8, -0.4, 0.6, 0.3))
    H = lax_inozemtsev(2, 0.0, cc, gr, 0.24, taur).H.phase_field()
    z0 = (0.2, 0.35, 0.012, -0.01)
    _t, traj = hamiltonian_flow(H, z0, T=1.0, dt=1e-3, n=2)
    import numpy as np
    polys = []
    for mu in (0.24, 0.31, 0.18 + 0.02j):
        Lf = lax_inozemtsev(2, 0.0, cc, gr, mu, taur).L.phase_field()
        Lfn = matrix_fn_from_fields(Lf)
        assert isospectral_drift(Lfn, traj[::25]) < 1e-6
        polys.append(np.poly(np.array(Lfn(z0), dtype=complex)))
    # the spectral parameter genuinely moves the spectrum
    assert np.max(np.abs(polys[0] - polys[1])) > 1e-6


def _suite_tapes(monkeypatch, system, rank):
    """{check name: its residual tape} of the seed-0 suite, checks not run."""
    built, out = [], {}

    class Recording(fields.Tape):
        __slots__ = ()

        def __init__(self, roots):
            super().__init__(roots)
            built.append(self)

    def run_check(name, tol, evalfn, *_args, **_kw):
        (out[name],) = built
        built.clear()
        return verify.CheckResult(name, 0.0, tol, True)
    monkeypatch.setattr(verify, "Tape", Recording)
    monkeypatch.setattr(suites, "run_check", run_check)
    build_suite(RunConfig(system=system, rank=rank, params=default_params(system)))
    return out


@pytest.mark.parametrize("system, rank, lax_leaves, suite_leaves",
                         [("ell-cm-A", 3, 32, 88), ("inozemtsev", 2, 66, 160)])
def test_sigma_and_v_derivatives_are_one_leaf_per_form(monkeypatch, system, rank,
                                                       lax_leaves, suite_leaves):
    """sigma' and v' in A are the derivative leaves of sigma and v, the
    leaves the Leibniz products of L H build, so no two leaves of the
    lax-equation tape compute one function on one form."""
    tapes = _suite_tapes(monkeypatch, system, rank)
    counts = {name: [kind for kind, _a, _s in tape.code].count(fields._LEAF)
              for name, tape in tapes.items()}
    assert counts["lax-equation"] == lax_leaves
    assert sum(counts.values()) == suite_leaves
    tape = tapes["lax-equation"]
    x = (0.13 + 0.05j, -0.31 + 0.02j, 0.07 - 0.04j, 0.22 + 0.01j, -0.17 + 0.03j, 0.29 - 0.02j)[:2 * rank]
    leaves = [(a.k, a.c0, value(a(x))) for kind, a, _b in tape.code
              if kind == fields._LEAF]
    for i, (k, c0, v) in enumerate(leaves):
        assert not any((k, c0) == (k2, c02) and abs(v - v2) <= 1e-9 * (1 + abs(v))
                       for k2, c02, v2 in leaves[:i])
