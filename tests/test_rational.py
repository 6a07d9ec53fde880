"""Rational Dunkl operators, CM Lax pairs, integrals, classical limits."""

import random

import numpy as np
import pytest

from laxkit.dual import value
from laxkit.fields import symmetrized
from laxkit.opcore import DiffOp, OperatorMatrix, integrals, make_probes
from laxkit.rational import (RationalDunklConfig, cm_hamiltonian_explicit,
                             cm_split, dunkl, dunkl_basis, kks_matrices,
                             lax_pair_rational, position_matrix)
from laxkit.verify import (PointPolicy, energy_drift, hamiltonian_flow,
                           isospectral_drift, matrix_fn_from_fields, op_residual,
                           poisson_bracket, trace_powers)
from laxkit.weyl import build_root_system, orbit_stabilizer, replace, weyl_enumerate
from identities import classical_a_matrix
from support import fit_slope, poisson_residual

HBAR, G = 0.7, 1.3
T, CC = -1j * HBAR, 1j * G


def cfg_for(kind, n):
    rs = build_root_system(kind, n)
    return RationalDunklConfig(rs, t=T, c_short=CC,
                               c_long=0.9j if kind == "C" else None)


def sample(n, count=5, seed=4):
    rng = random.Random(seed)
    pol = PointPolicy(n, -0.9, 0.9, 0.2)
    return [pol.draw(rng) for _ in range(count)]


def test_zero_coupling_is_derivative():
    rs = build_root_system("A", 3)
    cfg = RationalDunklConfig(rs, t=T, c_short=0.0)
    y = dunkl(cfg, (1, 0, 0))
    ref = DiffOp.partial(3, T, 0)
    assert op_residual(y, ref, make_probes(3, 2, random.Random(1)), sample(3)) < 1e-15


def test_commutativity_and_equivariance():
    for kind, n in (("A", 3), ("C", 2)):
        cfg = cfg_for(kind, n)
        ys = dunkl_basis(cfg)
        probes = make_probes(n, 3, random.Random(2))
        xs = sample(n)
        comm = ys[0] * ys[1] - ys[1] * ys[0]
        assert op_residual(comm, None, probes, xs) < 1e-9
        rs = cfg.rs
        for a in rs.pos_roots[:2]:
            w = rs.reflection(a)
            xi = tuple(1 if i == 0 else 0 for i in range(n))
            lhs = (DiffOp.from_group(n, T, w) * dunkl(cfg, xi)
                   * DiffOp.from_group(n, T, w.inverse()))
            rhs = dunkl(cfg, w.apply_vec(xi))
            assert op_residual(lhs, rhs, probes, xs) < 1e-12


def test_cm_split_and_physical_potential():
    cfg = cfg_for("A", 3)
    qy, L, A = cm_split(cfg, ((1.0, 2),))
    probes = make_probes(3, 3, random.Random(3))
    xs = sample(3)
    assert op_residual(L, cm_hamiltonian_explicit(cfg), probes, xs) < 1e-12
    assert op_residual(qy, L + A, probes, xs) < 1e-13
    W = weyl_enumerate(cfg.rs)
    sp = symmetrized(probes[0], W)
    assert op_residual(A, None, [sp], xs) < 1e-10
    # potential coefficient: -c(c+t) <a,a>/<a,x>^2 = g(g - hbar) <a,a>/<a,x>^2
    x = xs[0]
    pot = sum(G * (G - HBAR) * 2 / (x[i] - x[j]) ** 2
              for i in range(3) for j in range(3) if i < j)
    field_terms = [f for (w, m), f in L.terms.items() if not any(m)]
    val = sum(value(f(x)) for f in field_terms)
    assert abs(val - pot) / (1 + abs(pot)) < 1e-12


QUADRATIC, QUARTIC = ((0.5, 2),), ((0.25, 4),)


@pytest.mark.parametrize("kind,n,xi,poly,size", [
    pytest.param("A", 3, (1, 0, 0), QUADRATIC, 3, id="A-3-3"),
    pytest.param("C", 2, (1, 0), QUADRATIC, 4, id="C-2-4"),
    pytest.param("C", 2, (1, 1), QUADRATIC, 4, id="C-2-4-orbit-of-e1+e2"),
    pytest.param("A", 3, (1, 1, 0), QUADRATIC, 3, id="A-3-3-orbit-of-e1+e2"),
    pytest.param("A", 3, (1, 0, 0), QUARTIC, 3, id="A-3-3-quartic"),
    pytest.param("C", 2, (1, 0), QUARTIC, 4, id="C-2-4-quartic")])
def test_lax_equation_and_sizes(kind, n, xi, poly, size):
    """The families of the paper: one pair per W-orbit of xi, of the orbit's
    size, and one per invariant polynomial q (here <y,y>/2 and sum y_i^4/4);
    a 1e-3 change of one L entry must break the equation."""
    cfg = cfg_for(kind, n)
    lax = lax_pair_rational(cfg, xi, poly)
    assert lax.L.m == size
    probes = make_probes(n, 2, random.Random(5))
    xs = sample(n, 4)
    Hm = OperatorMatrix.diagonal(lax.H, size)
    assert op_residual(lax.L * Hm - Hm * lax.L,
                       lax.A * lax.L - lax.L * lax.A, probes, xs) < 1e-9
    Lp = OperatorMatrix([list(row) for row in lax.L.entries])
    Lp.entries[0][-1] = Lp.entries[0][-1].scale(1.0 + 1e-3)
    assert op_residual(Lp * Hm - Hm * Lp, lax.A * Lp - Lp * lax.A, probes, xs) > 1e-4


def test_generic_xi_full_size_lax():
    cfg = cfg_for("A", 3)
    rs = cfg.rs
    xi = (0.43, -0.18, 0.71)
    tbl = orbit_stabilizer(rs, xi)
    assert tbl.m == 6
    y = dunkl(cfg, xi)
    _qy, L_q, A_hat = cm_split(cfg, ((0.5, 2),))
    Lm = y.restrict(tbl)
    Am = A_hat.restrict(tbl)
    probes = make_probes(3, 2, random.Random(6))
    xs = sample(3, 4)
    Hm = OperatorMatrix.diagonal(L_q.scale(1.0), 6)
    assert op_residual(Lm * Hm - Hm * Lm, Am * Lm - Lm * Am, probes, xs) < 1e-9


def test_integrals_structure_and_commutation():
    cfg = cfg_for("A", 3)
    lax = lax_pair_rational(cfg)
    ints = integrals(lax.L, 2)
    probes = make_probes(3, 3, random.Random(7))
    xs = sample(3)
    # H_1 = sum of entries of L = t * (total derivative): pair terms cancel
    total_p = None
    for i in range(3):
        d = DiffOp.partial(3, T, i)
        total_p = d if total_p is None else total_p + d
    assert op_residual(ints[0], total_p, probes, xs) < 1e-12
    comm = lax.H * ints[1] - ints[1] * lax.H
    assert op_residual(comm, None, probes, xs) < 1e-9
    # rows of A annihilate the ones vector and columns sum to zero
    m = lax.A.m
    for i in range(m):
        row = None
        col = None
        for j in range(m):
            row = lax.A.entries[i][j] if row is None else row + lax.A.entries[i][j]
            col = lax.A.entries[j][i] if col is None else col + lax.A.entries[j][i]
        assert op_residual(row, None, probes[:2], xs[:3]) < 1e-10
        assert op_residual(col, None, probes[:2], xs[:3]) < 1e-10


def test_kks_relation_and_degenerate_case():
    cfg = cfg_for("A", 2)
    tbl = orbit_stabilizer(cfg.rs, (1, 0))
    lhs, rhs = kks_matrices(cfg, tbl)
    probes = make_probes(2, 2, random.Random(8))
    xs = sample(2, 4)
    assert op_residual(lhs, rhs, probes, xs) < 1e-10
    X = position_matrix(cfg, tbl)
    x = xs[0]
    for k in range(tbl.m):
        f = list(X.entries[k][k].terms.values())[0]
        assert abs(value(f(x)) - x[k]) < 1e-14
    # g = hbar (c = -t): X L - L X = c * ones exactly
    cfg2 = RationalDunklConfig(cfg.rs, t=T, c_short=-T)
    lhs2, rhs2 = kks_matrices(cfg2, tbl)
    assert op_residual(lhs2, rhs2, probes, xs) < 1e-12


def test_classical_moser_flow_and_involution():
    cfg = cfg_for("A", 3)
    cfg0 = replace(cfg, t=0.0)
    lax = lax_pair_rational(cfg0)
    Lf, Hcl = lax.L.phase_field(), lax.H.phase_field()
    Af = classical_a_matrix(cfg).phase_field()
    qyc, _L, _A = cm_split(cfg0, ((0.5, 2),))
    # Lemma: off-identity components of q(y^c) vanish
    z = (0.3, -0.5, 0.9, 0.2, -0.1, 0.4)
    worst = 0.0
    for w, lst in qyc.components().items():
        if w.is_identity():
            continue
        for m, f in lst:
            mono = 1.0
            for k, mk in enumerate(m):
                mono *= z[3 + k] ** mk
            worst = max(worst, abs(value(f(z[:3])) * mono))
    assert worst < 1e-8
    times, traj = hamiltonian_flow(Hcl, z, T=1.0, dt=1e-3, n=3)
    assert energy_drift(Hcl, traj) < 1e-8
    Lfn = matrix_fn_from_fields(Lf)
    assert isospectral_drift(Lfn, traj[::50]) < 1e-6
    # Moser entries: off-diagonal i g/(x_k - x_l), diagonal p_k
    Lv = np.array(Lfn(z))
    assert abs(Lv[0][1] - 1j * G / (z[0] - z[1])) < 1e-13
    assert abs(Lv[2][2] - z[5]) < 1e-14
    # dL/dt = {L, H} = [A, L] along the flow
    Afn = matrix_fn_from_fields(Af)
    zmid = traj[len(traj) // 2]
    Av = np.array(Afn(zmid))
    Lvm = np.array(Lfn(zmid))
    com = Av @ Lvm - Lvm @ Av
    for i in range(3):
        for j in range(3):
            pb = poisson_bracket(Lf[i][j], Hcl, zmid, 3)
            assert abs(pb - com[i][j]) / (1 + abs(pb)) < 1e-10
    tr2, tr3 = trace_powers(Lf, (2, 3))
    assert poisson_residual(tr2, tr3, z, 3) < 1e-10
    # time reversal returns to the start
    from laxkit.fields import Scale
    _t, back = hamiltonian_flow(Scale(-1.0, Hcl), traj[-1], T=1.0, dt=1e-3, n=3)
    assert max(abs(a - b) for a, b in zip(back[-1], z)) < 1e-8


def test_ahat_vanishes_linearly_in_hbar():
    rs = build_root_system("A", 3)
    hs = [1e-2, 1e-3, 1e-4]
    vals = []
    z = ((0.4, -0.2, 0.7), (0.1, 0.3, -0.2))
    for h in hs:
        cfg = RationalDunklConfig(rs, t=-1j * h, c_short=CC)
        lax = lax_pair_rational(cfg)
        mx = 0.0
        for row in lax.A.entries:
            for e in row:
                for (w, _m) in e.terms:
                    mx = max(mx, abs(e.symbol_component(w, z[0], z[1])))
        vals.append(mx)
    slope = fit_slope(hs, vals)
    assert abs(slope - 1.0) < 0.1
