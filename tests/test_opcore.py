"""Operator algebra: composition, collapse, restriction, matrices."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from support import directional

from laxkit.dual import Dual, extract, gradient_vec, value
from laxkit.fields import ZERO, Const, LinArg, exp_lin, inv_form, linear_form
from laxkit.opcore import (DiffOp, DynOp, FlavorError, OperatorMatrix, RestrictionError,
                           WOp, make_probes,
                           module_apply_diffop, module_apply_wop, module_inject,
                           module_residual, restrict_to_matrix)
from laxkit.trig import TrigGLConfig, mr_operator, r_ij, cherednik_gln
from laxkit.rational import (RationalDunklConfig, cm_hamiltonian_explicit,
                             cm_split, dunkl, lax_pair_rational,
                             qlp_reference_matrices)
from laxkit.verify import PointPolicy, op_residual, scalar_check
from laxkit.weyl import SignedPerm, build_root_system, orbit_stabilizer, weyl_enumerate
from test_fields import field_nodes

RNG = random.Random(123)
C = 0.31 + 0.11j


def pts(n, count=5, rng=None, policy=None):
    rng = rng or random.Random(77)
    policy = policy or PointPolicy(n, -0.8, 0.8, 0.15)
    return [policy.draw(rng) for _ in range(count)]


def test_dual_leibniz_and_exponential_derivative():
    f = lambda p: p[0] * p[0] * p[1]
    g = lambda p: p[0] + 3 * p[1]
    x = (0.3 + 0.1j, -0.7 + 0.2j)
    d = (1.0, 0.5)
    seeded = tuple(Dual(v, dv) for v, dv in zip(x, d))
    lhs = extract(f(seeded) * g(seeded))
    rhs = extract(f(seeded)) * g(x) + f(x) * extract(g(seeded))
    assert abs(lhs - rhs) < 1e-15
    k = (0.4 - 0.2j, 1.1 + 0.3j)
    e = exp_lin(k)
    xi = (0.2, -0.5)
    jet = e(tuple(Dual(v, dv) for v, dv in zip(x, xi)))
    expect = (k[0] * xi[0] + k[1] * xi[1]) * value(e(x))
    assert abs(extract(jet) - expect) < 1e-14


def test_gradient_vec_matches_gradient():
    f = lambda p: p[0] ** 2 * p[1] + 2 * p[1] ** 3
    x = (0.4 + 0.1j, -0.3 + 0.2j)
    g1 = [directional(f, x, [e]) for e in ((1.0, 0.0), (0.0, 1.0))]
    p0, p1 = linear_form((1.0, 0.0)), linear_form((0.0, 1.0))
    g2 = gradient_vec(p0 * p0 * p1 + 2.0 * (p1 * p1 * p1), x)
    assert all(abs(a - b) < 1e-14 for a, b in zip(g1, g2))


def test_apply_translation_reflection_derivative():
    n = 3
    k = (0.7 - 0.1j, 0.2, -0.4 + 0.3j)
    probe = exp_lin(k)
    x = (0.3, -0.2, 0.5)
    t1 = WOp.translation(n, C, (1, 0, 0))
    lhs = value(t1.apply_field(probe)(x))
    import cmath
    assert abs(lhs - cmath.exp(C * k[0]) * value(probe(x))) < 1e-14
    s12 = SignedPerm((2, 1, 3))
    sw = WOp.from_group(n, C, s12)
    x1 = linear_form((1, 0, 0))
    assert abs(value(sw.apply_field(x1)(x)) - x[1]) < 1e-15
    t = 0.7
    dop = DiffOp.partial(n, t, 0)
    assert abs(value(dop.apply_field(probe)(x)) - t * k[0] * value(probe(x))) < 1e-14
    # t = 0 is the classical flavor: no function action, and the Leibniz
    # rule keeps only its leading term, (t d_1) f = f (t d_1)
    with pytest.raises(FlavorError):
        DiffOp.partial(n, 0.0, 0).apply_field(probe)
    for tt, keys in ((t, [(0, 0, 0), (1, 0, 0)]), (0.0, [(1, 0, 0)])):
        prod = DiffOp.partial(n, tt, 0) * DiffOp.from_field(n, tt, probe)
        assert sorted(m for (_w, m) in prod.terms) == keys


def test_translations_compose_additively():
    n = 2
    t1 = WOp.translation(n, C, (1, 0))
    t2 = WOp.translation(n, C, (0, 1))
    both = t1 * t2
    direct = WOp.translation(n, C, (1, 1))
    probes = make_probes(n, 2, random.Random(1))
    assert op_residual(both, direct, probes, pts(2)) < 1e-14


def test_compose_matches_functional_application():
    n = 3
    rng = random.Random(5)
    cfg = TrigGLConfig(n=n, tau=1.4 + 0.2j, c=C)
    ops = [r_ij(cfg, 1, 2), r_ij(cfg, 2, 3), WOp.translation(n, C, (0, 1, 0)),
           r_ij(cfg, 1, 3)]
    probes = make_probes(n, 4, rng)
    xs = pts(3, 5)
    comp = ops[0] * ops[1] * ops[2] * ops[3]
    worst = 0.0
    for f in probes:
        g = f
        for op in reversed(ops):
            g = op.apply_field(g)
        h = comp.apply_field(f)
        for x in xs:
            a, b = value(g(x)), value(h(x))
            worst = max(worst, abs(a - b) / (1 + abs(a) + abs(b)))
    assert worst < 1e-12


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2))
def test_compose_associative_hypothesis(i, j, k):
    n = 2
    rng = random.Random(42)
    cfg = TrigGLConfig(n=n, tau=1.3 - 0.1j, c=C)
    pool = [r_ij(cfg, 1, 2), WOp.translation(n, C, (1, 0)),
            WOp.from_field(n, C, exp_lin((0.3, -0.2)))]
    a, b, cc = pool[i], pool[j], pool[k]
    probes = make_probes(n, 2, rng)
    assert op_residual((a * b) * cc, a * (b * cc), probes, pts(2, 4)) < 1e-11


def test_flavor_mismatch_raises():
    with pytest.raises(FlavorError):
        WOp.one(2, C) * WOp.one(2, 0.5)
    with pytest.raises(FlavorError):
        WOp.one(2, C) + DiffOp.zero(2, 0.7)
    with pytest.raises(FlavorError):
        DiffOp.partial(2, 0.7, 0) * DiffOp.partial(2, 0.5, 0)


def test_dynop_is_wop_on_xi_and_x():
    n = 2
    a, w, lam = SignedPerm.sign_flip(n, 1), SignedPerm.transposition(n, 0, 1), (1, -2)
    h = exp_lin((0.2, -0.1, 0.3, 0.4))
    op = DynOp(n, C, {(a, w, lam): h})
    assert isinstance(op, WOp) and op.n == 2 * n and op.c == C
    assert op.terms == {(SignedPerm.block(a, w), (0,) * n + lam): h}
    assert list(DynOp.one(n, C).terms) == [(SignedPerm.identity(2 * n), (0,) * 2 * n)]
    # the action is f(xi, x) -> h(xi, x) f(a^-1 xi, w^-1 x + c lam)
    f = exp_lin((0.5, -0.3, 0.7, 0.1))
    for z in pts(2 * n, 3):
        xi, x = z[:n], z[n:]
        moved = a.inverse().apply_vec(xi) + tuple(
            v + C * l for v, l in zip(w.inverse().apply_vec(x), lam))
        want = value(h(z)) * value(f(moved))
        assert abs(value(op.apply_field(f)(z)) - want) < 1e-14


def test_diagonal_off_entries_have_no_terms():
    n = 2
    for op in (WOp.from_field(n, C, exp_lin((0.3, -0.2))) + WOp.translation(n, C, (1, 0)),
               DiffOp.from_field(n, 0.7, exp_lin((0.3, -0.2))) + DiffOp.partial(n, 0.7, 1)):
        mat = OperatorMatrix.diagonal(op, 3)
        for i, row in enumerate(mat.entries):
            for j, e in enumerate(row):
                if i == j:
                    assert e is op
                else:
                    # a zero of the same flavor: no terms, and op + 0 = op
                    assert type(e) is type(op) and e.terms == {}
                    assert (e + op).terms == op.terms


def test_collapse_identity_and_trig():
    n = 3
    ident = WOp.one(n, C)
    assert op_residual(ident.collapse(), ident, make_probes(n, 2, RNG), pts(3)) < 1e-15
    cfg = TrigGLConfig(n=n, tau=1.4 + 0.2j, c=C)
    fY = None
    for i in (1, 2, 3):
        Y = cherednik_gln(cfg, i)
        fY = Y if fY is None else fY + Y
    assert op_residual(fY.collapse(), mr_operator(cfg),
                       make_probes(n, 2, RNG), pts(3)) < 1e-12


def test_collapse_rational_explicit():
    rs = build_root_system("A", 3)
    cfg = RationalDunklConfig(rs, t=-0.7j, c_short=1.3j)
    _qy, L, _A = cm_split(cfg, ((1.0, 2),))
    assert op_residual(L, cm_hamiltonian_explicit(cfg),
                       make_probes(3, 2, RNG), pts(3)) < 1e-13


def test_restrict_qlp_and_symmetrizer():
    rs = build_root_system("A", 3)
    cfg = RationalDunklConfig(rs, t=-0.7j, c_short=1.3j)
    lax = lax_pair_rational(cfg)
    Lref, Aref = qlp_reference_matrices(cfg, lax.tbl)
    probes = make_probes(3, 2, RNG)
    xs = pts(3, 4)
    assert op_residual(lax.L, Lref, probes, xs) < 1e-12
    assert op_residual(lax.A, Aref, probes, xs) < 1e-12
    # symmetrizer e acts on M' as (1/m) * all-ones
    W = weyl_enumerate(rs)
    e_op = WOp.zero(3, 0.23)
    for w in W:
        e_op += WOp.from_group(3, 0.23, w, 1.0 / len(W))
    tbl = orbit_stabilizer(rs, (1, 0, 0))
    em = e_op.restrict(tbl)
    ones = OperatorMatrix([[WOp.from_scalar(3, 0.23, 1.0 / tbl.m) for _ in range(tbl.m)]
                           for _ in range(tbl.m)])
    assert op_residual(em, ones, probes, xs) < 1e-14


def test_matrix_identities():
    rs = build_root_system("A", 3)
    cfg = RationalDunklConfig(rs, t=-0.7j, c_short=1.3j)
    lax = lax_pair_rational(cfg)
    m = lax.tbl.m
    n = 3
    X = OperatorMatrix.diagonal(DiffOp.from_field(n, cfg.t, linear_form((1, 0, 0))), m)
    ident = OperatorMatrix.diagonal(DiffOp.from_field(n, cfg.t, Const(1.0 + 0j)), m)
    probes = make_probes(n, 2, RNG)
    xs = pts(3, 4)
    comm = ident * X - X * ident
    zero = OperatorMatrix.diagonal(DiffOp.zero(n, cfg.t), m)
    assert op_residual(comm, zero, probes, xs) < 1e-15
    # J L^k J = (w L^k v) J with J the all-ones matrix
    J = OperatorMatrix([[DiffOp.from_field(n, cfg.t, Const(1.0 + 0j)) for _ in range(m)]
                        for _ in range(m)])
    Lk = lax.L * lax.L
    acc = None
    for i in range(m):
        for j in range(m):
            acc = Lk.entries[i][j] if acc is None else acc + Lk.entries[i][j]
    lhs = J * Lk * J
    rhs = OperatorMatrix.diagonal(acc, m) * J
    assert op_residual(lhs, rhs, probes, xs) < 1e-11


def test_matrix_action_matches_module_action():
    rs = build_root_system("A", 3)
    cfg = RationalDunklConfig(rs, t=-0.7j, c_short=1.3j)
    rng = random.Random(9)
    y1 = dunkl(cfg, (1, 0, 0))
    tbl = orbit_stabilizer(rs, (1, 0, 0))
    mat = y1.restrict(tbl)
    vec = make_probes(3, tbl.m, rng)
    direct = module_apply_diffop(y1, module_inject(tbl, vec))
    viamat = module_inject(tbl, mat.apply_vector(vec))
    assert module_residual(direct, viamat, pts(3, 6)) < 1e-10
    # and for a difference operator
    cfgt = TrigGLConfig(n=3, tau=1.4 + 0.2j, c=C)
    Y1 = cherednik_gln(cfgt, 1)
    matt = Y1.restrict(tbl)
    directt = module_apply_wop(Y1, module_inject(tbl, vec))
    viamatt = module_inject(tbl, matt.apply_vector(vec))
    assert module_residual(directt, viamatt, pts(3, 6)) < 1e-10


def test_restriction_gate_rejects_noninvariant():
    rs = build_root_system("A", 3)
    tbl = orbit_stabilizer(rs, (1, 0, 0))
    bad = WOp.from_field(3, C, linear_form((0, 1, 0)))  # x_2 is not W'-invariant
    probes = make_probes(3, 2, RNG)
    with pytest.raises(RestrictionError):
        restrict_to_matrix(bad, tbl, probes=probes, points=pts(3, 3))


def test_op_equal_self_and_sensitivity():
    cfg = TrigGLConfig(n=2, tau=1.2 + 0.1j, c=C)
    R = r_ij(cfg, 1, 2)
    probes = make_probes(2, 3, RNG)
    xs = pts(2, 5)
    assert op_residual(R, R, probes, xs) == 0.0
    perturbed = R.scale(1 + 1e-3)
    assert op_residual(R, perturbed, probes, xs) > 1e-5


def test_equivariance_of_trig_r_matrices():
    # w R(alpha) w^-1 = R(w alpha) for finite permutations
    cfg = TrigGLConfig(n=3, tau=1.4 + 0.2j, c=C)
    R12 = r_ij(cfg, 1, 2)
    w = SignedPerm((1, 3, 2))  # swaps 2,3
    lhs = WOp.from_group(3, C, w) * R12 * WOp.from_group(3, C, w.inverse())
    rhs = r_ij(cfg, 1, 3)
    assert op_residual(lhs, rhs, make_probes(3, 2, RNG), pts(3)) < 1e-13


def test_pole_guard_raises_in_coefficients():
    from laxkit.fields import PoleError
    f = inv_form((1, -1))
    with pytest.raises(PoleError, match="linear form"):
        f((0.5, 0.5 + 1e-9))


def test_faithfulness_spot_check():
    """Distinct term-basis elements act differently on the module (sanity
    spot check of the representation's injectivity, not a proof)."""
    rs = build_root_system("A", 3)
    W = weyl_enumerate(rs)
    probe = make_probes(3, 1, random.Random(31))[0]
    xs = pts(3, 3)
    seen = []
    for w in W:
        op = WOp.from_group(3, C, w)
        vals = tuple(value(op.apply_field(probe)(x)) for x in xs)
        assert all(max(abs(a - b) for a, b in zip(vals, old)) > 1e-6
                   for old in seen)
        seen.append(vals)


def test_sampling_error_when_all_points_rejected():
    """The draw after MAX_POINT_TRIES rejected ones raises, if it is
    rejected too."""
    from laxkit.fields import PoleError
    from laxkit.verify import MAX_POINT_TRIES, PointPolicy, run_point_max
    calls = []

    def always_pole(x):
        calls.append(x)
        raise PoleError("synthetic")
    with pytest.raises(PoleError, match="rejected"):
        run_point_max(always_pole, random.Random(0), PointPolicy(2), 3)
    assert len(calls) == MAX_POINT_TRIES + 1


def test_a_nan_residual_reads_as_inf():
    from laxkit.opcore import residual_pair
    nan, inf = float("nan"), float("inf")
    assert residual_pair(nan, 1.0) == residual_pair(1.0, complex(0.0, nan)) == inf
    assert residual_pair(inf, 1.0) == inf
    assert residual_pair(2.0, 1.0) == 0.25


def test_module_vector_wrapper():
    from identities import ModuleVector
    rs = build_root_system("A", 3)
    cfg = RationalDunklConfig(rs, t=-0.7j, c_short=1.3j)
    y1 = dunkl(cfg, (1, 0, 0))
    tbl = orbit_stabilizer(rs, (1, 0, 0))
    vec = ModuleVector(tbl, make_probes(3, tbl.m, random.Random(61)))
    image = vec.apply_matrix(y1.restrict(tbl))
    direct = module_apply_diffop(y1, vec.expand())
    assert module_residual(direct, image.expand(), pts(3, 4)) < 1e-10
    with pytest.raises(ValueError):
        ModuleVector(tbl, [Const(1.0)])


def test_op_equal_check_object():
    cfg = TrigGLConfig(n=2, tau=1.2 + 0.1j, c=C)
    R = r_ij(cfg, 1, 2)
    chk = scalar_check("self", 1e-10,
                       op_residual(R, R, make_probes(2, 2, RNG), pts(2, 3)))
    assert chk.passed and chk.residual == 0.0
    chk2 = scalar_check("perturbed", 1e-10,
                        op_residual(R, R.scale(1 + 1e-3), make_probes(2, 2, RNG),
                                    pts(2, 3)))
    assert not chk2.passed


@pytest.mark.parametrize("t", [1.0, 0.7 - 0.2j])
def test_diffop_phase_field_sums_the_symbol_components(t):
    cfg = RationalDunklConfig(build_root_system("A", 3), t=t, c_short=0.6 + 0.1j)
    qy, _L, _A = cm_split(cfg)
    ws = dict.fromkeys(w for (w, _m) in qy.terms)
    assert len(ws) > 1
    z = (0.31 + 0.05j, -0.42 + 0.02j, 0.07 - 0.03j, 0.5 - 0.1j, -0.3 + 0.2j, 0.8)
    x, p = z[:3], z[3:]
    want = sum(qy.symbol_component(w, x, p) for w in ws)
    got = value(qy.phase_field()(z))
    assert abs(got - want) < 1e-13 * (1 + abs(want))


def test_dunkl_product_differentiates_no_constant(monkeypatch):
    """The product of two Dunkl operators holds derivative leaves of the
    guarded 1/z, and none comes from a ``Const``: the Leibniz sum of a
    constant coefficient keeps its leading term only."""
    differentiated = []
    monkeypatch.setattr(Const, "_derived", lambda f, d: differentiated.append(f) or ZERO)
    cfg = RationalDunklConfig(build_root_system("A", 3), t=0.7 - 0.2j, c_short=0.6 + 0.1j)
    y0, y1 = (dunkl(cfg, tuple(float(i == j) for j in range(3))) for i in (0, 1))
    nodes = field_nodes(list((y0 * y1).terms.values()))
    dinv = inv_form((1.0, -1.0, 0.0)).deriv((1.0, 0.0, 0.0)).f.fn
    assert any(isinstance(f, LinArg) and f.fn is dinv for f in nodes)
    assert differentiated == []
