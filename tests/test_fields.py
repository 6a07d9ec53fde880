"""Field evaluation: one tape per root set over the shared field DAG, with
derivatives built on the DAG by rule, its gradient by a function generated
for the tape, and the structure shared at construction (affine images,
derivative nodes and leaf kernels equal by value)."""

import gc
import random
import re

import pytest
from support import directional, interpreted_gradient, seed

from laxkit import fields, special, suites
from laxkit.cli import main as cli_main
from laxkit.dual import Dual, d_exp, gradient_vec, value
from laxkit.ellcm import v_form, wp_form
from laxkit.fields import (ZERO, BiArg, Const, Field, LinArg, PoleError, Quot,
                           Scale, Tape, derivative, exp_lin, inv_form, linear_form,
                           momentum)
from laxkit.koorn import CCnParams, koornwinder_lax
from laxkit.opcore import OperatorMatrix, WOp, field_dmulti
from laxkit.special import sigma, sigma_form
from laxkit.suites import (RunConfig, build_suite, classical_flow_setup,
                           default_params)
from laxkit.trig import TrigGLConfig, a_field
from laxkit.verify import (CheckResult, flow_time_scale, hamiltonian_flow,
                           matrix_fn_from_fields, residual_evalfn,
                           spectral_invariants, trace_powers)
from laxkit.weyl import SignedPerm

N = 4                                   # phase points (x1, x2, p1, p2)
W = SignedPerm.transposition(N, 0, 1)
V = (0.11 + 0.05j, -0.2j, 0.07, 0.0)
Z = (0.31 + 0.12j, -0.45 + 0.03j, 0.2 - 0.1j, 0.6 + 0.05j)
DIR = (1.0, 0.5, 0.0, -0.25)


def bits(v):
    """Exact bit pattern of a complex or (nested) Dual value."""
    if isinstance(v, Dual):
        return ("dual", bits(v.val), bits(v.eps))
    v = complex(v)
    return (v.real.hex(), v.imag.hex())


def components(v):
    """The complex components of a complex or (nested) Dual value."""
    if isinstance(v, Dual):
        return components(v.val) + components(v.eps)
    return [complex(v)]


def build(shared):
    """One expression, either with shared subtrees and shared leaf kernels
    (``shared``) or as a fresh tree in which no node or kernel is reused.

    The shared subtree ``s`` sits in the outer tree and also under a Quot
    and a derivative; its x-space copy ``sx``, whose forms have two
    coordinates, reads only the first two of the point; ``s.o_affine(W, V)``
    makes leaf copies whose keys equal those of an explicit leaf elsewhere
    in the tree, and a derivative of a moved product is taken after the
    move.  The ``BiArg`` ``b``, which has no derivative rule, sits outside
    the differentiated parts.
    """
    cache = {}

    def kernel(fn):
        return fn if shared else (lambda *z: fn(*z))

    def node(name):
        if shared and name in cache:
            return cache[name]
        if name == "s":
            out = (LinArg(kernel(d_exp), (0.3, -0.7, 1.1, 0.5), 0.1j)
                   * linear_form((1.0, 2.0, 0.0, 0.0), 0.25) + 0.5)
        elif name == "sx":
            out = LinArg(kernel(d_exp), (0.3, -0.7), 0.1j) * linear_form((1.0, 2.0), 0.25) + 0.5
        elif name == "b":
            out = BiArg(kernel(lambda a, b: d_exp(a) * b * b), (1.0, 0.0, -1.0),
                        (0.0, 0.5, 0.0, 1.0), 0.2, -0.1j)
        elif name == "t":
            out = 1.7 + LinArg(kernel(d_exp), (0.0, 0.4, -0.3, 0.0), -0.05)
        else:
            raise KeyError(name)
        cache[name] = out
        return out

    s, t = node("s"), node("t")
    copy = LinArg(d_exp, (0.3, -0.7, 1.1, 0.5), 0.1j).o_affine(W, V)
    shifted = LinArg(kernel(d_exp), copy.k, copy.c0)
    return (s * node("s").o_affine(W, V)
            + Quot(node("s") + node("b"), t)
            - node("sx") * node("s").deriv(DIR)
            + Scale(2.0, (node("s") + node("b")).o_affine(W, V)) * shifted
            + (node("s") * node("t").deriv(DIR)).o_affine(None, V).deriv(DIR))


@pytest.mark.parametrize("point", [Z, seed(Z, DIR)], ids=["complex", "dual"])
def test_memoized_value_equals_fresh_tree_bit_for_bit(point):
    got = build(shared=True)(point)
    want = build(shared=False)(point)
    assert isinstance(got, Dual) == isinstance(point[0], Dual)
    assert bits(got) == bits(want)
    # several roots in one tape give the values each root gives alone
    roots = [build(shared=True), build(shared=False)]
    assert [bits(v) for v in Tape(roots)(point)] == [bits(want)] * 2


def counting(fn):
    """A kernel wrapper that records the argument of every call."""
    calls = []

    def kernel(z):
        calls.append(value(z))
        return fn(z)
    return kernel, calls


def _shared_kernel_matrix(make):
    """A 2 x 2 matrix of equal operators whose 8 coefficients are each built
    by a separate call of ``make``."""
    n, c = 2, 0.3
    ident = SignedPerm.identity(n)

    def op():
        return WOp(n, c, {(ident, (1, 0)): make(), (ident, (0, 1)): 2.0 * make()})
    return OperatorMatrix([[op(), op()], [op(), op()]])


def logged(monkeypatch, module, name):
    """Replace ``module.name`` by a wrapper that records every call."""
    calls = []
    fn = getattr(module, name)

    def wrapper(*args):
        calls.append(args)
        return fn(*args)
    monkeypatch.setattr(module, name, wrapper)
    return calls


TRIG = TrigGLConfig(n=2, tau=0.8 + 0.1j, c=0.3)
MU, TAU = 0.31 - 0.02j, 0.3 + 0.8j


def test_shared_kernel_runs_once_per_point_in_residual_evalfn(monkeypatch):
    fn, calls = counting(d_exp)
    h = LinArg(fn, (1.0, -1.0), 0.2j)
    # one object, then kernels built by separate calls with equal parameters,
    # each with the log of a function its kernel calls at a plain point and
    # the number of calls per run: the Hecke kernel takes one e^z (``d_exp``,
    # which serves its plain and Dual arguments), and the sigma kernel reads
    # the jets at z - mu and at z
    cases = [(lambda: h, calls, 1),
             (lambda: a_field(TRIG, 1, 2), logged(monkeypatch, special, "d_exp"), 1),
             (lambda: sigma_form(MU, (1.0, -1.0), TAU), logged(monkeypatch, special, "_jets"), 2)]
    for make, kernel_calls, per_run in cases:
        assert [kind for kind, _a, _b in Tape([make(), make()]).code] == [fields._LEAF]
        probe_fn, probe_calls = counting(d_exp)
        probe = LinArg(probe_fn, (0.5, 0.25))
        m = _shared_kernel_matrix(make)
        evalfn = residual_evalfn(m, m, [probe])
        for x in [(0.3 + 0.1j, -0.2 + 0.05j), (0.1 - 0.1j, 0.4 + 0.02j)]:
            kernel_calls.clear()
            probe_calls.clear()
            assert evalfn(x) == 0.0
            # 8 roots share one h and two shifted probe copies (t(1,0), t(0,1))
            assert len(kernel_calls) == per_run
            assert len(probe_calls) == 2


@pytest.mark.parametrize("pair", [
    (sigma_form(complex(0.31, 0.0), (1.0, -1.0), TAU),
     sigma_form(complex(0.31, -0.0), (1.0, -1.0), TAU)),
    (a_field(TrigGLConfig(n=2, tau=complex(0.8, 0.0), c=0.3), 1, 2),
     a_field(TrigGLConfig(n=2, tau=complex(0.8, -0.0), c=0.3), 1, 2)),
], ids=["sigma-mu-signed-zero", "a-tau-signed-zero"])
def test_kernels_apart_in_bits_or_name_stay_two_leaves(pair):
    assert [kind for kind, _a, _b in Tape(list(pair)).code] == [fields._LEAF] * 2


def test_inv_forms_of_one_guard_share_one_kernel():
    """inv_form has one kernel per guard: leaves on two forms hold one
    kernel object, so do the 1/<a,x> leaves that the rational Dunkl
    operators and the Lax pair build, and the pole message names no form."""
    f, g = inv_form((1.0, -1.0)), inv_form((0.0, 1.0), 0.5)
    assert f.fn is g.fn
    assert inv_form((1.0, -1.0), guard=1e-2).fn is not f.fn
    H, Lf, _n, _powers, _z0 = _flow_setup("rational-A")
    for tape in (Tape([H]), Tape([e for row in Lf for e in row])):
        assert {a.fn for kind, a, _s in tape.code if kind == fields._LEAF} == {f.fn, None}
    with pytest.raises(PoleError) as err:
        g((0.3, -0.5 + 1e-5j))
    assert str(err.value) == "|linear form| = 1.00e-05 below pole guard 0.001"


def test_pole_error_propagates_and_no_value_survives_the_point():
    fn, calls = counting(d_exp)
    pole = inv_form((1.0, 0.0), 0j, guard=1e-2)
    h = LinArg(fn, (1.0, 1.0)) * pole
    m = _shared_kernel_matrix(lambda: h)
    evalfn = residual_evalfn(m, None, [exp_lin((0.5, 0.25))])
    with pytest.raises(PoleError, match=r"\|linear form\| = 1\.00e-03 below pole guard 0\.01"):
        evalfn((1e-3 + 0j, 0.2 + 0.1j))
    assert len(calls) == 1                  # h's kernel ran before the pole
    x = (0.3 + 0.1j, -0.2 + 0.05j)
    for _ in range(2):
        calls.clear()
        r = evalfn(x)
        assert len(calls) == 1
        assert r == residual_evalfn(_shared_kernel_matrix(
            lambda: LinArg(d_exp, (1.0, 1.0)) * inv_form((1.0, 0.0), 0j, guard=1e-2)),
            None, [exp_lin((0.5, 0.25))])(x)


def test_first_pole_error_is_the_leftmost():
    # one kernel on two forms: the |z| in the message tells the leaves apart
    left = inv_form((1.0,), 0j)
    right = inv_form((1.0,), 2e-5)
    with pytest.raises(PoleError, match="= 1.00e-05 "):
        Tape([left * 2.0, right + left])((1e-5 + 0j,))
    with pytest.raises(PoleError, match="= 3.00e-05 "):
        Tape([right + left, left])((1e-5 + 0j,))


DIR2 = (0.0, 1.0, -0.5, 0.3)
_G = (sigma_form(MU, (0.7, -1.2, 0.0, 0.4), TAU, 0.05j) * linear_form((0.3, 0.0, -0.6, 1.1), 0.2)
      + exp_lin((0.0, 0.2, 0.1, -0.3)))
_X = LinArg(d_exp, (1.0, -0.5), 0.1j) * linear_form((0.2, 0.7))
# (base, directions, n): the root D_dirs base; an x-space base of n
# coordinates (n not None) reads the first n coordinates of the point
DERIV_ROOTS = {
    "first": (_G, (DIR,), None),
    "second": (_G, (DIR, DIR), None),
    "mixed": (_G, (DIR, DIR2), None),
    "base-holds-deriv": (_G * _G.deriv(DIR2) + derivative(_G, (DIR2, DIR)), (DIR,), None),
    "x-space": (_X, ((1.0, 0.5), (0.0, -2.0)), 2),
}


@pytest.mark.parametrize("point", [Z, seed(Z, DIR2)], ids=["complex", "dual"])
def test_derivative_roots_equal_directional(point):
    """Derivative roots of one tape, built by rule, equal ``directional`` of
    their base to 1e-12 relative."""
    roots = [derivative(base, dirs) for base, dirs, _n in DERIV_ROOTS.values()]
    got = Tape(roots)(point)
    for (base, dirs, n), v in zip(DERIV_ROOTS.values(), got):
        want = components(directional(base, point if n is None else point[:n], dirs))
        scale = max(map(abs, want))
        assert all(abs(g - w) <= 1e-12 * scale for g, w in zip(components(v), want, strict=True))


def test_first_pole_error_of_a_derivative_leaf_is_the_leftmost():
    """A derivative leaf of the guarded 1/z raises the guard's message, and
    the first one in tape order is the one raised."""
    left = inv_form((1.0,), 0j)
    right = inv_form((1.0,), 2e-5)
    d = (1.0,)
    with pytest.raises(PoleError, match="= 1.00e-05 "):
        Tape([(left * 2.0).deriv(d), (right + left).deriv(d)])((1e-5 + 0j,))
    with pytest.raises(PoleError, match="= 3.00e-05 "):
        Tape([(right + left).deriv(d), left.deriv(d)])((1e-5 + 0j,))
    with pytest.raises(PoleError, match="= 3.00e-05 "):
        Tape([exp_lin((1.0,)), derivative(right + left, (d, d))])((1e-5 + 0j,))


def test_derivs_of_one_direction_run_a_shared_kernel_once_per_point():
    """The leaf and its one derivative leaf each run once per point, however
    many derivatives of one direction read them: the kernel is called once
    for the value and once inside the derivative kernel."""
    fn, calls = counting(d_exp)
    leaf = LinArg(fn, (1.0, -0.5, 0.0, 0.2))
    tape = Tape([(2.0 * leaf).deriv(DIR), (leaf * leaf + 1.0).deriv(DIR)])
    assert [kind for kind, _a, _b in tape.code].count(fields._LEAF) == 2
    for point in (Z, seed(Z, DIR2)):
        calls.clear()
        tape(point)
        assert len(calls) == 2


def test_a_probes_derivatives_read_the_probes_own_leaf():
    """d_exp is its own derivative, so a probe and its derivatives of every
    order share one leaf instruction; any other kernel has one derivative
    kernel, shared by its leaves on every form."""
    probe = exp_lin((0.3, -0.7, 1.1, 0.5))
    tape = Tape([probe, probe.deriv(DIR), derivative(probe * probe, (DIR, DIR2))])
    assert [kind for kind, _a, _b in tape.code].count(fields._LEAF) == 1
    f, g = inv_form((1.0, -1.0, 0.0, 0.0)), inv_form((0.0, 1.0, 0.5, 0.0), 0.5)
    assert f.deriv(DIR).f.fn is g.deriv(DIR2).f.fn is not f.fn
    assert derivative(f, (DIR, DIR)).f.fn is g.deriv(DIR).f.fn.dz


_BIARG = BiArg(lambda a, b: a * b, (1.0, 0.0, 0.0, 0.0), (0.0, 1.0, 0.0, 0.0))


@pytest.mark.parametrize("node", [_BIARG], ids=["BiArg"])
def test_nodes_without_a_derivative_rule_refuse_one(node):
    for f in (node, exp_lin(DIR) * node):
        with pytest.raises(TypeError, match=type(node).__name__):
            f.deriv(DIR)


def test_a_gradient_through_a_biarg_refuses():
    """A ``BiArg`` has no adjoint rule: the generated gradient of a field
    holding one raises ``TypeError`` naming it, while its value stays."""
    for f in (_BIARG, exp_lin(DIR) * _BIARG):
        with pytest.raises(TypeError, match="BiArg"):
            gradient_vec(f, Z)
    assert _BIARG(Z) == Z[0] * Z[1]


_KERNEL_FORM = (1.0, -1.0, 0.5, 0.0)
# one leaf per kernel family; the points below keep each argument at least
# 0.2 from the poles of sigma, wp and v and from 1/z's
KERNEL_FAMILIES = {
    "d_exp": exp_lin((0.4 - 0.2j, 1.1, -0.7, 0.3)),
    "inv": inv_form(_KERNEL_FORM, 0.5),
    "sigma": sigma_form(MU, _KERNEL_FORM, TAU, 0.5),
    "wp": wp_form(_KERNEL_FORM, TAU, 0.5),
    "v": v_form(0.22 + 0.03j, _KERNEL_FORM, (0.8j, -0.4j, 0.6j, 0.3j), TAU),
}


@pytest.mark.parametrize("order", [1, 2, 3, 4])
@pytest.mark.parametrize("family", KERNEL_FAMILIES)
def test_kernel_derivatives_by_rule_equal_directional(family, order):
    f = KERNEL_FAMILIES[family]
    rng = random.Random(f"{family}:{order}")
    for _ in range(5):
        x = tuple(complex(rng.uniform(-0.1, 0.1), rng.uniform(-0.1, 0.1)) for _ in range(N))
        dirs = tuple(tuple(rng.uniform(-1.0, 1.0) for _ in range(N)) for _ in range(order))
        want = directional(f, x, dirs)
        assert abs(derivative(f, dirs)(x) - want) <= 1e-12 * abs(want)


@pytest.mark.parametrize("family", KERNEL_FAMILIES)
def test_dz_is_the_derivative_along_a_direction_of_unit_slope(family):
    """``LinArg.dz`` is the leaf that ``deriv`` scales by <k, d>: at
    <k, d> = 1 their values are equal by repr, and one tape gives both a
    single leaf instruction."""
    f = KERNEL_FAMILIES[family]
    j = max(range(N), key=lambda i: abs(f.k[i]))
    d = tuple(1.0 / f.k[j] if i == j else 0.0 for i in range(N))
    assert f.k[j] * d[j] == 1
    g, h = f.deriv(d), f.dz()
    assert isinstance(g, Scale) and (g.f.fn, g.f.k, g.f.c0) == (h.fn, h.k, h.c0)
    tape = Tape([h, g])
    assert [kind for kind, _a, _b in tape.code].count(fields._LEAF) == 1
    rng = random.Random(family)
    for _ in range(5):
        x = tuple(complex(rng.uniform(-0.1, 0.1), rng.uniform(-0.1, 0.1)) for _ in range(N))
        dz, dd = tape(x)
        assert repr(dz) == repr(dd) == repr(h(x))


def test_rational_suite_tapes_compile_no_tape_at_their_points(monkeypatch):
    """A residual tape holds its derivatives: evaluating it compiles no
    other tape, at the first point or at a later one."""
    evalfns = []

    def run_check(name, tol, evalfn, *_args):
        evalfns.append(evalfn)
        return CheckResult(name, 0.0, tol, True)
    monkeypatch.setattr(suites, "run_check", run_check)
    build_suite(RunConfig(system="rational-A", rank=3, params=default_params("rational-A")))
    compiled = []
    init = Tape.__init__

    def counting_init(tape, roots):
        compiled.append(roots)
        init(tape, roots)
    monkeypatch.setattr(Tape, "__init__", counting_init)
    for x in [(0.31 + 0.05j, -0.52 + 0.02j, 0.14 - 0.03j), (-0.6 + 0.1j, 0.2, 0.45 - 0.07j)]:
        for evalfn in evalfns:
            evalfn(x)
    assert len(evalfns) == 7 and compiled == []


def test_seed_refuses_a_direction_of_another_length():
    with pytest.raises(ValueError):
        seed(Z, DIR[:2])
    # a derivative refuses a direction of another length than a form's when
    # it is built: a phase-space direction on an x-space form, and back
    for f, d in ((exp_lin((0.3, -0.2)), DIR), (linear_form((0.3, -0.2, 0.0, 1.0)), DIR[:2]),
                 (inv_form((1.0, 0.5)) * exp_lin((0.2, 0.1, 0.0, 0.0)), (1.0, 0.0))):
        with pytest.raises(ValueError):
            f.deriv(d)


@pytest.mark.parametrize("w, v", [(SignedPerm.sign_flip(N, 1), None),
                                  (None, V), (SignedPerm((2, -3, 1, 4)), V)],
                         ids=["sign-flip", "shift", "signed-cycle-and-shift"])
def test_moved_derivative_is_the_derivative_read_at_the_moved_point(w, v):
    f = (LinArg(d_exp, (0.3, -0.7, 1.1, 0.5), 0.1j)
         * Quot(sigma_form(MU, (1.0, 0.0, -1.0, 0.0), TAU, 0.2), 1.5 + linear_form(DIR2)))
    dirs = (DIR, (0.0, 1.0, -0.5, 0.3))
    moved = derivative(f, dirs).o_affine(w, v)
    y = w.apply_vec(Z) if w is not None else Z
    if v is not None:
        y = tuple(a + b for a, b in zip(y, v))
    want = directional(f, y, dirs)
    assert abs(moved(Z) - want) < 1e-13 * (1 + abs(want))


def gradient_matches_directional(f, z):
    """gradient_vec of f at z equals directional along each basis vector to
    1e-13 relative (an exactly zero partial to 1e-13 of the largest)."""
    got = gradient_vec(f, z)
    want = [directional(f, z, [tuple(float(i == j) for j in range(len(z)))])
            for i in range(len(z))]
    scale = max(abs(w) for w in want)
    return len(got) == len(z) and all(abs(g - w) <= 1e-13 * (abs(w) or scale)
                                      for g, w in zip(got, want))


def _kernel(z):
    return sigma(0.31 - 0.02j, z, 0.3 + 0.8j)


_LEAF = LinArg(_kernel, (0.7, -1.2, 0.0, 0.4), 0.05j)
_FORM = linear_form((0.3, 0.0, -0.6, 1.1), 0.2)
_XLEAF = LinArg(d_exp, (1.0, -0.5))
# the three inputs named after XLift read x-space parts (forms of two or
# three coordinates) on the phase point, one of them under a derivative
INSTRUCTION_KINDS = {
    "Const": Const(0.7 - 0.2j) * _LEAF,
    "LinArg-kernel": _LEAF,
    "LinArg-form": _FORM,
    "Scale": Scale(2.5 - 1.0j, _LEAF),
    "NSum": _LEAF + _FORM + exp_lin((0.0, 0.2, 0.1, 0.0)),
    "Prod": _LEAF * _FORM,
    "Quot": Quot(_LEAF, 1.5 + _FORM),
    "XLift-shared-scope": ((2.0 * _XLEAF) * momentum(2, 0)
                           + (_XLEAF * _XLEAF) * exp_lin((0.4, 0.0, 0.0, 0.3))),
    "XLift-two-scopes": ((exp_lin((1.0, -0.5)) * linear_form((0.2, 0.9))) * _FORM
                         + (_XLEAF * exp_lin((0.3, 0.7, -0.2))) * _LEAF),
    "Deriv": derivative(_LEAF * _FORM, (DIR,)),
    "Deriv-paired-kernel": derivative(sigma_form(MU, (0.7, -1.2, 0.0, 0.4), TAU) * _FORM,
                                      (DIR,)),
    "Deriv-nested-under-XLift": (derivative(_XLEAF * _XLEAF.deriv((0.3, 1.0)), ((1.0, -0.5),))
                                 * momentum(2, 0) + _LEAF * _XLEAF.deriv((0.0, 1.0))),
    # constant subtrees, which read no coordinate, under a leaf's product,
    # and a sum whose parts take its adjoint as theirs
    "Scale-of-Const": _LEAF * Scale(2.5 - 1.0j, Const(0.4 + 0.3j)),
    "Sum-of-Consts": _LEAF * fields.NSum([Const(0.7 - 0.2j), Const(-1.1 + 0j)]),
    "Prod-of-Consts": fields.Prod(Const(0.7 - 0.2j), Const(1.3 + 0.5j)) * _LEAF,
    "Quot-of-Consts": _LEAF * Quot(Const(0.7 - 0.2j), Const(1.3 + 0.5j)),
    "Sum-under-Prod": (_LEAF + _FORM * _FORM + exp_lin((0.0, 0.0, 0.0, 0.0))) * _FORM,
    # forward values the generated source folds, shares or does not compute
    "Fold-of-Fold": Scale(2.0, fields.Prod(Const(0.7 - 0.2j), Const(1.3 + 0.5j))) * _LEAF,
    "Equal-Prods": (fields.Prod(Const(0.7 - 0.2j), Const(1.3 + 0.5j)) * _LEAF
                    + fields.Prod(_LEAF, _FORM) * fields.Prod(_LEAF, _FORM)),
}


@pytest.mark.parametrize("kind", INSTRUCTION_KINDS)
def test_gradient_is_the_directional_derivative_per_basis_vector(kind):
    assert gradient_matches_directional(INSTRUCTION_KINDS[kind], Z)


def reprs(values):
    return [repr(v) for v in values]


@pytest.mark.parametrize("kind", INSTRUCTION_KINDS)
def test_generated_gradient_is_the_interpreted_one_bit_for_bit(kind):
    tape = INSTRUCTION_KINDS[kind].tape()
    assert reprs(tape.gradient(Z)) == reprs(interpreted_gradient(tape, Z))


def reads_a_coordinate(tape):
    """Per slot of ``tape``, whether a leaf below it reads a coordinate."""
    out = []
    for kind, a, b in tape.code:
        if kind == fields._LEAF:
            out.append(any(kj != 0 for kj in a.k))
        elif kind == fields._SUM:
            out.append(any(out[j] for j in a))
        elif kind == fields._SCALE:
            out.append(out[b])
        elif kind == fields._CONST:
            out.append(False)
        else:
            out.append(out[a] or out[b])
    return out


@pytest.mark.parametrize("kind", INSTRUCTION_KINDS)
def test_generated_gradient_writes_live_adjoints_only(kind):
    """The generated source writes no adjoint (and no quotient adjoint q) for
    a slot that reads no coordinate, and no adjoint that only copies a
    sum's adjoint; a quotient's q, which is not folded from 0j, is never
    taken as another slot's adjoint."""
    tape = INSTRUCTION_KINDS[kind].tape()
    src, _names = fields._gradient_source(tape, len(Z))
    lines = src.splitlines()
    live = reads_a_coordinate(tape)
    written = {int(line.split(" = ")[0].strip()[1:]) for line in lines
               if line.startswith(("    a", "    q"))}
    assert all(live[i] for i in written)
    assert [line for line in lines
            if re.fullmatch(r"    a\d+ = (0j \+ )?(a\d+|seed)", line)] == []
    for i, (op, a, _b) in enumerate(tape.code):
        if op == fields._QUOT and live[a]:
            assert f"    a{a} = 0j + q{i}" in lines


def forward_lines(tape, src):
    """The lines of a generated source that compute a forward value other
    than a leaf's."""
    return [line for line in src.splitlines()
            if (m := re.match(r"    v(\d+) = ", line))
            and tape.code[int(m.group(1))][0] != fields._LEAF]


def test_generated_forward_section_folds_shares_and_drops():
    """Of the forward values of (c1 c2) leaf + (leaf form)(leaf form), with
    the two products leaf form built apart, the generated source computes
    one, the product leaf form: c1 c2 is folded, the second product reads
    the first one's value, and the value of the root and of its parts, which
    no adjoint reads, is not computed."""
    tape = INSTRUCTION_KINDS["Equal-Prods"].tape()
    src, _names = fields._gradient_source(tape, len(Z))
    [line] = forward_lines(tape, src)
    assert re.fullmatch(r"    v\d+ = v\d+ \* v\d+", line)


def test_a_constant_fold_that_raises_keeps_its_line():
    """1/0 on constants is not folded: its line stays, even where no adjoint
    reads it, and raises ZeroDivisionError after the leaves before it, as
    the interpreter does."""
    for f in (_LEAF * Quot(Const(1.0 + 0j), Const(0j)),
              _LEAF + Quot(Const(1.0 + 0j), Const(0j))):
        tape = f.tape()
        assert len(forward_lines(tape, fields._gradient_source(tape, len(Z))[0])) == 1
        with pytest.raises(ZeroDivisionError):
            tape.gradient(Z)
        with pytest.raises(ZeroDivisionError):
            interpreted_gradient(tape, Z)


def test_generated_gradient_of_a_sum_of_thousands_of_terms():
    """A sum and an adjoint of 3000 terms, which one line of source could not
    nest, and a point of no coordinate."""
    f = sum((linear_form((1.0, 0.5 - 0.1 * (i % 7)), 1e-3 * i) * exp_lin((0.0, 0.01 * i))
             for i in range(3000)), Const(0j))
    tape = f.tape()
    x = (0.3 + 0.1j, -0.2 + 0.05j)
    assert reprs(tape.gradient(x)) == reprs(interpreted_gradient(tape, x))
    assert Tape([Const(2.0 + 0j)]).gradient(()) == []


def test_generated_gradient_raises_the_leftmost_pole_error():
    """Two guarded leaves both past their guards: the generated gradient
    raises the first one's message in tape order, as the interpreter does."""
    left = inv_form((1.0, 0.0), 0j)
    right = inv_form((1.0, 0.0), 2e-5)
    for tape, want in ((Tape([left * exp_lin((0.0, 1.0)) + right]), "= 1.00e-05 "),
                       (Tape([right * exp_lin((0.0, 1.0)) + left]), "= 3.00e-05 ")):
        x = (1e-5 + 0j, 0.3 - 0.1j)
        with pytest.raises(PoleError, match=want) as got:
            tape.gradient(x)
        with pytest.raises(PoleError) as oracle:
            interpreted_gradient(tape, x)
        assert str(got.value) == str(oracle.value)


FLOW_RANKS = {"rational-A": 3, "trig-gln": 3, "inozemtsev": 2, "koornwinder": 2,
              "vandiejen": 2}


def _flow_setup(system):
    rank = FLOW_RANKS[system]
    return classical_flow_setup(RunConfig(system=system, rank=rank,
                                          params=default_params(system)))


@pytest.mark.parametrize("system", FLOW_RANKS)
def test_flow_gradients_are_the_interpreted_ones_bit_for_bit(system):
    """The generated gradients of a flow's H tape and of its time-scaled H
    tape (``scaled_flow``'s) at z0 and at 5 seeded nearby points."""
    H, _Lf, n, _powers, z0 = _flow_setup(system)
    kappa = flow_time_scale(H, tuple(z0), n)
    rng = random.Random(22)
    points = [tuple(z0)] + [tuple(z + complex(rng.uniform(-1e-2, 1e-2), rng.uniform(-1e-2, 1e-2))
                                  for z in z0) for _ in range(5)]
    for f in (H, Scale(1.0 / kappa, H)):
        tape = f.tape()
        for x in points:
            assert reprs(tape.gradient(x)) == reprs(interpreted_gradient(tape, x))


@pytest.mark.parametrize("system", FLOW_RANKS)
def test_a_scale_root_runs_its_operands_gradient_bit_for_bit(system):
    """``gradient_vec`` of the time-scaled H and of -H runs H's generated
    gradient with the adjoint that the scaled tape hands to H's root, and
    gives that tape's own generated gradient bit for bit, at z0 and at 5
    seeded nearby points."""
    H, _Lf, n, _powers, z0 = _flow_setup(system)
    kappa = flow_time_scale(H, tuple(z0), n)
    rng = random.Random(27)
    points = [tuple(z0)] + [tuple(z + complex(rng.uniform(-1e-2, 1e-2), rng.uniform(-1e-2, 1e-2))
                                  for z in z0) for _ in range(5)]
    for f in (Scale(1.0 / kappa, H), Scale(-1.0, H)):
        assert f.f is H
        for x in points:
            got = reprs(gradient_vec(f, x))
            assert got == reprs(f.tape().gradient(x))
            assert got == reprs(interpreted_gradient(f.tape(), x))


# a name of the generated source: a value, slope, coordinate, adjoint or
# constant, or the seed; literals match none
SOURCE_NAME = re.compile(r"\b[a-z]+\d+\b|\bseed\b")


@pytest.mark.parametrize("system", FLOW_RANKS)
def test_flow_gradient_sources_compute_each_forward_value_once(system):
    """In the generated gradient of a flow's H, no forward line of a sum,
    scaling, product or quotient reads only constants (those are folded when
    the source is generated), no two apply one operation to the same
    operands, and every one's name is read by a later line."""
    H, _Lf, _n, _powers, z0 = _flow_setup(system)
    tape = H.tape()
    lines = fields._gradient_source(tape, len(z0))[0].splitlines()
    forward = {}                          # name -> index of its last line
    for k, line in enumerate(lines):
        m = re.match(r"    v(\d+) = ", line)
        if m and tape.code[int(m.group(1))][0] != fields._LEAF:
            forward[f"v{m.group(1)}"] = k
    rhs = [lines[k].partition(" = ")[2] for k in forward.values()]
    assert [r for r in rhs if all(re.fullmatch(r"c\d+", n) for n in SOURCE_NAME.findall(r))] == []
    assert len(set(rhs)) == len(rhs)
    unread = [v for v, k in forward.items()
              if not any(v in SOURCE_NAME.findall(line.partition(" = ")[2] or line)
                         for line in lines[k + 1:])]
    assert unread == []


@pytest.mark.parametrize("system", FLOW_RANKS)
def test_flow_gradient_adjoint_lines_repeat_no_product(system):
    """No line of the adjoint sweep in the generated gradient of a flow's H
    writes one product term twice: a square's adjoint times its operand is
    one line, read twice."""
    H, _Lf, _n, _powers, z0 = _flow_setup(system)
    lines = fields._gradient_source(H.tape(), len(z0))[0].splitlines()
    for line in lines:
        if re.match(r"    [aqtg]\d+ = ", line):
            products = [term for term in re.split(r" [+-] ", line.partition(" = ")[2])
                        if " * " in term]
            assert len(set(products)) == len(products), line


@pytest.mark.parametrize("system", FLOW_RANKS)
def test_flow_gradient_sweep_computes_each_product_once(system):
    """Over all the adjoint sweep of the generated gradient of a flow's H, no
    product is computed twice: a repeated one is bound once, (u := w * v),
    and read by name, and a slot whose adjoint is an earlier one's takes
    that one's name."""
    H, _Lf, _n, _powers, z0 = _flow_setup(system)
    lines = fields._gradient_source(H.tape(), len(z0))[0].splitlines()
    products = [re.sub(r"^\(u\d+ := (.*)\)$", r"\1", term)
                for line in lines if re.match(r"    [aqtg]\d+ = ", line)
                for term in re.split(r" [+-] ", line.partition(" = ")[2])
                if " * " in term]
    assert products and len(set(products)) == len(products)


def test_a_cli_flow_compiles_one_gradient_function(tmp_path, monkeypatch):
    """The time scale and the whole flow of H / kappa run H's one generated
    gradient, whose koornwinder source writes at most 285 lines."""
    generated = []
    source = fields._gradient_source

    def generating(tape, dim):
        out = source(tape, dim)
        generated.append(len(out[0].splitlines()))
        return out
    monkeypatch.setattr(fields, "_gradient_source", generating)
    assert cli_main(["flow", "--system", "koornwinder", "--rank", "2", "--time", "0.1",
                     "--dt", "1e-2", "--csv", str(tmp_path / "flow.csv")]) == 0
    assert len(generated) == 1 and generated[0] <= 285


@pytest.mark.parametrize("system", FLOW_RANKS)
def test_trace_powers_of_the_entry_fields_are_those_of_the_matrix(system):
    """tr L^k built as a field on the entry fields of L, called at z0, is
    tr L^k of the matrix of values at z0, to 1e-13 relative."""
    _H, Lf, _n, powers, z0 = _flow_setup(system)
    z0 = tuple(z0)
    want = trace_powers(matrix_fn_from_fields(Lf)(z0), powers)
    traces = trace_powers(Lf, powers)
    assert all(isinstance(tr, Field) for tr in traces)
    got = [tr(z0) for tr in traces]
    assert all(abs(g - w) <= 1e-13 * abs(w) for g, w in zip(got, want))


@pytest.mark.parametrize("system", FLOW_RANKS)
def test_flow_hamiltonian_gradient_is_the_directional_derivative(system):
    H, _Lf, _n, _powers, z0 = _flow_setup(system)
    assert gradient_matches_directional(H, tuple(z0))


@pytest.mark.parametrize("system", FLOW_RANKS)
def test_flow_gradient_builds_no_dual(system, monkeypatch):
    """Every kernel leaf of a flow's tapes has a pair, and the gradient of H
    at z0 reads each leaf's value and slope from it: no Dual is built."""
    H, Lf, _n, _powers, z0 = _flow_setup(system)
    for tape in (H.tape(), Tape([e for row in Lf for e in row])):
        assert all(a.fn.pair is not None for kind, a, _s in tape.code
                   if kind == fields._LEAF and a.fn is not None)
    made = []
    init = Dual.__init__

    def counting(self, *args):
        made.append(args)
        init(self, *args)
    monkeypatch.setattr(Dual, "__init__", counting)
    grad = H.tape().gradient(tuple(z0))
    assert made == [] and len(grad) == len(z0)


def test_a_flow_compiles_its_hamiltonian_and_lax_matrix_once(monkeypatch):
    """One tape each for H and the L entries, and one generated gradient
    source, H's; the L rows and a residual take no gradient."""
    H, Lf, n, powers, z0 = _flow_setup("rational-A")
    compiled, generated = [], []
    init, source = Tape.__init__, fields._gradient_source

    def counting(tape, roots):
        compiled.append(list(roots))
        init(tape, roots)

    def generating(tape, dim):
        generated.append(tape)
        return source(tape, dim)
    monkeypatch.setattr(Tape, "__init__", counting)
    monkeypatch.setattr(fields, "_gradient_source", generating)
    _t, traj = hamiltonian_flow(H, z0, T=0.1, dt=1e-2, n=n)
    assert len(traj) == 11 and compiled == [[H]] and generated == [H.tape()]
    compiled.clear()
    generated.clear()
    rows = spectral_invariants(Lf, powers, traj)
    assert len(rows) == 11 and compiled == [[e for row in Lf for e in row]]
    m = _shared_kernel_matrix(lambda: LinArg(d_exp, (1.0, -1.0), 0.2j))
    residual_evalfn(m, m, [exp_lin((0.5, 0.25))])((0.3 + 0.1j, -0.2 + 0.05j))
    assert generated == []


# leaf instructions of each flow's tapes: (H, the L entries)
FLOW_LEAVES = {"rational-A": (9, 9), "trig-gln": (9, 15), "inozemtsev": (12, 10),
               "koornwinder": (17, 21), "vandiejen": (21, 29)}
KERNEL_ARGS = (0.23 + 0.11j, -0.37 + 0.05j, 0j)


def outcome(fn, z):
    """The bits of a kernel's value at z, or its pole message there."""
    try:
        return bits(z if fn is None else fn(z))
    except PoleError as exc:
        return str(exc)


@pytest.mark.parametrize("system", FLOW_RANKS)
def test_no_two_flow_leaves_are_equal_by_value(system):
    """Leaves of one form and constant differ in their kernel's value or pole
    message at some sample argument, so no kernel runs twice per point."""
    H, Lf, _n, _powers, _z0 = _flow_setup(system)
    counts = []
    for tape in (Tape([H]), Tape([e for row in Lf for e in row])):
        groups = {}
        for kind, a, _b in tape.code:
            if kind == fields._LEAF:
                groups.setdefault((a.k, a.c0), []).append(a.fn)
        for fns in groups.values():
            outcomes = {tuple(outcome(fn, z) for z in KERNEL_ARGS) for fn in fns}
            assert len(outcomes) == len(fns)
        counts.append(sum(len(fns) for fns in groups.values()))
    assert tuple(counts) == FLOW_LEAVES[system]


def test_xlifts_at_one_phase_point_share_one_x_space_scope():
    """An x-space leaf read by several parts of a phase-space field, or of
    several roots, runs its kernel once per phase point."""
    fn, calls = counting(d_exp)
    leaf = LinArg(fn, (1.0, -0.5))
    H = (2.0 * leaf) * momentum(2, 0) + (leaf + 1.0)
    L = [leaf, momentum(2, 1) - leaf * leaf]
    for run in (H, lambda z: gradient_vec(H, z), lambda z: Tape(L)(z)):
        calls.clear()
        run(Z)
        assert len(calls) == 1


def field_nodes(roots):
    """Every distinct field object reachable from ``roots``, by identity."""
    seen = {}
    stack = list(roots)
    while stack:
        f = stack.pop()
        if id(f) in seen:
            continue
        seen[id(f)] = f
        for cls in type(f).__mro__:
            for slot in getattr(cls, "__slots__", ()):
                val = getattr(f, slot, None)
                kids = val if isinstance(val, (list, tuple)) else (val,)
                stack.extend(k for k in kids if isinstance(k, Field))
    return list(seen.values())


def test_equal_affine_map_returns_the_image_built_before():
    f = (LinArg(d_exp, (0.3, -0.7, 1.1, 0.5), 0.1j) * linear_form((1.0, 2.0, 0.0, 0.0))
         + exp_lin((0.2, 0.0, -0.4, 0.1)).deriv(DIR))
    image = f.o_affine(SignedPerm((2, 1, 3, 4)), (0.11 + 0.05j, -0.2j, 0.07, 0.0))
    assert f.o_affine(SignedPerm(W.img), V) is image
    assert f.o_group(SignedPerm(W.img)) is f.o_group(W)
    # equal but not bit-identical: a shift of -0.0 is another map
    assert f.o_affine(W, V[:3] + (-0.0,)) is not image
    want = f(tuple(a + b for a, b in zip(W.apply_vec(Z), V)))
    assert abs(image(Z) - want) < 1e-13 * (1 + abs(want))


def test_a_zero_shift_moves_a_deriv_as_it_moves_a_leaf():
    leaf = LinArg(d_exp, (0.3, -0.7, 1.1, 0.5), 0.1j)
    d = leaf.deriv(DIR)
    zero, negzero = (0.0,) * N, (-0.0,) + (0.0,) * (N - 1)
    for f in (leaf, d):
        assert f.o_affine(None, zero) is not f
        assert f.o_affine(None, negzero) is not f.o_affine(None, zero)
    # the identity map with no shift returns the node itself
    assert d.o_affine(None, None) is d and d.o_group(SignedPerm.identity(N)) is d


def test_no_node_built_by_a_suite_holds_itself_in_its_image_memo():
    gc.collect()
    gc.disable()
    try:
        build_suite(RunConfig(system="rational-C", rank=2,
                              params=default_params("rational-C")))
        selfish = [f for f in gc.get_objects() if isinstance(f, Field)
                   and any(img is f for img in getattr(f, "_images", {}).values())]
    finally:
        gc.enable()
    assert selfish == []


def test_subtree_shared_by_two_parents_stays_shared_in_both_images():
    s = LinArg(d_exp, (0.3, -0.7, 1.1, 0.5), 0.1j) + linear_form((1.0, 2.0, 0.0, 0.0))
    p1 = s * exp_lin((0.0, 1.0, 0.0, 0.0))
    p2 = Quot(1.5 + linear_form((0.0, 0.0, 1.0, 0.0)), s)
    i1, i2 = p1.o_affine(W, V), p2.o_affine(W, V)
    assert i1.a is i2.b is s.o_affine(W, V)


def test_field_dmulti_gives_one_deriv_per_node_and_directions():
    g = exp_lin((0.3, -0.7, 1.1)) * linear_form((1.0, 2.0, 0.0))
    d = field_dmulti(g, (1, 0, 2))
    assert field_dmulti(g, (1, 0, 2)) is d
    assert field_dmulti(g, (2, 0, 1)) is not d
    # one direction at a time: the derivative of a derivative is the node
    # that the memo of each step holds
    assert field_dmulti(field_dmulti(g, (1, 0, 0)), (0, 0, 2)) is d
    assert g.deriv((1.0, 0.0, 0.0)) is field_dmulti(g, (1, 0, 0))
    h = linear_form((1.0, 2.0, 0.0)) * inv_form((1.0, -1.0, 0.0), 0.5)
    assert field_dmulti(h, (0, 0, 1)) is ZERO and field_dmulti(Const(2.0), (1, 0, 0)) is ZERO
    x = (0.31 + 0.05j, -0.52 + 0.02j, 0.14 - 0.03j)
    w = SignedPerm((2, 1, 3))
    moved = g.deriv((0.0, 1.0, 0.0)).o_group(w)
    want = field_dmulti(g.o_group(w), (1, 0, 0))(x)
    assert abs(moved(x) - want) < 1e-13 * abs(want)


def test_a_direction_with_a_negative_zero_keeps_its_own_derivative_node():
    f = exp_lin((0.3, -0.7, 1.1)) * linear_form((1.0, 2.0, 0.5))
    plus = derivative(f, [(1.0, 0.0, 0.0)])
    # equal bits share the entry, a list or a tuple, and field_dmulti's unit
    # directions share derivative's
    assert derivative(f, [[1.0, 0.0, 0.0]]) is plus is field_dmulti(f, (1, 0, 0))
    # == but not bit-identical: a -0.0 component, or an int, is another direction
    minus = derivative(f, [(1.0, -0.0, 0.0)])
    assert minus is not plus and derivative(f, [(1.0, -0.0, 0.0)]) is minus
    ints = derivative(f, [(1, 0, 0)])
    assert ints is not plus and ints is not minus
    x = (0.31 + 0.05j, -0.52 + 0.02j, 0.14 - 0.03j)
    assert plus(x) == minus(x) == ints(x)


def test_a_map_with_no_shift_is_one_image_for_o_group_and_a_product():
    g = exp_lin((0.3, -0.7, 1.1)) * linear_form((1.0, 2.0, 0.5))
    w = SignedPerm((2, 3, 1))
    # the left factor w^-1 moves the right factor's coefficient by w; at
    # c = 0 its shift is None, at c != 0 a shift of zeros
    (coeff,) = (WOp.from_group(3, 0, w.inverse()) * WOp.from_field(3, 0, g)).terms.values()
    assert coeff.b is g.o_group(w) is g.o_affine(SignedPerm(w.img), None)
    # a shift keeps its own key, and -0.0 apart from 0.0
    shifted = g.o_affine(w, (0.0, 0.0, 0.0))
    assert shifted is not g.o_group(w) and g.o_affine(w, (0.0, -0.0, 0.0)) is not shifted


def test_koornwinder_lax_equation_sides_share_their_nodes():
    p = default_params("koornwinder")
    lax = koornwinder_lax(CCnParams(n=2, tau0=p["tau0"], tau0v=p["tau0v"],
                                    taun=p["taun"], taunv=p["taunv"], tau=p["tau"],
                                    c=p["c"]))
    Hm = OperatorMatrix.diagonal(lax.H, lax.L.m)
    sides = (lax.L * Hm - Hm * lax.L, lax.A * lax.L - lax.L * lax.A)
    roots = [f for side in sides for row in side.entries for op in row
             for f in op.terms.values()]
    # 87,919 distinct objects when every image is a fresh copy
    assert len(field_nodes(roots)) <= 20_000
