"""Field evaluation: one tape per root set over the shared field DAG, with
each derivative read in a derivative scope of that tape, its gradient by an
adjoint sweep, and the structure shared at construction (affine images,
derivative nodes and leaf kernels equal by value)."""

import gc

import pytest

from laxkit import fields, special, suites
from laxkit.dual import Dual, d_exp, directional, gradient_vec, seed, value
from laxkit.fields import (BiArg, Const, Deriv, Field, FuncField, LinArg,
                           PoleError, Quot, Scale, Tape, XLift, exp_lin,
                           inv_form, linear_form, momentum)
from laxkit.koorn import CCnParams, koornwinder_lax
from laxkit.opcore import OperatorMatrix, WOp, field_dmulti
from laxkit.special import sigma, sigma_form
from laxkit.suites import (RunConfig, build_suite, classical_flow_setup,
                           default_params)
from laxkit.trig import TrigGLConfig, a_field
from laxkit.verify import (CheckResult, hamiltonian_flow, residual_evalfn,
                           spectral_invariants)
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


def build(shared):
    """One expression, either with shared subtrees and shared leaf kernels
    (``shared``) or as a fresh tree in which no node or kernel is reused.

    The shared subtree ``s`` sits in the outer tree and also under a Quot,
    an XLift and a Deriv node, where it is read at another point than the
    outer one; ``s.o_affine(W, V)`` makes leaf copies whose keys equal those
    of an explicit leaf elsewhere in the tree, and a moved Deriv reads its
    base at the moved point.
    """
    cache = {}

    def kernel(fn):
        return fn if shared else (lambda *z: fn(*z))

    def node(name):
        if shared and name in cache:
            return cache[name]
        if name == "s":
            out = (LinArg(kernel(d_exp), (0.3, -0.7, 1.1, 0.5), 0.1j)
                   * linear_form((1.0, 2.0, 0.0, 0.0), 0.25)
                   + BiArg(kernel(lambda a, b: d_exp(a) * b * b), (1.0, 0.0, -1.0),
                           (0.0, 0.5, 0.0, 1.0), 0.2, -0.1j) + 0.5)
        elif name == "t":
            out = 1.7 + LinArg(kernel(d_exp), (0.0, 0.4, -0.3), -0.05)
        else:
            raise KeyError(name)
        cache[name] = out
        return out

    s, t = node("s"), node("t")
    copy = LinArg(d_exp, (0.3, -0.7, 1.1, 0.5), 0.1j).o_affine(W, V)
    shifted = LinArg(kernel(d_exp), copy.k, copy.c0)
    return (s * node("s").o_affine(W, V)
            + Quot(node("s"), t)
            - XLift(node("s"), 2) * node("s").deriv(DIR)
            + Scale(2.0, node("s").o_affine(W, V)) * shifted
            + (node("s") * node("t").deriv(DIR)).o_affine(None, V).deriv(DIR))


@pytest.mark.parametrize("point", [Z, seed(Z, DIR)], ids=["complex", "dual"])
def test_memoized_value_equals_fresh_tree_bit_for_bit(point):
    got = build(shared=True)(point)
    want = build(shared=False)(point)
    assert isinstance(got, Dual) == isinstance(point[0], Dual)
    assert bits(got) == bits(want)
    # several roots in one scope give the values each root gives alone
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
    # each with the log of the function its kernel calls
    cases = [(lambda: h, calls),
             (lambda: a_field(TRIG, 1, 2), logged(monkeypatch, special, "hecke")),
             (lambda: sigma_form(MU, (1.0, -1.0), TAU), logged(monkeypatch, special, "sigma"))]
    for make, kernel_calls in cases:
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
            assert len(kernel_calls) == 1
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
# (base, directions, n): the root D_dirs base, read in x-space through an
# XLift of n coordinates when n is not None
DERIV_ROOTS = {
    "first": (_G, (DIR,), None),
    "second": (_G, (DIR, DIR), None),
    "mixed": (_G, (DIR, DIR2), None),
    "base-holds-deriv": (_G * _G.deriv(DIR2) + Deriv(_G, (DIR2, DIR)), (DIR,), None),
    "under-XLift": (_X, ((1.0, 0.5), (0.0, -2.0)), 2),
}


@pytest.mark.parametrize("point", [Z, seed(Z, DIR2)], ids=["complex", "dual"])
def test_deriv_roots_equal_directional_bit_for_bit(point):
    """Deriv roots read from derivative scopes of one tape, which the bases
    of equal directions share, equal ``directional`` of their base."""
    roots = [Deriv(base, dirs) if n is None else XLift(Deriv(base, dirs), n)
             for base, dirs, n in DERIV_ROOTS.values()]
    got = Tape(roots)(point)
    for (base, dirs, n), v in zip(DERIV_ROOTS.values(), got):
        assert bits(v) == bits(directional(base, point if n is None else point[:n], dirs))


def test_first_pole_error_in_a_derivative_scope_is_the_leftmost():
    left = inv_form((1.0,), 0j)
    right = inv_form((1.0,), 2e-5)
    d = (1.0,)
    with pytest.raises(PoleError, match="= 1.00e-05 "):
        Tape([(left * 2.0).deriv(d), (right + left).deriv(d)])((1e-5 + 0j,))
    with pytest.raises(PoleError, match="= 3.00e-05 "):
        Tape([(right + left).deriv(d), left.deriv(d)])((1e-5 + 0j,))


def test_derivs_of_one_direction_run_a_shared_kernel_once_per_point():
    fn, calls = counting(d_exp)
    leaf = LinArg(fn, (1.0, -0.5, 0.0, 0.2))
    tape = Tape([(2.0 * leaf).deriv(DIR), (leaf * leaf + 1.0).deriv(DIR)])
    for point in (Z, seed(Z, DIR2)):
        calls.clear()
        tape(point)
        assert len(calls) == 1


def test_rational_suite_tapes_compile_no_tape_at_their_points(monkeypatch):
    """A residual tape holds its Deriv bases: evaluating it compiles no
    tape of theirs, at the first point or at a later one."""
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
    # an x-space derivative read at a phase point would drop the momenta
    with pytest.raises(ValueError):
        exp_lin((0.3, -0.2)).deriv((1.0, 0.0))(Z)


@pytest.mark.parametrize("w, v", [(SignedPerm.sign_flip(N, 1), None),
                                  (None, V), (SignedPerm((2, -3, 1, 4)), V)],
                         ids=["sign-flip", "shift", "signed-cycle-and-shift"])
def test_moved_derivative_is_the_derivative_read_at_the_moved_point(w, v):
    f = (LinArg(d_exp, (0.3, -0.7, 1.1, 0.5), 0.1j)
         * BiArg(lambda a, b: d_exp(a) * b * b, (1.0, 0.0, -1.0), (0.0, 0.5, 0.0, 1.0)))
    dirs = (DIR, (0.0, 1.0, -0.5, 0.3))
    moved = Deriv(f, dirs).o_affine(w, v)
    assert isinstance(moved, Deriv)
    y = w.apply_vec(Z) if w is not None else Z
    if v is not None:
        y = tuple(a + b for a, b in zip(y, v))
    want = directional(f, y, dirs)
    assert abs(moved(Z) - want) < 1e-13 * (1 + abs(want))


@pytest.mark.parametrize("node", [XLift(exp_lin((0.3, -0.2)), 2),
                                  FuncField(lambda z: z[0] * z[2])],
                         ids=["XLift", "FuncField"])
def test_point_moving_nodes_without_a_rule_refuse_affine_maps(node):
    with pytest.raises(TypeError, match=type(node).__name__):
        node.o_affine(W, V)


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
INSTRUCTION_KINDS = {
    "Const": Const(0.7 - 0.2j) * _LEAF,
    "LinArg-kernel": _LEAF,
    "LinArg-form": _FORM,
    "BiArg": BiArg(lambda a, b: _kernel(a) * d_exp(b), (0.7, -1.2, 0.0, 0.4),
                   (0.0, 0.3, 0.0, -0.5)),
    "Scale": Scale(2.5 - 1.0j, _LEAF),
    "NSum": _LEAF + _FORM + exp_lin((0.0, 0.2, 0.1, 0.0)),
    "Prod": _LEAF * _FORM,
    "Quot": Quot(_LEAF, 1.5 + _FORM),
    "XLift-shared-scope": (XLift(2.0 * _XLEAF, 2) * momentum(2, 0)
                           + XLift(_XLEAF * _XLEAF, 2) * exp_lin((0.4, 0.0, 0.0, 0.3))),
    "Deriv": Deriv(_LEAF * _FORM, (DIR,)),
    "Deriv-paired-kernel": Deriv(sigma_form(MU, (0.7, -1.2, 0.0, 0.4), TAU) * _FORM, (DIR,)),
    "Deriv-nested-under-XLift": (XLift(Deriv(_XLEAF * Deriv(_XLEAF, ((0.3, 1.0),)),
                                             ((1.0, -0.5),)), 2) * momentum(2, 0)
                                 + _LEAF * _XLEAF.deriv((0.0, 1.0, 0.0, 0.0))),
    "FuncField": FuncField(lambda z: z[0] * d_exp(z[1] * z[3])),
}


@pytest.mark.parametrize("kind", INSTRUCTION_KINDS)
def test_gradient_is_the_directional_derivative_per_basis_vector(kind):
    assert gradient_matches_directional(INSTRUCTION_KINDS[kind], Z)


FLOW_RANKS = {"rational-A": 3, "trig-gln": 3, "inozemtsev": 2, "koornwinder": 2,
              "vandiejen": 2}


def _flow_setup(system):
    rank = FLOW_RANKS[system]
    return classical_flow_setup(RunConfig(system=system, rank=rank,
                                          params=default_params(system)))


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
    H, Lf, n, powers, z0 = _flow_setup("rational-A")
    compiled = []
    init = Tape.__init__

    def counting(tape, roots):
        compiled.append(list(roots))
        init(tape, roots)
    monkeypatch.setattr(Tape, "__init__", counting)
    _t, traj = hamiltonian_flow(H, z0, T=0.1, dt=1e-2, n=n)
    assert len(traj) == 11 and compiled == [[H]]
    compiled.clear()
    rows = spectral_invariants(Lf, powers, traj)
    assert len(rows) == 11 and compiled == [[e for row in Lf for e in row]]


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
    """Leaves of one form, constant and scope differ in their kernel's value
    or pole message at some sample argument, so no kernel runs twice per
    point."""
    H, Lf, _n, _powers, _z0 = _flow_setup(system)
    counts = []
    for tape in (Tape([H]), Tape([e for row in Lf for e in row])):
        groups = {}
        for kind, a, scope in tape.code:
            if kind == fields._LEAF:
                groups.setdefault((scope, a.k, a.c0), []).append(a.fn)
        for fns in groups.values():
            outcomes = {tuple(outcome(fn, z) for z in KERNEL_ARGS) for fn in fns}
            assert len(outcomes) == len(fns)
        counts.append(sum(len(fns) for fns in groups.values()))
    assert tuple(counts) == FLOW_LEAVES[system]


def test_xlifts_at_one_phase_point_share_one_x_space_scope():
    fn, calls = counting(d_exp)
    leaf = LinArg(fn, (1.0, -0.5))
    H = XLift(2.0 * leaf, 2) * momentum(2, 0) + XLift(leaf + 1.0, 2)
    L = [XLift(leaf, 2), momentum(2, 1) - XLift(leaf * leaf, 2)]
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
         + Deriv(exp_lin((0.2, 0.0, -0.4, 0.1)), (DIR,)))
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
    assert isinstance(d, Deriv) and d.base is g
    assert field_dmulti(g, (1, 0, 2)) is d
    assert field_dmulti(g, (2, 0, 1)) is not d
    # the derivative of a derivative extends the directions of its base
    assert field_dmulti(field_dmulti(g, (1, 0, 0)), (0, 0, 2)) is d
    assert g.deriv((1.0, 0.0, 0.0)) is field_dmulti(g, (1, 0, 0))
    moved = Deriv(g, ((0.0, 1.0, 0.0),)).o_group(SignedPerm((2, 1, 3)))
    assert moved is field_dmulti(g.o_group(SignedPerm((2, 1, 3))), (1, 0, 0))


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
