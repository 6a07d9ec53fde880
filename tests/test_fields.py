"""Field evaluation: one memo scope per point over the shared field DAG."""

import pytest

from laxkit.dual import Dual, d_exp, d_sin, directional, seed, value
from laxkit.fields import (BiArg, Deriv, FuncField, LinArg, PoleError, Quot,
                           Scale, XLift, evaluate, exp_lin, inv_form,
                           linear_form)
from laxkit.opcore import OperatorMatrix, WOp
from laxkit.verify import residual_evalfn
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
                   + BiArg(kernel(lambda a, b: d_sin(a) * b), (1.0, 0.0, -1.0),
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
    assert [bits(v) for v in evaluate(roots, point)] == [bits(want)] * 2


def counting(fn):
    """A kernel wrapper that records the argument of every call."""
    calls = []

    def kernel(z):
        calls.append(value(z))
        return fn(z)
    return kernel, calls


def _shared_kernel_matrix(h):
    n, c = 2, 0.3
    ident = SignedPerm.identity(n)
    op = WOp(n, c, {(ident, (1, 0)): h, (ident, (0, 1)): 2.0 * h})
    return OperatorMatrix([[op, op], [op, op]])


def test_shared_kernel_runs_once_per_point_in_residual_evalfn():
    fn, calls = counting(d_exp)
    probe_fn, probe_calls = counting(d_exp)
    h = LinArg(fn, (1.0, -1.0), 0.2j)
    probe = LinArg(probe_fn, (0.5, 0.25))
    m = _shared_kernel_matrix(h)
    evalfn = residual_evalfn(m, m, [probe])
    for x in [(0.3 + 0.1j, -0.2 + 0.05j), (0.1 - 0.1j, 0.4 + 0.02j)]:
        calls.clear()
        probe_calls.clear()
        assert evalfn(x) == 0.0
        # 8 roots share one h and two shifted probe copies (t(1,0), t(0,1))
        assert len(calls) == 1
        assert len(probe_calls) == 2


def test_pole_error_propagates_and_no_value_survives_the_point():
    fn, calls = counting(d_exp)
    pole = inv_form((1.0, 0.0), 0j, guard=1e-2, name="x1")
    h = LinArg(fn, (1.0, 1.0)) * pole
    m = _shared_kernel_matrix(h)
    evalfn = residual_evalfn(m, None, [exp_lin((0.5, 0.25))])
    with pytest.raises(PoleError, match="x1"):
        evalfn((1e-3 + 0j, 0.2 + 0.1j))
    assert len(calls) == 1                  # h's kernel ran before the pole
    x = (0.3 + 0.1j, -0.2 + 0.05j)
    for _ in range(2):
        calls.clear()
        r = evalfn(x)
        assert len(calls) == 1
        assert r == residual_evalfn(_shared_kernel_matrix(
            LinArg(d_exp, (1.0, 1.0)) * inv_form((1.0, 0.0), 0j, guard=1e-2)),
            None, [exp_lin((0.5, 0.25))])(x)


def test_first_pole_error_is_the_leftmost():
    left = inv_form((1.0,), 0j, name="left")
    right = inv_form((1.0,), 0j, name="right")
    with pytest.raises(PoleError, match="left"):
        evaluate([left * 2.0, right + left], (1e-5 + 0j,))
    with pytest.raises(PoleError, match="right"):
        evaluate([right + left, left], (1e-5 + 0j,))


@pytest.mark.parametrize("w, v", [(SignedPerm.sign_flip(N, 1), None),
                                  (None, V), (SignedPerm((2, -3, 1, 4)), V)],
                         ids=["sign-flip", "shift", "signed-cycle-and-shift"])
def test_moved_derivative_is_the_derivative_read_at_the_moved_point(w, v):
    f = (LinArg(d_exp, (0.3, -0.7, 1.1, 0.5), 0.1j)
         * BiArg(lambda a, b: d_sin(a) * b, (1.0, 0.0, -1.0), (0.0, 0.5, 0.0, 1.0)))
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
