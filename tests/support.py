"""Test oracles and helpers that the package itself does not run: Weyl-group
lengths and words, classical symbol comparisons, the scale-free Poisson
bracket residual, log-log slopes, the Dual directional derivative and the
interpreted tape gradient."""

import math

from laxkit import fields
from laxkit.dual import Dual, extract
from laxkit.opcore import WOp, residual_pair
from laxkit.verify import _bracket
from laxkit.weyl import (AffineElement, AffineRoot, RootSystemData, SignedPerm,
                         affine_reflection, dot, reduced_word)


def finite_length(rs: RootSystemData, w: SignedPerm) -> int:
    return sum(1 for a in rs.pos_roots
               if AffineRoot(w.apply_vec(a), 0).is_negative())


def affine_length(rs: RootSystemData, w: AffineElement) -> int:
    """Number of positive affine roots sent negative (the length)."""
    winv = w.inverse()
    k_bound = max((abs(dot(a, w.lam)) for a in rs.pos_roots), default=0) + 2
    count = 0
    for a in rs.pos_roots:
        for k in range(-k_bound, k_bound + 1):
            ar = AffineRoot(a, k)
            if ar.is_negative():
                continue
            if winv.apply_affine_root(ar).is_negative():
                count += 1
        na = tuple(-v for v in a)
        for k in range(1, k_bound + 1):
            ar = AffineRoot(na, k)
            if winv.apply_affine_root(ar).is_negative():
                count += 1
    return count


def evaluate_word(rs: RootSystemData, word) -> AffineElement:
    refl = [affine_reflection(a) for a in rs.affine_simple_roots()]
    out = AffineElement.identity(rs.dim)
    for i in word:
        out = out * refl[i]
    return out


def translation_word(rs: RootSystemData, lam) -> list:
    return reduced_word(rs, AffineElement.translation(tuple(lam)))


def classical_op_residual(op1: WOp, op2: WOp, zpoints) -> float:
    """Componentwise symbol residual of two classical (c = 0) operators."""
    ws = {w for (w, _l) in op1.terms} | {w for (w, _l) in op2.terms}
    n = op1.n
    worst = 0.0
    for z in zpoints:
        x, p = z[:n], z[n:]
        for w in ws:
            a = op1.symbol_component(w, x, p)
            b = op2.symbol_component(w, x, p)
            worst = max(worst, residual_pair(a, b))
    return worst


def symbol_parts(op, zpoint):
    """(identity component, worst off-identity magnitude) of the classical
    symbol of ``op`` at the phase point (x, p)."""
    n = op.n
    x, p = zpoint[:n], zpoint[n:]
    ident, worst = 0j, 0.0
    for w in dict.fromkeys(w for (w, _k) in op.terms):
        v = op.symbol_component(w, x, p)
        if w.is_identity():
            ident = v
        else:
            worst = max(worst, abs(v))
    return ident, worst


def poisson_residual(f, g, z, n):
    """Scale-free bracket residual: |{f,g}| / (1 + |grad f| |grad g|)."""
    br, gf, gg = _bracket(f, g, z, n)
    sf = math.sqrt(sum(abs(v) ** 2 for v in gf))
    sg = math.sqrt(sum(abs(v) ** 2 for v in gg))
    return abs(br) / (1.0 + sf * sg)


def fit_slope(hs, vals):
    """Least-squares slope of log|val| against log h."""
    xs = [math.log(h) for h in hs]
    ys = [math.log(max(v, 1e-300)) for v in vals]
    n = len(xs)
    xbar = sum(xs) / n
    ybar = sum(ys) / n
    num = sum((x - xbar) * (y - ybar) for x, y in zip(xs, ys))
    den = sum((x - xbar) ** 2 for x in xs)
    return num / den


def seed(point, direction):
    """Seed one infinitesimal along ``direction`` at ``point`` (tuples of
    one length; ``ValueError`` otherwise)."""
    return tuple(Dual(p, d) for p, d in zip(point, direction, strict=True))


def directional(f, point, directions):
    """Mixed directional derivative of ``f`` at ``point``.

    ``directions`` is a sequence of direction vectors; each adds one level
    of dual nesting, so the result is the coefficient of eps_1*...*eps_k.
    """
    if not directions:
        return f(point)
    d, rest = directions[0], directions[1:]
    pt = seed(point, d)
    return extract(directional(f, pt, rest))


def _leaf_data(tape):
    """Per ``_LEAF`` instruction, in tape order: its nonzero (coordinate,
    coefficient) pairs, and a leaf of one coordinate whose kernel is the
    pair giving (value, slope) at a plain argument (None for a linear
    form): the kernel's ``pair``, or for a kernel without one a run on a
    Dual of tangent 1."""
    return [(tuple((j, kj) for j, kj in enumerate(a.k) if kj != 0),
             None if a.fn is None else
             fields.LinArg(getattr(a.fn, "pair", None) or fields._dual_pair(a.fn), (1.0,)))
            for kind, a, _b in tape.code if kind == fields._LEAF]


def _forward_with_slopes(tape, x, slopes, leaf_data):
    """The value of every slot at the point x; each ``LinArg`` leaf reads
    its value and derivative from its kernel's pair and appends the
    derivative to ``slopes``."""
    vals = []
    push = vals.append
    leaves = iter(leaf_data)
    PROD, SCALE, SUM, LEAF, QUOT = (fields._PROD, fields._SCALE, fields._SUM,
                                    fields._LEAF, fields._QUOT)
    for kind, a, b in tape.code:
        if kind == PROD:
            push(vals[a] * vals[b])
        elif kind == SCALE:
            push(a * vals[b])
        elif kind == SUM:
            s = 0j
            for i in a:
                s = s + vals[i]
            push(s)
        elif kind == LEAF:
            unit = next(leaves)[1]
            if unit is None:
                push(a(x))
                slopes.append(1.0)
            else:
                v, s = unit((fields._form(a.k, a.c0, x),))
                push(v)
                slopes.append(s)
        elif kind == QUOT:
            push(vals[a] / vals[b])
        else:
            push(a)
    return vals


def interpreted_gradient(tape, x):
    """The partials of the tape's first root at x along every coordinate of
    x, by interpretation: the forward loop on plain numbers, each leaf giving
    its value and slope from its kernel's pair, then one adjoint sweep.  The
    oracle that the generated ``Tape.gradient`` matches bit for bit, for a
    tape of no ``_CALL`` (a ``BiArg``, which has no adjoint rule)."""
    slopes = []
    leaf_data = _leaf_data(tape)
    vals = _forward_with_slopes(tape, x, slopes, leaf_data)
    code = tape.code
    adj = [0j] * len(code)
    adj[tape.out[0]] = 1.0 + 0j
    grads = [0j] * len(x)
    leaves = reversed(leaf_data)
    PROD, SCALE, SUM, LEAF, QUOT = (fields._PROD, fields._SCALE, fields._SUM,
                                    fields._LEAF, fields._QUOT)
    for i in range(len(code) - 1, -1, -1):
        kind, a, b = code[i]
        w = adj[i]
        if kind == PROD:
            adj[a] += w * vals[b]
            adj[b] += w * vals[a]
        elif kind == SCALE:
            adj[b] += a * w
        elif kind == SUM:
            for j in a:
                adj[j] += w
        elif kind == LEAF:
            w = w * slopes.pop()
            for j, kj in next(leaves)[0]:
                grads[j] += w * kj
        elif kind == QUOT:
            q = w / vals[b]
            adj[a] += q
            adj[b] -= q * vals[i]
    return grads
