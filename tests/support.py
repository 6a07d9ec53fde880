"""Test oracles and helpers that the package itself does not run: Weyl-group
lengths and words, classical symbol comparisons, the scale-free Poisson
bracket residual and log-log slopes."""

import math

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
