"""Jacobi theta functions, sigma kernels, Weierstrass P, and the
four-coupling v-functions, plus their trigonometric degenerations.

Conventions: theta_1..theta_4 with nome q = e^{i pi tau}, quasi-periods
theta_1(z+1) = -theta_1(z), theta_1(z+tau) = -e^{-i pi tau - 2 pi i z} theta_1(z).
Jets.  At a plain complex z one pass over the Fourier series gives theta_r
and its z-derivatives up to order d, for only the r asked for (``_series``);
it stops once the bound of the last term is at most THETA_RTOL times the
partial sum at every order j <= d, so truncation bounds the derivatives,
not only the value.  The orders the kernels ask for most, d = 0, 1 and 3,
run straight-line loops that do the generic loop's products and sums in
its order and stop at its term, so every jet is the generic loop's bit for
bit; the others run the generic loop.  The terms c_k (i pi m)^j for
j <= 3 are tables of tau (``_ThetaData``), built by the products that the
generic loop takes per term, in its order, and ending at the first term
whose bound is 0, where every loop stops.  The d = 1 and d = 3 loops also keep
the order-0 partial sum at the term where the value alone would stop,
which is the d = 0 jet, and the cache stores it, so a point whose value and
slope are both asked for is summed once.  The d = 1 loop sums theta_1 with
theta_2, and theta_3 with theta_4, on one harmonic sequence when both are
asked for, as the v kernels ask.  A Dual z of depth d never enters
the series: with z0 = value(z) and h = z - z0, ``_jets`` returns
sum_{j<=d} theta^(j)(z0) h^j/j!, which is exact because h^(d+1) = 0.
The jets are memoized per plain point in one cache, and a point whose
negative is cached reads its jets from there by parity (``_mirrored``:
theta_1 odd, the others even), which is the sum at the point bit for bit.
P(z) is normalized by its Laurent expansion
P = 1/z^2 + O(z^2), which together with eta1 = -theta1'''(0)/(6 theta1'(0))
gives lim_{mu->0} sigma_mu'(z) = -P(z) - 2*eta1.
Kernels.  Each family (sigma, v, P, Hecke, u) has one maker, which fixes
its constants once (theta1(-mu), theta1'(0), the theta data of tau and the
guard bounds, 1/tau, ...) and returns one kernel body for plain and Dual
arguments: the jets come from ``_jets`` and each guard compares abs(w)
(the value's modulus for a Dual) with its fixed bound.  theta1(-mu) is
guarded at each call, before the theta_r(z) guards.  ``sigma``, ``v_func``,
``wp`` and ``hecke`` read their family's kernel.  The maker
attaches the kernel's pair (``fields.kernel_family``), which returns
(f(z), f'(z)) at a plain z (from the order-1 jets for sigma and v, the
order-3 jet for P) by the quotients and products that Dual arithmetic
would do, in its order, so both are the kernel's on Dual(z, 1.0) bit for
bit (up to the sign of a zero) and no Dual is built.  sigma' and v' are no
family: they are the derivative leaves ``sigma_form(...).dz()`` and
``ellcm.v_form(...).dz()`` (``fields.LinArg.dz``).  No family restates
another: the Hecke a of ``hecke`` is also the c-function of the basic
representation, and Noumi's odd-level kernel u~ is ``u_kernel`` at tau_0,
tau_0^vee on the argument moved by c/2.
"""

from __future__ import annotations

import cmath
import math

from .dual import Dual, d_exp, taylor
from .fields import LinArg, PoleError, kernel_family

MIN_IM_TAU = 0.05
# above it the nome q = e^{i pi tau}, |q| = e^{-pi Im tau}, is below the
# smallest normal float 2^-1022, and the theta constants soon underflow to 0
MAX_IM_TAU = 1022 * math.log(2) / math.pi
THETA_RTOL = 1e-16
THETA_CAP = 200
POLE_GUARD = 1e-3

HALF_PERIOD_SIGNS = ((1, 1, 1, 1), (1, 1, -1, -1), (1, -1, 1, -1), (1, -1, -1, 1))


class ModulusError(ValueError):
    """Im tau outside the numeric guards MIN_IM_TAU and MAX_IM_TAU."""


REGIMES = ("rational", "trig", "trig-CvC", "elliptic-A", "elliptic-CM",
           "elliptic-CvC")
DIFFERENCE_REGIMES = ("trig", "trig-CvC", "elliptic-A", "elliptic-CvC")
DIFFERENTIAL_REGIMES = ("rational", "elliptic-CM")


# the parameters that a regime's kernels divide by: the Hecke tau of a and b,
# and tau_n, tau_n^vee of u at both levels
DIVISORS = {"trig": ("tau",), "trig-CvC": ("tau", "tau0", "tau0v", "taun", "taunv")}


def check_params(regime, params):
    """Raise ``ValueError`` unless the kernels of the coupling regime can be
    made from ``params``: no parameter is, or has in its list, a number that
    is not finite; none that a kernel divides by (``DIVISORS``) is 0; and an
    elliptic regime's tau has MIN_IM_TAU <= Im tau <= MAX_IM_TAU
    (``ModulusError``)."""
    if regime not in REGIMES:
        raise ValueError(f"unknown regime {regime!r}; known: {REGIMES}")
    for k, v in params.items():
        for x in v if isinstance(v, list) else (v,):
            if isinstance(x, (int, float, complex)) and (x != x or abs(x) == math.inf):
                raise ValueError(f"parameter {k} is not finite")
    for k in DIVISORS.get(regime, ()):
        if params[k] == 0:
            raise ValueError(f"parameter {k} must be nonzero: a kernel divides by it")
    if regime.startswith("elliptic"):
        _check_modulus(complex(params["tau"]))


def check_couplings(regime, params):
    """Raise ``ValueError`` unless ``params`` suit the coupling regime.

    The kernels must be made (``check_params``).  Difference regimes need a
    nonzero step constant c and differential regimes a nonzero Planck
    constant t: at zero the operators are classical and act on no function.
    """
    check_params(regime, params)
    if regime in DIFFERENCE_REGIMES and not params.get("c"):
        raise ValueError(f"regime {regime} needs a nonzero step constant c")
    if regime in DIFFERENTIAL_REGIMES and not params.get("t"):
        raise ValueError(f"regime {regime} needs a nonzero Planck constant t")


def _check_modulus(tau):
    if tau.imag < MIN_IM_TAU:
        raise ModulusError(f"Im tau = {tau.imag} < {MIN_IM_TAU}")
    if tau.imag > MAX_IM_TAU:
        raise ModulusError(f"Im tau = {tau.imag} > {MAX_IM_TAU}: the nome "
                           f"e^(i pi tau) is no normal float")


class _ThetaData:
    """Series tables for one tau: per theta_r the terms c_k (i pi m)^j of its
    harmonic pairs for j <= 3, per parity of m (True: odd) the bounds 2|c_k|,
    per theta_r the rows (c_k, c_k i pi m, bound, pi m) that the order-1 loop
    reads and its pole guard POLE_GUARD times its natural scale, and the
    constants read from the jet of theta_1 at 0.  A table ends at the first
    term whose bound is 0 (or at THETA_CAP terms): every loop of ``_series``
    stops there."""

    __slots__ = ("terms", "bounds", "guards", "rows1", "d1_0", "eta1", "wp_const")

    def __init__(self, tau):
        _check_modulus(tau)
        q = cmath.exp(1j * cmath.pi * tau)
        odd = _until_zero_bound(q ** ((k + 0.5) ** 2) for k in range(THETA_CAP))   # m = 2k + 1
        even = _until_zero_bound(q ** ((k + 1) ** 2) for k in range(THETA_CAP))   # m = 2k + 2
        self.terms = {r: _powers(cs, _PI_M[r < 3]) for r, cs in (
            (1, [-1j * (-1) ** k * c for k, c in enumerate(odd)]), (2, odd),
            (3, even), (4, [(-1) ** (k + 1) * c for k, c in enumerate(even)]))}
        self.bounds = {True: [2 * abs(c) for c in odd], False: [2 * abs(c) for c in even]}
        # POLE_GUARD times the natural magnitude of theta_r, its leading
        # series coefficient
        lead = 2 * abs(odd[0])
        self.guards = {r: POLE_GUARD * scale
                       for r, scale in ((1, lead), (2, lead), (3, 1.0), (4, 1.0))}
        self.rows1 = {r: list(zip(c[0], c[1], self.bounds[r < 3], _PI_M[r < 3]))
                      for r, c in self.terms.items()}
        _f, self.d1_0, _f2, d3 = _series((1,), 0j, 3, self)[0][0]
        self.eta1 = -d3 / (6 * self.d1_0)
        self.wp_const = d3 / (3 * self.d1_0)


def _until_zero_bound(cs):
    """The coefficients of ``cs`` up to and including the first whose bound
    2|c| is 0."""
    out = []
    for c in cs:
        out.append(c)
        if 2 * abs(c) == 0:
            break
    return out


def _powers(cs, pms):
    """[[c_k (i pi m_k)^j for k] for j <= 3], each power one product with
    i pi m_k more, as ``_series_loop`` takes them per term."""
    out = [cs]
    for _ in range(3):
        out.append([t * (1j * pm) for t, pm in zip(out[-1], pms)])
    return out


_theta_cache: dict = {}


def _tdata(tau) -> _ThetaData:
    key = complex(tau)
    td = _theta_cache.get(key)
    if td is None:
        td = _ThetaData(key)
        _theta_cache[key] = td
    return td


# pi m of the k-th term, for theta_1, theta_2 (odd m) and theta_3, theta_4 (even m)
_PI_M = {odd: [math.pi * (2 * k + 2 - odd) for k in range(THETA_CAP)] for odd in (True, False)}


def _series(rs, z, d, td):
    """([[theta_r^(j)(z) for j <= d] for r in rs], values) at a plain z.

    Term k of theta_r is c_k (i pi m)^j (e^{i pi m z} -+ (-1)^j e^{-i pi m z})
    (minus for theta_1), over the odd m for theta_1, theta_2 and the even m
    for theta_3, theta_4; each power is one product with e^{+-2 i pi z}, and
    the exponentials are shared by all r.  The sum stops once the term bound
    2|c_k| (pi m)^j e^{pi m |Im z|} is at most THETA_RTOL times the
    magnitude of the partial sum at every order j.

    Orders 0, 1 and 3 run straight-line loops (``_series_0``, ``_series_1``,
    ``_series_3``), which read the terms c_k (i pi m)^j from the tables of
    ``td``, and every other order the generic loop (``_series_loop``); all
    of them give the generic loop's jets bit for bit.  ``values`` is
    [[theta_r(z)] for r in rs] as the d = 0 loop gives it, kept by the d = 1
    and d = 3 loops, and None for the other orders.
    """
    if d == 0:
        return _series_0(rs, z, td), None
    if d == 1:
        return _series_1(rs, z, td)
    if d == 3:
        return _series_3(rs, z, td)
    return _series_loop(rs, z, d, td), None


def _series_loop(rs, z, d, td):
    """The jets of ``_series`` at any order d: per term, one loop over the
    orders adds the products and a second one tests the stop rule."""
    w, wi = cmath.exp(1j * math.pi * z), cmath.exp(-1j * math.pi * z)
    ey = math.exp(math.pi * abs(z.imag))
    w2, wi2, ey2 = w * w, wi * wi, ey * ey
    out = []
    for r in rs:
        odd = r < 3
        P, M, e = (w, wi, ey) if odd else (w2, wi2, ey2)
        tot = [0j if odd else 1 + 0j] + [0j] * d
        for t, bound, pm in zip(td.terms[r][0], td.bounds[odd], _PI_M[odd]):
            harm = (P - M, P + M) if r == 1 else (P + M, P - M)
            for j in range(d + 1):
                tot[j] += t * harm[j & 1]
                t *= 1j * pm
            b = bound * e
            for x in tot:
                if b > THETA_RTOL * abs(x):
                    break
                b *= pm
            else:
                break
            P, M, e = P * w2, M * wi2, e * ey2
        out.append(tot)
    return out


# The straight-line loops below keep the generic loop's `b > THETA_RTOL * abs(x)`
# and its negation, so a NaN partial sum stops them at the same term.
def _series_0(rs, z, td):
    """The order-0 jets of ``_series``."""
    w, wi = cmath.exp(1j * math.pi * z), cmath.exp(-1j * math.pi * z)
    ey = math.exp(math.pi * abs(z.imag))
    w2, wi2, ey2 = w * w, wi * wi, ey * ey
    out = []
    for r in rs:
        odd = r < 3
        P, M, e = (w, wi, ey) if odd else (w2, wi2, ey2)
        s0 = 0j if odd else 1 + 0j
        for t0, bound in zip(td.terms[r][0], td.bounds[odd]):
            s0 += t0 * (P - M if r == 1 else P + M)
            if not bound * e > THETA_RTOL * abs(s0):
                break
            P, M, e = P * w2, M * wi2, e * ey2
        out.append([s0])
    return out


def _series_1(rs, z, td):
    """The order-1 jets of ``_series`` and the order-0 values: the partial
    sum s0 at the first term whose order-0 test stops, or the full sum.

    theta_1 and theta_2 run over the same m, as do theta_3 and theta_4, so
    when both members of such a pair are asked for, one loop runs them on
    one harmonic sequence (P, M, e), each with its own sums and stop test,
    until one stops; the other goes on alone, from the next term, in the
    loop of one theta_r."""
    w, wi = cmath.exp(1j * math.pi * z), cmath.exp(-1j * math.pi * z)
    ey = math.exp(math.pi * abs(z.imag))
    w2, wi2, ey2 = w * w, wi * wi, ey * ey
    rows = td.rows1
    out, values, done = [], [], {}
    for r in rs:
        if r not in done:
            odd = r < 3
            P, M, e = (w, wi, ey) if odd else (w2, wi2, ey2)
            s0, s1, v, q, it = (0j if odd else 1 + 0j), 0j, None, r, rows[r]
            ra = r if r & 1 else r - 1          # theta_1 or theta_3
            if ra in rs and ra + 1 in rs:
                # a is theta_ra and b theta_ra+1, whose harmonics are
                # (P + M, P - M); a's are swapped for theta_1
                a0, a1, va, b0, b1, vb = s0, s1, v, s0, s1, v
                ia, ib = iter(rows[ra]), iter(rows[ra + 1])
                for (ta0, ta1, bound, pm), (tb0, tb1, _b, _pm) in zip(ia, ib):
                    D, S = P - M, P + M
                    ha0, ha1 = (D, S) if odd else (S, D)
                    a0 += ta0 * ha0
                    a1 += ta1 * ha1
                    b0 += tb0 * S
                    b1 += tb1 * D
                    b = bound * e
                    a_on = b_on = True
                    if not b > THETA_RTOL * abs(a0):
                        if va is None:
                            va = a0
                        a_on = b * pm > THETA_RTOL * abs(a1)
                    if not b > THETA_RTOL * abs(b0):
                        if vb is None:
                            vb = b0
                        b_on = b * pm > THETA_RTOL * abs(b1)
                    P, M, e = P * w2, M * wi2, e * ey2
                    if not (a_on and b_on):
                        break
                else:
                    a_on = b_on = False
                done[ra], done[ra + 1] = (a0, a1, va), (b0, b1, vb)
                # the one still on goes on alone from the next term
                q, it = (ra, ia) if a_on else (ra + 1, ib) if b_on else (None, None)
                if q is not None:
                    s0, s1, v = done[q]
            if q is not None:
                for t0, t1, bound, pm in it:
                    h0, h1 = (P - M, P + M) if q == 1 else (P + M, P - M)
                    s0 += t0 * h0
                    s1 += t1 * h1
                    b = bound * e
                    if not b > THETA_RTOL * abs(s0):
                        if v is None:
                            v = s0
                        if not b * pm > THETA_RTOL * abs(s1):
                            break
                    P, M, e = P * w2, M * wi2, e * ey2
                done[q] = (s0, s1, v)
        s0, s1, v = done[r]
        out.append([s0, s1])
        values.append([s0 if v is None else v])
    return out, values


def _series_3(rs, z, td):
    """The order-3 jets of ``_series`` and the order-0 values, kept as
    ``_series_1`` keeps them."""
    w, wi = cmath.exp(1j * math.pi * z), cmath.exp(-1j * math.pi * z)
    ey = math.exp(math.pi * abs(z.imag))
    w2, wi2, ey2 = w * w, wi * wi, ey * ey
    out, values = [], []
    for r in rs:
        odd = r < 3
        P, M, e = (w, wi, ey) if odd else (w2, wi2, ey2)
        c0, c1, c2, c3 = td.terms[r]
        s0, s1, s2, s3, v = (0j if odd else 1 + 0j), 0j, 0j, 0j, None
        for t0, t1, t2, t3, bound, pm in zip(c0, c1, c2, c3, td.bounds[odd], _PI_M[odd]):
            h0, h1 = (P - M, P + M) if r == 1 else (P + M, P - M)
            s0 += t0 * h0
            s1 += t1 * h1
            s2 += t2 * h0
            s3 += t3 * h1
            b = bound * e
            if not b > THETA_RTOL * abs(s0):
                if v is None:
                    v = s0
                b *= pm
                if not b > THETA_RTOL * abs(s1):
                    b *= pm
                    if not b > THETA_RTOL * abs(s2):
                        if not b * pm > THETA_RTOL * abs(s3):
                            break
            P, M, e = P * w2, M * wi2, e * ey2
        out.append([s0, s1, s2, s3])
        values.append([s0 if v is None else v])
    return out, values


_jet_cache: dict = {}
_JET_CACHE_CAP = 400000


def _jets(rs, z, d, tau):
    """[theta_r^(j)(z) for j <= d] for each r in rs.  At a plain z the jets
    are memoized: the order-0 values that a sum of order 1 or 3 kept are
    stored too, so a later order-0 request at z is a cache hit, and a point
    whose negative is cached reads its jets from there by parity
    (``_mirrored``).  A Dual z of depth k is the Taylor expansion of the
    order d + k jet at its plain value; it is tested before the cache key is
    formed, since its parts need not hash."""
    if isinstance(z, Dual):
        k, z0 = 0, z
        while isinstance(z0, Dual):
            k, z0 = k + 1, z0.val
        h = z - z0
        return [[taylor(jet[i:i + k + 1], h) for i in range(d + 1)]
                for jet in _jets(rs, z0, d + k, tau)]
    key = (rs, z, d, tau)
    jets = _jet_cache.get(key)
    if jets is None:
        mirror = _jet_cache.get((rs, -z, d, tau))
        if mirror is not None:
            jets, values = [_mirrored(r, jet) for r, jet in zip(rs, mirror)], None
        else:
            jets, values = _series(rs, z, d, _tdata(tau))
        if len(_jet_cache) < _JET_CACHE_CAP:
            _jet_cache[key] = jets
            if values is not None:
                _jet_cache.setdefault((rs, z, 0, tau), values)
    return jets


def _mirrored(r, jet):
    """The jet of theta_r at z from its jet at -z: theta_1 is odd and the
    others even, so order j has the sign (-1)^j, times -1 for theta_1.

    This is the sum at z bit for bit.  The sum at -z runs on e^{i pi (-z)},
    whose nonzero components are those of e^{-i pi z}, so its terms are the
    ones at z with the harmonic P - M negated, up to the signs of zero
    components, and it stops at the same term.  A partial sum folds from 0j
    or 1+0j, so it holds no -0.0 and no sign of a zero component of a term
    reaches it; a negated jet is taken as 0j - x, which holds none either."""
    flip = r == 1
    out = []
    for x in jet:
        out.append(0j - x if flip else x)
        flip = not flip
    return out


def theta(r, z, tau):
    """theta_r(z | tau), r in 1..4 (r = 4 also reachable as r = 0)."""
    return _jets((r or 4,), z, 0, tau)[0][0]


def eta1(tau):
    return _tdata(tau).eta1


def _pole(name, size, bound):
    """The ``PoleError`` of a factor ``name`` of modulus ``size`` below its
    guard ``bound``."""
    return PoleError(f"|{name}| = {size:.2e} below pole guard {bound:.2e}")


def half_periods(tau):
    """The half periods 0, 1/2, (1 + tau)/2, tau/2 of the lattice Z + tau Z."""
    return (0j, 0.5 + 0j, (1 + tau) / 2, tau / 2)


# The functions below each read their family's kernel; the makers after them
# are the one place where each kernel's arithmetic is written.
def sigma(mu, z, tau):
    """sigma_mu(z) = theta1(z-mu) theta1'(0) / (theta1(z) theta1(-mu))."""
    return sigma_kernel(mu, tau)(z)


def v_func(mu, z, g, tau):
    """v_mu(z; g0..g3) = sum_r g_r sigma^r_{2 mu}(z)."""
    return v_kernel(mu, g, tau)(z)


def wp(z, tau):
    """Weierstrass P for the lattice Z + tau Z, Laurent-normalized."""
    return wp_kernel(tau)(z)


def hecke(z, tau_hecke, k):
    """Hecke kernel a(z) = (tau^-1 - tau e^z)/(1 - e^z) (k = 0), the c-function
    of the basic representation, or b(z) = (tau - tau^-1)/(1 - e^z) (k = 1)."""
    return hecke_kernel(tau_hecke, k)(z)


def sigma_form(mu, form, tau, const=0j):
    """The field sigma_mu(<form, x> + const)."""
    return LinArg(sigma_kernel(mu, tau), form, const)


def _sigma_maker(mu, tau):
    """sigma_mu's kernel, with theta1(-mu), theta1'(0) and the guard bound
    fixed here; theta1(-mu) is guarded at each call, before theta1(z)."""
    td, t1 = _tdata(tau), theta(1, -mu, tau)
    d1_0, bound = td.d1_0, td.guards[1]

    def kernel(z):
        if abs(t1) < bound:
            raise _pole("theta1(-mu)", abs(t1), bound)
        [(a,)] = _jets((1,), z - mu, 0, tau)
        [(b,)] = _jets((1,), z, 0, tau)
        if abs(b) < bound:
            raise _pole("theta1(z)", abs(b), bound)
        return a * d1_0 / (b * t1)

    def pair(z):
        if abs(t1) < bound:
            raise _pole("theta1(-mu)", abs(t1), bound)
        [(a, da)] = _jets((1,), z - mu, 1, tau)
        [(b, db)] = _jets((1,), z, 1, tau)
        if abs(b) < bound:
            raise _pole("theta1(z)", abs(b), bound)
        den, dden = b * t1, db * t1
        q = a * d1_0 / den
        return q, (da * d1_0 - q * dden) / den
    kernel.pair = pair
    return kernel


def _v_maker(mu, g, tau):
    """v_mu's kernel, with 2 mu, the r and g_r of the nonzero couplings and
    the constants of sigma_{2 mu} fixed here: the sum folds g_r *
    sigma^r_{2 mu}(z) from 0j, and its pair's slope from the first term."""
    mu2 = 2 * mu
    td, t1 = _tdata(tau), theta(1, -mu2, tau)
    d1_0, mu_bound = td.d1_0, td.guards[1]
    rs = tuple(r + 1 for r in range(4) if g[r] != 0)
    consts = [(f"theta{r}(z)", td.guards[r], g[r - 1]) for r in rs]

    def kernel(z):
        if abs(t1) < mu_bound:
            raise _pole("theta1(-mu)", abs(t1), mu_bound)
        out = 0j
        for (name, bound, g_r), (a,), (b,) in zip(
                consts, _jets(rs, z - mu2, 0, tau), _jets(rs, z, 0, tau)):
            if abs(b) < bound:
                raise _pole(name, abs(b), bound)
            out = out + g_r * (a * d1_0 / (b * t1))
        return out

    def pair(z):
        if abs(t1) < mu_bound:
            raise _pole("theta1(-mu)", abs(t1), mu_bound)
        out, slope = 0j, None
        for (name, bound, g_r), (a, da), (b, db) in zip(
                consts, _jets(rs, z - mu2, 1, tau), _jets(rs, z, 1, tau)):
            if abs(b) < bound:
                raise _pole(name, abs(b), bound)
            den, dden = b * t1, db * t1
            q = a * d1_0 / den
            ds = (da * d1_0 - q * dden) / den
            out = out + q * g_r
            slope = ds * g_r if slope is None else slope + ds * g_r
        return out, 0j if slope is None else slope
    kernel.pair = pair
    return kernel


def _wp_maker(tau):
    """P's kernel, with the theta data of tau fixed here."""
    td = _tdata(tau)
    bound, wp_const = td.guards[1], td.wp_const

    def kernel(z):
        f, fp, fpp = _jets((1,), z, 2, tau)[0]
        if abs(f) < bound:
            raise _pole("theta1(z)", abs(f), bound)
        return -(fpp * f - fp * fp) / (f * f) + wp_const

    def pair(z):
        f, fp, fpp, fppp = _jets((1,), z, 3, tau)[0]
        if abs(f) < bound:
            raise _pole("theta1(z)", abs(f), bound)
        num = -(fpp * f - fp * fp)
        dnum = -((fpp * fp + fppp * f) - (fp * fpp + fpp * fp))
        den, dden = f * f, f * fp + fp * f
        q = num / den
        return q + wp_const, (dnum - q * dden) / den
    kernel.pair = pair
    return kernel


def _hecke_maker(tau_hecke, k):
    """The Hecke kernel a (k = 0) or b (k = 1), with 1/tau and tau - 1/tau
    fixed here."""
    inv = 1.0 / tau_hecke
    b_num = tau_hecke - inv

    def kernel(z):
        ez = d_exp(z)
        den = 1.0 - ez
        if abs(den) < POLE_GUARD:
            raise _pole("1 - e^z", abs(den), POLE_GUARD)
        return (inv - tau_hecke * ez if k == 0 else b_num) / den

    def pair(z):
        e = cmath.exp(z)
        de = e * 1.0
        den, dden = 1.0 - e, -de
        if abs(den) < POLE_GUARD:
            raise _pole("1 - e^z", abs(den), POLE_GUARD)
        if k == 0:
            num, dnum = inv - e * tau_hecke, -(de * tau_hecke)
        else:
            num, dnum = b_num, 0j
        q = num / den
        return q, (dnum - q * dden) / den
    kernel.pair = pair
    return kernel


def _u_maker(tau_n, tau_n_vee):
    """u's kernel, with tau_n tau_n^vee and tau_n / tau_n^vee fixed here."""
    ca, cb = tau_n * tau_n_vee, tau_n / tau_n_vee

    def kernel(z):
        ez = d_exp(z)
        den = 1.0 - ez * ez
        if abs(den) < POLE_GUARD:
            raise _pole("1 - e^{2z}", abs(den), POLE_GUARD)
        return (1.0 - ca * ez) * (1.0 + cb * ez) / (tau_n * den)

    def pair(z):
        e = cmath.exp(z)
        de = e * 1.0
        den = 1.0 - e * e
        if abs(den) < POLE_GUARD:
            raise _pole("1 - e^{2z}", abs(den), POLE_GUARD)
        den = den * tau_n
        dden = -(e * de + de * e) * tau_n
        a, da = 1.0 - e * ca, -(de * ca)
        b, db = e * cb + 1.0, de * cb
        q = a * b / den
        return q, ((a * db + da * b) - q * dden) / den
    kernel.pair = pair
    return kernel


# Kernel families: one kernel object per parameter set, with its pair
# (``fields.kernel_family``).
sigma_kernel = kernel_family(_sigma_maker)
v_kernel = kernel_family(_v_maker)
wp_kernel = kernel_family(_wp_maker)
hecke_kernel = kernel_family(_hecke_maker)
u_kernel = kernel_family(_u_maker)


def dual_couplings(g):
    """g^vee = (1/2) H g with the Hadamard-type sign matrix."""
    return tuple(sum(HALF_PERIOD_SIGNS[r][s] * g[s] for s in range(4)) / 2
                 for r in range(4))


class NewtonError(ArithmeticError):
    """Root search for the dual spectral point failed from all seeds."""


def dual_params(nu, g, tau):
    """Dual parameters (nu^vee, g^vee): g^vee = H g / 2 and v_{nu,g}(nu^vee) = 0.

    nu^vee is found by complex Newton iteration from 16 lattice-fraction
    seeds, at most 100 steps each, to |v| < 1e-12, reading v and v' from the
    pair of ``v_kernel``; among converged roots the one closest to 0 is
    returned.
    """
    gv = dual_couplings(g)
    pair = v_kernel(nu, g, tau).pair
    roots = []
    for a in range(4):
        for b in range(4):
            z0 = (a + 0.61803) / 4 + tau * (b + 0.61803) / 4
            z = complex(z0)
            ok = False
            for _ in range(100):
                try:
                    f, fp = pair(z)
                except PoleError:
                    break
                if abs(f) < 1e-12:
                    ok = True
                    break
                if fp == 0:
                    break
                step = f / fp
                if abs(step) > 2.0:
                    step = step / abs(step) * 2.0
                z = z - step
            if ok:
                roots.append(z)
    if not roots:
        raise NewtonError("v_{nu,g} zero not found from any of the 16 seeds")

    def reduce_mod(zz):
        # nearest lattice translate to 0
        t = complex(tau)
        b = round(zz.imag / t.imag)
        zz = zz - b * t
        a = round(zz.real)
        return zz - a

    reduced = [reduce_mod(z) for z in roots]
    best = min(reduced, key=abs)
    return best, gv
