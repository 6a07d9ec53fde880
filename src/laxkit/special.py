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
bit; the others run the generic loop.  The d = 1 and d = 3 loops also keep
the order-0 partial sum at the term where the value alone would stop,
which is the d = 0 jet, and the cache stores it, so a point whose value and
slope are both asked for is summed once.  A Dual z of depth d never enters
the series: with z0 = value(z) and h = z - z0, theta returns
sum_{j<=d} theta^(j)(z0) h^j/j!, which is exact because h^(d+1) = 0.
sigma_dz, v_func_dz and wp read their derivatives from the same jets,
memoized per plain point in one cache.
P(z) is normalized by its Laurent expansion
P = 1/z^2 + O(z^2), which together with eta1 = -theta1'''(0)/(6 theta1'(0))
gives lim_{mu->0} sigma_mu'(z) = -P(z) - 2*eta1.
Pairs.  A flow's gradient needs each kernel's value and slope at a plain
point.  ``sigma_pair``, ``v_pair``, ``wp_pair``, ``hecke_pair`` and
``u_pair`` return (f(z), f'(z)) from the jet that the kernel on a Dual z of
depth 1 fetches, by the quotients and products Dual arithmetic would do, in
its order, so both are the kernel's on Dual(z, 1.0) bit for bit (up to the
sign of a zero) and no Dual is built.  Each kernel family but sigma' and v'
carries its pair (``fields.kernel_family``); those two keep the Dual path.
The Newton solve of ``dual_params`` reads v and v' from ``v_pair``.
Kernels.  No family restates another: the Hecke a of ``hecke`` is also the
c-function of the basic representation, and Noumi's odd-level kernel u~ is
``u_fun`` at tau_0, tau_0^vee on the argument moved by c/2.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .dual import Dual, d_exp, taylor, value
from .fields import LinArg, PoleError, kernel_family

MIN_IM_TAU = 0.05
THETA_RTOL = 1e-16
THETA_CAP = 200
POLE_GUARD = 1e-3

HALF_PERIOD_SIGNS = ((1, 1, 1, 1), (1, 1, -1, -1), (1, -1, 1, -1), (1, -1, -1, 1))


class ModulusError(ValueError):
    """Im tau below the numeric guard."""


REGIMES = ("rational", "trig", "trig-CvC", "elliptic-A", "elliptic-CM",
           "elliptic-CvC")
DIFFERENCE_REGIMES = ("trig", "trig-CvC", "elliptic-A", "elliptic-CvC")
DIFFERENTIAL_REGIMES = ("rational", "elliptic-CM")


@dataclass(frozen=True)
class CouplingSet:
    """Tagged parameter bundle for one regime.

    All parameters must be finite.  Difference regimes need a nonzero step
    constant c and differential regimes a nonzero Planck constant t: at zero
    the operators are classical and act on no function.
    """

    regime: str
    params: dict

    def __post_init__(self):
        if self.regime not in REGIMES:
            raise ValueError(f"unknown regime {self.regime!r}; known: {REGIMES}")
        for k, v in self.params.items():
            if isinstance(v, (int, float, complex)):
                if v != v or abs(v) == float("inf"):
                    raise ValueError(f"parameter {k} is not finite")
        if self.regime in DIFFERENCE_REGIMES and not self.params.get("c"):
            raise ValueError(f"regime {self.regime} needs a nonzero step constant c")
        if self.regime in DIFFERENTIAL_REGIMES and not self.params.get("t"):
            raise ValueError(f"regime {self.regime} needs a nonzero Planck constant t")

    def __getitem__(self, key):
        return self.params[key]


class _ThetaData:
    """Series tables for one tau: per theta_r the coefficients c_k of its
    harmonic pairs, per parity of m (True: odd) the bounds 2|c_k|, and the
    constants read from the jet of theta_1 at 0."""

    __slots__ = ("coeffs", "bounds", "scales", "d1_0", "eta1", "wp_const")

    def __init__(self, tau):
        if tau.imag < MIN_IM_TAU:
            raise ModulusError(f"Im tau = {tau.imag} < {MIN_IM_TAU}")
        q = cmath.exp(1j * cmath.pi * tau)
        odd = [q ** ((k + 0.5) ** 2) for k in range(THETA_CAP)]       # m = 2k + 1
        even = [q ** ((k + 1) ** 2) for k in range(THETA_CAP)]        # m = 2k + 2
        self.coeffs = {1: [-1j * (-1) ** k * c for k, c in enumerate(odd)], 2: odd,
                       3: even, 4: [(-1) ** (k + 1) * c for k, c in enumerate(even)]}
        self.bounds = {True: [2 * abs(c) for c in odd], False: [2 * abs(c) for c in even]}
        # natural magnitude of theta_r: its leading series coefficient
        self.scales = {1: 2 * abs(odd[0]), 2: 2 * abs(odd[0]), 3: 1.0, 4: 1.0}
        _f, self.d1_0, _f2, d3 = _series((1,), 0j, 3, self)[0][0]
        self.eta1 = -d3 / (6 * self.d1_0)
        self.wp_const = d3 / (3 * self.d1_0)


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
    ``_series_3``) and every other order the generic loop (``_series_loop``);
    all of them give the generic loop's jets bit for bit.  ``values`` is
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
        coeffs, bounds, pms = td.coeffs[r], td.bounds[odd], _PI_M[odd]
        tot = [0j if odd else 1 + 0j] + [0j] * d
        for k in range(THETA_CAP):
            harm = (P - M, P + M) if r == 1 else (P + M, P - M)
            t, pm = coeffs[k], pms[k]
            for j in range(d + 1):
                tot[j] += t * harm[j & 1]
                t *= 1j * pm
            b = bounds[k] * e
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
        coeffs, bounds = td.coeffs[r], td.bounds[odd]
        s0 = 0j if odd else 1 + 0j
        for k in range(THETA_CAP):
            s0 += coeffs[k] * (P - M if r == 1 else P + M)
            if not bounds[k] * e > THETA_RTOL * abs(s0):
                break
            P, M, e = P * w2, M * wi2, e * ey2
        out.append([s0])
    return out


def _series_1(rs, z, td):
    """The order-1 jets of ``_series`` and the order-0 values: the partial
    sum s0 at the first term whose order-0 test stops, or the full sum."""
    w, wi = cmath.exp(1j * math.pi * z), cmath.exp(-1j * math.pi * z)
    ey = math.exp(math.pi * abs(z.imag))
    w2, wi2, ey2 = w * w, wi * wi, ey * ey
    out, values = [], []
    for r in rs:
        odd = r < 3
        P, M, e = (w, wi, ey) if odd else (w2, wi2, ey2)
        coeffs, bounds, pms = td.coeffs[r], td.bounds[odd], _PI_M[odd]
        s0, s1, v = (0j if odd else 1 + 0j), 0j, None
        for k in range(THETA_CAP):
            h0, h1 = (P - M, P + M) if r == 1 else (P + M, P - M)
            t, pm = coeffs[k], pms[k]
            s0 += t * h0
            t *= 1j * pm
            s1 += t * h1
            b = bounds[k] * e
            if not b > THETA_RTOL * abs(s0):
                if v is None:
                    v = s0
                if not b * pm > THETA_RTOL * abs(s1):
                    break
            P, M, e = P * w2, M * wi2, e * ey2
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
        coeffs, bounds, pms = td.coeffs[r], td.bounds[odd], _PI_M[odd]
        s0, s1, s2, s3, v = (0j if odd else 1 + 0j), 0j, 0j, 0j, None
        for k in range(THETA_CAP):
            h0, h1 = (P - M, P + M) if r == 1 else (P + M, P - M)
            t, pm = coeffs[k], pms[k]
            ipm = 1j * pm
            s0 += t * h0
            t *= ipm
            s1 += t * h1
            t *= ipm
            s2 += t * h0
            t *= ipm
            s3 += t * h1
            b = bounds[k] * e
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
    """[theta_r^(j)(z) for j <= d] for each r in rs at the plain point z.
    The order-0 values that a sum of order 1 or 3 kept are stored too, so a
    later order-0 request at z is a cache hit."""
    key = (rs, z, d, tau)
    jets = _jet_cache.get(key)
    if jets is None:
        jets, values = _series(rs, z, d, _tdata(tau))
        if len(_jet_cache) < _JET_CACHE_CAP:
            _jet_cache[key] = jets
            if values is not None:
                _jet_cache.setdefault((rs, z, 0, tau), values)
    return jets


def _theta_at(rs, z, tau, m):
    """[[theta_r^(i)(z) for i <= m] for r in rs]; a Dual z of depth d is
    the Taylor expansion of the order d + m jet at its plain value."""
    d, z0 = 0, z
    while isinstance(z0, Dual):
        d, z0 = d + 1, z0.val
    if d == 0:
        return _jets(rs, z, m, tau)
    h = z - z0
    return [[taylor(jet[i:i + d + 1], h) for i in range(m + 1)]
            for jet in _jets(rs, z0, d + m, tau)]


def theta(r, z, tau):
    """theta_r(z | tau), r in 1..4 (r = 4 also reachable as r = 0)."""
    return _theta_at((r or 4,), z, tau, 0)[0][0]


def eta1(tau):
    return _tdata(tau).eta1


def _guard(name, w, scale=1.0):
    if abs(value(w)) < POLE_GUARD * scale:
        raise PoleError(f"|{name}| = {abs(value(w)):.2e} below pole guard "
                        f"{POLE_GUARD * scale:.2e}")
    return w


def sigma(mu, z, tau):
    """sigma_mu(z) = theta1(z-mu) theta1'(0) / (theta1(z) theta1(-mu))."""
    return _sigmas((1,), mu, z, tau, 0)[0]


def half_periods(tau):
    """The half periods 0, 1/2, (1 + tau)/2, tau/2 of the lattice Z + tau Z."""
    return (0j, 0.5 + 0j, (1 + tau) / 2, tau / 2)


# Kernel families: one kernel object per parameter set, with its pair
# (``fields.kernel_family``).
sigma_kernel = kernel_family(lambda mu, tau: lambda z: sigma(mu, z, tau),
                             lambda mu, tau: lambda z: sigma_pair(mu, z, tau))
sigma_dz_kernel = kernel_family(lambda mu, tau: lambda z: sigma_dz(mu, z, tau), None)
v_kernel = kernel_family(lambda mu, g, tau: lambda z: v_func(mu, z, g, tau),
                         lambda mu, g, tau: lambda z: v_pair(mu, z, g, tau))
v_dz_kernel = kernel_family(lambda mu, g, tau: lambda z: v_func_dz(mu, z, g, tau), None)
wp_kernel = kernel_family(lambda tau: lambda z: wp(z, tau),
                          lambda tau: lambda z: wp_pair(z, tau))
hecke_kernel = kernel_family(lambda tau, k: lambda z: hecke(z, tau, k),
                             lambda tau, k: lambda z: hecke_pair(z, tau, k))
u_kernel = kernel_family(lambda t, tv: lambda z: u_fun(z, t, tv),
                         lambda t, tv: lambda z: u_pair(z, t, tv))


def sigma_form(mu, form, tau, const=0j):
    """The field sigma_mu(<form, x> + const)."""
    return LinArg(sigma_kernel(mu, tau), form, const)


def sigma_dz_form(mu, form, tau):
    """The field sigma_mu'(<form, x>)."""
    return LinArg(sigma_dz_kernel(mu, tau), form)


def _sigmas(rs, mu, z, tau, m):
    """For each r in rs, theta_r(z - mu) theta1'(0) / (theta_r(z) theta1(-mu))
    (m = 0) or its z-derivative (m = 1), from the jets at z - mu and z;
    theta1(-mu) is guarded once, before the theta_r(z) guards."""
    td = _tdata(tau)
    t1 = _guard("theta1(-mu)", theta(1, -mu, tau), td.scales[1])
    out = []
    for r, (a, *da), (b, *db) in zip(rs, _theta_at(rs, z - mu, tau, m),
                                     _theta_at(rs, z, tau, m)):
        den = _guard(f"theta{r}(z)", b, td.scales[r]) * t1
        out.append(a * td.d1_0 / den if m == 0
                   else (da[0] * b - a * db[0]) * td.d1_0 / (b * den))
    return out


def _sigma_pairs(rs, mu, z, tau):
    """For each r in rs, (value, slope) of ``_sigmas(rs, mu, Dual(z, 1.0),
    tau, 0)``, from the order-1 jets at z - mu and z, with its guards."""
    td = _tdata(tau)
    t1 = _guard("theta1(-mu)", theta(1, -mu, tau), td.scales[1])
    out = []
    for r, (a, da), (b, db) in zip(rs, _jets(rs, z - mu, 1, tau), _jets(rs, z, 1, tau)):
        den, dden = _guard(f"theta{r}(z)", b, td.scales[r]) * t1, db * t1
        q = a * td.d1_0 / den
        out.append((q, (da * td.d1_0 - q * dden) / den))
    return out


def sigma_pair(mu, z, tau):
    """(sigma_mu(z), sigma_mu'(z)) at a plain z, as on Dual(z, 1.0)."""
    return _sigma_pairs((1,), mu, z, tau)[0]


def sigma_dz(mu, z, tau):
    """d/dz sigma_mu(z)."""
    return _sigmas((1,), mu, z, tau, 1)[0]


def wp(z, tau):
    """Weierstrass P for the lattice Z + tau Z, Laurent-normalized."""
    f, fp, fpp = _theta_at((1,), z, tau, 2)[0]
    td = _tdata(tau)
    _guard("theta1(z)", f, td.scales[1])
    return -(fpp * f - fp * fp) / (f * f) + td.wp_const


def wp_pair(z, tau):
    """(P(z), P'(z)) at a plain z, as ``wp`` gives them on Dual(z, 1.0)."""
    f, fp, fpp, fppp = _jets((1,), z, 3, tau)[0]
    td = _tdata(tau)
    _guard("theta1(z)", f, td.scales[1])
    num = -(fpp * f - fp * fp)
    dnum = -((fpp * fp + fppp * f) - (fp * fpp + fpp * fp))
    den, dden = f * f, f * fp + fp * f
    q = num / den
    return q + td.wp_const, (dnum - q * dden) / den


def _v(mu, z, g, tau, m):
    """d^m/dz^m v_mu(z; g0..g3) for m = 0 or 1."""
    rs = tuple(r + 1 for r in range(4) if g[r] != 0)
    out = 0j
    for r, s in zip(rs, _sigmas(rs, 2 * mu, z, tau, m)):
        out = out + g[r - 1] * s
    return out


def v_func(mu, z, g, tau):
    """v_mu(z; g0..g3) = sum_r g_r sigma^r_{2 mu}(z)."""
    return _v(mu, z, g, tau, 0)


def v_func_dz(mu, z, g, tau):
    """d/dz v_mu(z; g0..g3)."""
    return _v(mu, z, g, tau, 1)


def v_pair(mu, z, g, tau):
    """(v_mu(z), v_mu'(z)) at a plain z, as ``v_func`` gives them on
    Dual(z, 1.0): the sum folds from 0j and its slope from the first term."""
    rs = tuple(r + 1 for r in range(4) if g[r] != 0)
    out, slope = 0j, None
    for r, (s, ds) in zip(rs, _sigma_pairs(rs, 2 * mu, z, tau)):
        out = out + s * g[r - 1]
        slope = ds * g[r - 1] if slope is None else slope + ds * g[r - 1]
    return out, 0j if slope is None else slope


def dual_couplings(g):
    """g^vee = (1/2) H g with the Hadamard-type sign matrix."""
    return tuple(sum(HALF_PERIOD_SIGNS[r][s] * g[s] for s in range(4)) / 2
                 for r in range(4))


class NewtonError(ArithmeticError):
    """Root search for the dual spectral point failed from all seeds."""


def dual_params(nu, g, tau):
    """Dual parameters (nu^vee, g^vee): g^vee = H g / 2 and v_{nu,g}(nu^vee) = 0.

    nu^vee is found by complex Newton iteration from 16 lattice-fraction
    seeds, at most 100 steps each, to |v| < 1e-12; among converged roots
    the one closest to 0 is returned.
    """
    gv = dual_couplings(g)
    roots = []
    for a in range(4):
        for b in range(4):
            z0 = (a + 0.61803) / 4 + tau * (b + 0.61803) / 4
            z = complex(z0)
            ok = False
            for _ in range(100):
                try:
                    f, fp = v_pair(nu, z, g, tau)
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


def hecke(z, tau_hecke, k):
    """Hecke kernel a(z) = (tau^-1 - tau e^z)/(1 - e^z) (k = 0), the c-function
    of the basic representation, or b(z) = (tau - tau^-1)/(1 - e^z) (k = 1)."""
    ez = d_exp(z)
    den = _guard("1 - e^z", 1.0 - ez)
    num = 1.0 / tau_hecke - tau_hecke * ez if k == 0 else tau_hecke - 1.0 / tau_hecke
    return num / den


def hecke_pair(z, tau_hecke, k):
    """(f(z), f'(z)) for f = ``hecke(., tau_hecke, k)``, as on Dual(z, 1.0)."""
    e = cmath.exp(z)
    de = e * 1.0
    den, dden = _guard("1 - e^z", 1.0 - e), -de
    if k == 0:
        num, dnum = 1.0 / tau_hecke - e * tau_hecke, -(de * tau_hecke)
    else:
        num, dnum = tau_hecke - 1.0 / tau_hecke, 0j
    q = num / den
    return q, (dnum - q * dden) / den


def u_fun(z, tau_n, tau_n_vee):
    """u(z) of the Noumi kernels (affine roots k delta +- 2 e_i; at odd k,
    u~(z) = u(z + c/2) at tau_0, tau_0^vee)."""
    ez = d_exp(z)
    den = _guard("1 - e^{2z}", 1.0 - ez * ez)
    return (1.0 - tau_n * tau_n_vee * ez) * (1.0 + tau_n / tau_n_vee * ez) / (tau_n * den)


def u_pair(z, tau_n, tau_n_vee):
    """(u(z), u'(z)) at a plain z, as ``u_fun`` gives them on Dual(z, 1.0)."""
    e = cmath.exp(z)
    de = e * 1.0
    den = _guard("1 - e^{2z}", 1.0 - e * e) * tau_n
    dden = -(e * de + de * e) * tau_n
    ca, cb = tau_n * tau_n_vee, tau_n / tau_n_vee
    a, da = 1.0 - e * ca, -(de * ca)
    b, db = e * cb + 1.0, de * cb
    q = a * b / den
    return q, ((a * db + da * b) - q * dden) / den
