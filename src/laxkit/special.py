"""Jacobi theta functions, sigma kernels, Weierstrass P, and the
four-coupling v-functions, plus their trigonometric degenerations.

Conventions: theta_1..theta_4 with nome q = e^{i pi tau}, quasi-periods
theta_1(z+1) = -theta_1(z), theta_1(z+tau) = -e^{-i pi tau - 2 pi i z} theta_1(z).
All evaluations accept Dual arguments in z, so derivatives of any order
come from the series itself.  P(z) is normalized by its Laurent expansion
P = 1/z^2 + O(z^2), which together with eta1 = -theta1'''(0)/(6 theta1'(0))
gives lim_{mu->0} sigma_mu'(z) = -P(z) - 2*eta1.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .dual import Dual, d_cos, d_exp, d_sin, directional, extract, value
from .fields import LinArg, PoleError

MIN_IM_TAU = 0.05
THETA_RTOL = 1e-16
THETA_CAP = 200
POLE_GUARD = 1e-3

HALF_PERIOD_SIGNS = ((1, 1, 1, 1), (1, 1, -1, -1), (1, -1, 1, -1), (1, -1, -1, 1))


class ModulusError(ValueError):
    """Im tau below the numeric guard."""


@dataclass(frozen=True)
class EllipticParams:
    tau: complex

    def __post_init__(self):
        if self.tau.imag < MIN_IM_TAU:
            raise ModulusError(f"Im tau = {self.tau.imag} < {MIN_IM_TAU}")


REGIMES = ("rational", "trig", "trig-CvC", "elliptic-A", "elliptic-CM",
           "elliptic-CvC")
DIFFERENCE_REGIMES = ("trig", "trig-CvC", "elliptic-A", "elliptic-CvC")


@dataclass(frozen=True)
class CouplingSet:
    """Tagged parameter bundle for one regime.

    All parameters must be finite, and difference regimes need a nonzero
    step constant c.
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

    def __getitem__(self, key):
        return self.params[key]


class _ThetaData:
    __slots__ = ("tau", "odd_coeffs", "even_coeffs", "d1_0", "d3_0", "eta1", "wp_const")

    def __init__(self, tau):
        if tau.imag < MIN_IM_TAU:
            raise ModulusError(f"Im tau = {tau.imag} < {MIN_IM_TAU}")
        self.tau = tau
        q = cmath.exp(1j * cmath.pi * tau)
        self.odd_coeffs = []       # q^{(k+1/2)^2}
        self.even_coeffs = []      # q^{k^2}, k >= 1
        for k in range(THETA_CAP):
            self.odd_coeffs.append(q ** ((k + 0.5) ** 2))
            self.even_coeffs.append(q ** ((k + 1) ** 2))
        self.d1_0 = None
        self.d3_0 = None
        self.eta1 = None
        self.wp_const = None


_theta_cache: dict = {}


def _tdata(tau) -> _ThetaData:
    key = complex(tau)
    td = _theta_cache.get(key)
    if td is None:
        td = _ThetaData(key)
        _theta_cache[key] = td
    return td


_value_cache: dict = {}
_VALUE_CACHE_CAP = 400000


def theta(r, z, tau):
    """theta_r(z | tau), r in 1..4 (r = 4 also reachable as r = 0)."""
    if r == 0:
        r = 4
    if type(z) is complex or type(z) is float:
        key = (r, z, tau)
        hit = _value_cache.get(key)
        if hit is not None:
            return hit
        out = _theta_series(r, z, tau)
        if len(_value_cache) < _VALUE_CACHE_CAP:
            _value_cache[key] = out
        return out
    return _theta_series(r, z, tau)


def _theta_series(r, z, tau):
    td = _tdata(tau)
    imz = abs(value(z).imag)
    piz = cmath.pi * z
    if r in (1, 2):
        total = 0j
        mag = 0.0
        for k in range(THETA_CAP):
            qc = td.odd_coeffs[k]
            if r == 1:
                term = 2 * ((-1) ** k) * qc * d_sin((2 * k + 1) * piz)
            else:
                term = 2 * qc * d_cos((2 * k + 1) * piz)
            total = total + term
            mag = max(mag, abs(value(total)))
            bound = 2 * abs(qc) * math.exp((2 * k + 1) * math.pi * imz)
            if k >= 1 and bound < THETA_RTOL * (mag + 1e-300):
                break
        return total
    total = 1.0 + 0j
    mag = 1.0
    for k in range(1, THETA_CAP + 1):
        qc = td.even_coeffs[k - 1]
        sign = (-1) ** k if r == 4 else 1
        term = 2 * sign * qc * d_cos(2 * k * piz)
        total = total + term
        mag = max(mag, abs(value(total)))
        bound = 2 * abs(qc) * math.exp(2 * k * math.pi * imz)
        if bound < THETA_RTOL * (mag + 1e-300):
            break
    return total


def theta_deriv(r, z, tau, order=1):
    """d^order/dz^order theta_r(z|tau), via nested duals on the series."""
    fn = lambda pt: theta(r, pt[0], tau)
    return directional(fn, (z,), [(1.0,)] * order)


def theta1_d0(tau):
    td = _tdata(tau)
    if td.d1_0 is None:
        td.d1_0 = theta_deriv(1, 0j, tau, 1)
        td.d3_0 = theta_deriv(1, 0j, tau, 3)
        td.eta1 = -td.d3_0 / (6 * td.d1_0)
        td.wp_const = td.d3_0 / (3 * td.d1_0)
    return td.d1_0


def eta1(tau):
    theta1_d0(tau)
    return _tdata(tau).eta1


def theta_scale(r, tau):
    """Natural magnitude scale of theta_r (its leading series coefficient)."""
    td = _tdata(tau)
    if r in (1, 2):
        return 2 * abs(td.odd_coeffs[0])
    return 1.0


def _guard(name, w, scale=1.0):
    if abs(value(w)) < POLE_GUARD * scale:
        raise PoleError(f"|{name}| = {abs(value(w)):.2e} below pole guard "
                        f"{POLE_GUARD * scale:.2e}")
    return w


def sigma(mu, z, tau):
    """sigma_mu(z) = theta1(z-mu) theta1'(0) / (theta1(z) theta1(-mu))."""
    return sigma_r(0, mu, z, tau)


def half_periods(tau):
    """The half periods 0, 1/2, (1 + tau)/2, tau/2 of the lattice Z + tau Z."""
    return (0j, 0.5 + 0j, (1 + tau) / 2, tau / 2)


def sigma_form(mu, form, tau, const=0j):
    """The field sigma_mu(<form, x> + const)."""
    return LinArg(lambda z: sigma(mu, z, tau), form, const)


def sigma_dz_form(mu, form, tau, const=0j):
    """The field sigma_mu'(<form, x> + const)."""
    return LinArg(lambda z: sigma_dz(mu, z, tau), form, const)


def sigma_r(r, mu, z, tau):
    """sigma^r_mu(z) with theta_{r+1} in place of theta_1 (theta_4 = theta_0)."""
    idx = r + 1
    num = theta(idx, z - mu, tau) * theta1_d0(tau)
    den = (_guard(f"theta{idx}(z)", theta(idx, z, tau), theta_scale(idx, tau))
           * _guard("theta1(-mu)", theta(1, -mu, tau), theta_scale(1, tau)))
    return num / den


def sigma_dz(mu, z, tau):
    """d/dz sigma_mu(z)."""
    fn = lambda pt: sigma(mu, pt[0], tau)
    return directional(fn, (z,), [(1.0,)])


def wp(z, tau):
    """Weierstrass P for the lattice Z + tau Z, Laurent-normalized."""
    theta1_d0(tau)
    td = _tdata(tau)
    # two dual layers seeded outside any layers already present in z
    t0 = theta(1, Dual(Dual(z, 1.0 + 0j), Dual(1.0 + 0j, 0j)), tau)
    f, fp, fpp = t0.val.val, t0.val.eps, t0.eps.eps
    _guard("theta1(z)", f, theta_scale(1, tau))
    return -(fpp * f - fp * fp) / (f * f) + td.wp_const


def v_func(mu, z, g, tau):
    """v_mu(z; g0..g3) = sum_r g_r sigma^r_{2 mu}(z)."""
    out = 0j
    for r in range(4):
        if g[r] != 0:
            out = out + g[r] * sigma_r(r, 2 * mu, z, tau)
    return out


def v_func_dz(mu, z, g, tau):
    fn = lambda pt: v_func(mu, pt[0], g, tau)
    return directional(fn, (z,), [(1.0,)])


def dual_couplings(g):
    """g^vee = (1/2) H g with the Hadamard-type sign matrix."""
    return tuple(sum(HALF_PERIOD_SIGNS[r][s] * g[s] for s in range(4)) / 2
                 for r in range(4))


class NewtonError(ArithmeticError):
    """Root search for the dual spectral point failed from all seeds."""


def dual_params(nu, g, tau, tol=1e-12, max_steps=100):
    """Dual parameters (nu^vee, g^vee): g^vee = H g / 2 and v_{nu,g}(nu^vee) = 0.

    nu^vee is found by complex Newton iteration from 16 lattice-fraction
    seeds; among converged roots the one closest to 0 is returned.
    """
    gv = dual_couplings(g)
    roots = []
    for a in range(4):
        for b in range(4):
            z0 = (a + 0.61803) / 4 + tau * (b + 0.61803) / 4
            z = complex(z0)
            ok = False
            for _ in range(max_steps):
                try:
                    jet = v_func(nu, Dual(z, 1.0 + 0j), g, tau)
                except PoleError:
                    break
                f, fp = value(jet), value(extract(jet))
                if abs(f) < tol:
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


def trig_ab(z, tau_hecke):
    """Hecke kernel pair a(z) = (tau^-1 - tau e^z)/(1 - e^z), b = (tau - tau^-1)/(1 - e^z)."""
    ez = d_exp(z)
    den = _guard("1 - e^z", 1.0 - ez)
    return ((1.0 / tau_hecke - tau_hecke * ez) / den,
            (tau_hecke - 1.0 / tau_hecke) / den)


def c_reduced(z, tau_alpha):
    """c_alpha = (tau^-1 - tau e^z)/(1 - e^z) at z = <alpha, x> + k c."""
    ez = d_exp(z)
    den = _guard("1 - e^alpha", 1.0 - ez)
    return (1.0 / tau_alpha - tau_alpha * ez) / den


def u_fun(z, tau_n, tau_n_vee):
    """u(z) of the Noumi kernels (even affine roots 2k delta +- 2 e_i)."""
    ez = d_exp(z)
    den = _guard("1 - e^{2z}", 1.0 - ez * ez)
    return (1.0 - tau_n * tau_n_vee * ez) * (1.0 + tau_n / tau_n_vee * ez) / (tau_n * den)


def v_fun(z, tau_n, tau_n_vee):
    return tau_n - u_fun(z, tau_n, tau_n_vee)


def ut_fun(z, tau_0, tau_0_vee, q):
    """u~(z): odd affine roots (2k+1) delta +- 2 e_i, carries q^(1/2)."""
    qh = cmath.sqrt(q)
    ez = d_exp(z)
    den = _guard("1 - q e^{2z}", 1.0 - q * ez * ez)
    return (1.0 - tau_0 * tau_0_vee * qh * ez) * (1.0 + tau_0 / tau_0_vee * qh * ez) / (tau_0 * den)


def vt_fun(z, tau_0, tau_0_vee, q):
    return tau_0 - ut_fun(z, tau_0, tau_0_vee, q)


def cfun(regime_params, aroot_alpha, aroot_k, z):
    """Value of c_alpha at z = <alpha,x> + k c, for the C-vee-C kernel classes.

    ``regime_params`` carries tau, tau0, tau0v, taun, taunv, q.  The class
    of the affine root is decided by the finite part (long/short... here:
    doubled vs difference roots) and the parity of k.
    """
    p = regime_params
    nonzero = [v for v in aroot_alpha if v != 0]
    if len(nonzero) == 2:
        return c_reduced(z, p["tau"]), p["tau"]
    if len(nonzero) != 1 or abs(nonzero[0]) != 2:
        raise ValueError(f"unsupported affine root {aroot_alpha}")
    if aroot_k % 2 == 0:
        return u_fun(z / 2, p["taun"], p["taunv"]), p["taun"]
    # odd level: u~ supplies one factor q^(1/2), so feed it (z - c)/2
    return ut_fun((z - p["c"]) / 2, p["tau0"], p["tau0v"], p["q"]), p["tau0"]

