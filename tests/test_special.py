"""Theta/sigma/wp/v-function identities against independent oracles."""

import cmath
import itertools
import math
import random

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from support import directional

from laxkit import ellcm, fields, koorn, special
from laxkit.cli import main as cli_main
from laxkit.dual import Dual, d_exp, extract, value
from laxkit.fields import PoleError, inv_form
from laxkit.special import (ModulusError, dual_couplings, dual_params, eta1,
                            hecke, sigma, sigma_form, theta, u_kernel, v_func,
                            wp)

TAU = 0.3 + 0.8j
RNG = random.Random(2024)


def rand_z(rng, re=0.45, im=0.1):
    return complex(rng.uniform(-re, re), rng.uniform(-im, im))


def kahan_theta1(z, tau, terms=64):
    """Independent oracle: direct 64-term series with Kahan compensation."""
    q = cmath.exp(1j * cmath.pi * tau)
    total = 0j
    comp = 0j
    for k in range(terms):
        term = 2 * ((-1) ** k) * q ** ((k + 0.5) ** 2) * cmath.sin((2 * k + 1) * cmath.pi * z)
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
    return total


def test_theta1_oracle_kahan():
    val = theta(1, 0.3, 0.5j)
    assert abs(val - kahan_theta1(0.3, 0.5j)) < 1e-14


def test_theta_vs_mpmath():
    mp.mp.dps = 30
    q = mp.exp(1j * mp.pi * mp.mpc(TAU))
    for r in (1, 2, 3, 4):
        for z in (0.21 + 0.04j, -0.37 + 0.09j):
            ours = theta(r, z, TAU)
            ref = complex(mp.jtheta(r, mp.pi * mp.mpc(z), q))
            assert abs(ours - ref) < 1e-13


@pytest.mark.parametrize("tau", [TAU, 0.1 + 0.5j])
def test_theta_jets_vs_mpmath(tau):
    """Orders 0-3 of every theta_r, alone and from one shared pass, against
    mpmath's z-derivatives (mpmath's argument is pi z)."""
    mp.mp.dps = 30
    q = mp.exp(1j * mp.pi * mp.mpc(tau))
    for z in (0.21 + 0.04j, -0.37 + 0.09j, 0.05 - 0.12j):
        shared = special._jets((1, 2, 3, 4), z, 3, tau)
        for r in (1, 2, 3, 4):
            alone = special._jets((r,), z, 3, tau)[0]
            assert alone == shared[r - 1]
            for k in range(4):
                ref = complex(mp.jtheta(r, mp.pi * mp.mpc(z), q, derivative=k)
                              * mp.pi ** k)
                assert abs(alone[k] - ref) < 1e-13


def test_theta_on_duals_is_the_taylor_expansion_of_the_jet():
    z, dirs = 0.23 - 0.06j, (1.0, 0.5 - 0.25j, -2.0)
    for r in (1, 2, 3, 4):
        jet = special._jets((r,), z, 3, TAU)[0]
        for d in (1, 2, 3):
            want = jet[d] * math.prod(dirs[:d])
            got = directional(lambda pt: theta(r, pt[0], TAU), (z,),
                              [(a,) for a in dirs[:d]])
            assert abs(got - want) <= 1e-14 * abs(want)
        tangent = np.array([1.0, -0.3 + 0.2j, 0.0])
        got = theta(r, Dual(z, tangent), TAU)
        assert abs(got.val - jet[0]) <= 1e-14 * abs(jet[0])
        assert np.all(abs(got.eps - jet[1] * tangent) <= 1e-14 * abs(jet[1]))


def near_component_zeros(r, td, rng, edge, count):
    """Pairs of points that bracket a sign change of Re or Im theta_r(x + iy)
    to the last bit of x: there a partial sum's small component still moves
    after the value's stop test first passes."""
    out = []
    while len(out) < 2 * count:
        y, part = rng.uniform(-edge, edge), rng.choice(("real", "imag"))

        def f(x):
            return getattr(special._series_loop((r,), complex(x, y), 0, td)[0][0], part)
        a, b = rng.uniform(-1, 1), rng.uniform(-1, 1)
        if f(a) * f(b) > 0:
            continue
        for _ in range(60):
            m = (a + b) / 2
            a, b = (a, m) if f(a) * f(m) <= 0 else (m, b)
        out += [complex(a, y), complex(b, y)]
    return out


# every nonempty set of theta_r, in increasing r, as the kernels ask for them
THETA_SETS = [rs for size in range(1, 5) for rs in itertools.combinations((1, 2, 3, 4), size)]


@pytest.mark.parametrize("tau", [0.82j, 0.1 + 0.5j, 0.2 + (special.MIN_IM_TAU + 1e-3) * 1j])
def test_series_paths_are_the_generic_loop_bit_for_bit(tau, monkeypatch):
    """The d = 0, 1 and 3 loops of ``_series`` give the generic loop's jets
    with every bit, signs of zeros included (repr), for every nonempty set
    of the theta_r (so the d = 1 loop sums theta_1 with theta_2, and theta_3
    with theta_4, on one harmonic sequence or alone), up to the strip edge
    |Im z| < Im tau / 2 and at a tau whose sums run long; the order-0 values
    the d = 1 and d = 3 loops keep are the d = 0 sum, also next to a zero of
    one of its components, and ``_jets`` stores them under order 0."""
    monkeypatch.setattr(special, "_jet_cache", {})
    td = special._tdata(tau)
    rng = random.Random(21)
    edge = 0.999 * tau.imag / 2
    zs = [0j, complex(0.5, -0.0)] + [rand_z(rng, 1.5, edge) for _ in range(150)]
    zs += [z for r in (1, 2, 3, 4) for z in near_component_zeros(r, td, rng, edge, 10)]
    for z in zs:
        for rs in THETA_SETS:
            value0 = repr(special._series_loop(rs, z, 0, td))
            for d in (0, 1, 3):
                jets, values = special._series(rs, z, d, td)
                assert repr(jets) == repr(special._series_loop(rs, z, d, td))
                assert repr(values) == (repr(None) if d == 0 else value0)
            special._jets(rs, z, 1, tau)
            assert repr(special._jet_cache[(rs, z, 0, tau)]) == value0


def test_the_member_of_a_pair_that_runs_longer_goes_on_bit_for_bit():
    """theta_1/theta_2 and theta_3/theta_4 summed on one harmonic sequence
    give the generic loop's order-1 jets and order-0 values, also where one
    member stops before the other and the other's last terms still move a
    bit: at a tau whose sums run long, over 2000 seeded points (about one
    point in 200 is such a point for the pair theta_3/theta_4 there)."""
    tau = 0.2 + (special.MIN_IM_TAU + 1e-3) * 1j
    td = special._tdata(tau)
    rng = random.Random(28)
    edge = 0.999 * tau.imag / 2
    for _ in range(2000):
        z = rand_z(rng, 1.5, edge)
        for rs in ((1, 2), (3, 4)):
            want = (special._series_loop(rs, z, 1, td), special._series_loop(rs, z, 0, td))
            assert repr(special._series_1(rs, z, td)) == repr(want)


@pytest.mark.parametrize("tau", [0.82j, 0.1 + 0.5j, TAU])
def test_jets_read_by_parity_from_the_negative_are_the_sums_bit_for_bit(tau, monkeypatch):
    """With the jets at -z cached, the jets at z come from them by parity
    (theta_1 odd, the others even), with no sum, and equal the sum at z
    with every bit (repr), for each theta_r alone and all four, at orders
    0-3 and 5: at seeded z with nonzero real and imaginary parts, and on
    the real axis, where a real flow at a purely imaginary tau reads them."""
    monkeypatch.setattr(special, "_jet_cache", {})
    td = special._tdata(tau)
    rng = random.Random(27)
    edge = 0.999 * tau.imag / 2
    zs = [rand_z(rng, 1.5, edge) for _ in range(40)]
    zs += [complex(rng.uniform(-1.5, 1.5), 0.0) for _ in range(10)]
    assert all(z.real != 0 for z in zs) and all(z.imag != 0 for z in zs[:40])
    real, summed = special._series, []

    def counting(rs, z, d, td):
        summed.append(z)
        return real(rs, z, d, td)
    monkeypatch.setattr(special, "_series", counting)
    for z in zs:
        for rs in ((1,), (2,), (3,), (4,), (1, 2, 3, 4)):
            for d in (0, 1, 2, 3, 5):
                special._jets(rs, -z, d, tau)
                summed.clear()
                got = special._jets(rs, z, d, tau)
                assert summed == []
                assert repr(got) == repr(real(rs, z, d, td)[0])


@pytest.mark.parametrize("tau", [0.82j, 0.31 + 0.84j, 0.1 + 0.5j,
                                 0.2 + (special.MIN_IM_TAU + 1e-3) * 1j])
def test_theta_tables_end_at_the_first_zero_bound(tau):
    """Each parity's bounds 2|c_k| stop at the first one that is 0 (17
    nonzero bounds at Im tau = 0.82), the terms of every theta_r run as far,
    and the term of order j is the one of order j - 1 times i pi m."""
    td = special._ThetaData(tau)
    q = cmath.exp(1j * cmath.pi * tau)
    for odd, bounds in td.bounds.items():
        full = [2 * abs(q ** ((k + 0.5) ** 2 if odd else (k + 1) ** 2))
                for k in range(special.THETA_CAP)]
        assert full.index(0.0) == len(bounds) - 1 and bounds == full[:len(bounds)]
        for r in ((1, 2) if odd else (3, 4)):
            terms = td.terms[r]
            assert [len(t) for t in terms] == [len(bounds)] * 4
            for lower, higher in zip(terms, terms[1:]):
                assert repr(higher) == repr([t * (1j * pm) for t, pm in
                                             zip(lower, special._PI_M[odd])])
    if tau == 0.82j:
        assert [len(b) - 1 for b in td.bounds.values()] == [17, 17]


def test_value_and_slope_at_one_point_are_summed_once(tmp_path, monkeypatch):
    """A vandiejen flow asks for the order-1 (and order-3) jets and for the
    values at the same points; no (rs, z) is summed at order 0 and again at
    a higher order."""
    monkeypatch.setattr(special, "_jet_cache", {})
    orders = {}
    real = special._series

    def counting(rs, z, d, td):
        orders.setdefault((rs, z), []).append(d)
        return real(rs, z, d, td)
    monkeypatch.setattr(special, "_series", counting)
    assert cli_main(["flow", "--system", "vandiejen", "--rank", "2", "--time", "1",
                     "--dt", "1e-2", "--csv", str(tmp_path / "flow.csv")]) == 0
    assert {d for ds in orders.values() for d in ds} >= {0, 1}
    assert [key for key, ds in orders.items() if 0 in ds and len(ds) > 1] == []


def test_theta1_odd_and_zero():
    assert abs(theta(1, 0j, TAU)) < 1e-15
    z = rand_z(RNG)
    assert abs(theta(1, -z, TAU) + theta(1, z, TAU)) < 1e-14


def test_theta1_quasi_periodicity():
    z, tau = 0.3 + 0.1j, 0.8j
    assert abs(theta(1, z + 1, tau) + theta(1, z, tau)) < 1e-12
    lhs = theta(1, z + tau, tau)
    rhs = -cmath.exp(-1j * cmath.pi * tau - 2j * cmath.pi * z) * theta(1, z, tau)
    assert abs(lhs - rhs) < 1e-12


def test_modulus_guard():
    with pytest.raises(ModulusError):
        theta(1, 0.3, 0.3 + 0.01j)


def test_the_modulus_guard_ends_where_the_nome_stops_being_a_normal_float():
    top = special.MAX_IM_TAU
    assert abs(cmath.exp(1j * cmath.pi * complex(0.3, top))) >= 2.0 ** -1022
    assert abs(cmath.exp(1j * cmath.pi * complex(0.3, top + 1e-6))) < 2.0 ** -1022
    # below the bound the kernels are made and read finite; above it, at
    # Im tau = 240, they used to raise ZeroDivisionError
    for im in (40.0, 225.0):
        tau = complex(0.3, im)
        special.check_params("elliptic-A", {"tau": tau})
        values = (sigma(0.31 - 0.02j, 0.23 + 0.05j, tau), wp(0.23 + 0.05j, tau))
        assert all(map(cmath.isfinite, values))
    for im in (226.0, 240.0, 1e9):
        tau = complex(0.3, im)
        with pytest.raises(ModulusError, match=f"^Im tau = {im} > {top}"):
            special.check_params("elliptic-A", {"tau": tau})
        with pytest.raises(ModulusError):
            sigma(0.31 - 0.02j, 0.23 + 0.05j, tau)


def test_sigma_pole_guard_names_factor():
    with pytest.raises(PoleError, match="theta1"):
        sigma(0.3, 1e-9, TAU)


def test_sigma_periodicity_and_oddness():
    rng = random.Random(7)
    for _ in range(10):
        z, mu = rand_z(rng), rand_z(rng)
        if abs(z) < 0.05 or abs(mu) < 0.05 or abs(z - mu) < 0.05:
            continue
        assert abs(sigma(mu + 1, z, TAU) - sigma(mu, z, TAU)) < 1e-10
        lhs = sigma(mu + TAU, z, TAU)
        rhs = cmath.exp(2j * cmath.pi * z) * sigma(mu, z, TAU)
        assert abs(lhs - rhs) / (1 + abs(rhs)) < 1e-10
        assert abs(sigma(-mu, -z, TAU) + sigma(mu, z, TAU)) < 1e-10


def test_sigma_product_is_wp_difference():
    rng = random.Random(8)
    for _ in range(10):
        z, mu = rand_z(rng), rand_z(rng)
        if min(abs(z), abs(mu), abs(z - mu), abs(z + mu)) < 0.05:
            continue
        lhs = sigma(mu, z, TAU) * sigma(mu, -z, TAU)
        rhs = wp(mu, TAU) - wp(z, TAU)
        assert abs(lhs - rhs) / (1 + abs(rhs)) < 1e-10


def test_wp_even_laurent_and_derivative():
    z = rand_z(RNG)
    assert abs(wp(z, TAU) - wp(-z, TAU)) < 1e-10
    zl = 1e-3
    assert abs(zl ** 2 * wp(zl, TAU) - 1) < 1e-4
    # derivative through the dual layer matches a finite difference
    h = 1e-6
    fd = (wp(z + h, TAU) - wp(z - h, TAU)) / (2 * h)
    jet = wp(Dual(z, 1.0 + 0j), TAU)
    assert abs(extract(jet) - fd) < 1e-5


def test_sigma_dz_limit_is_minus_wp_minus_2eta1():
    """The derivative leaf sigma_mu'(z) tends to -P(z) - 2 eta1 as mu -> 0."""
    z = 0.27 + 0.06j
    target = -wp(z, TAU) - 2 * eta1(TAU)
    r1 = abs(sigma_form(1e-2, (1.0,), TAU).dz()((z,)) - target)
    r2 = abs(sigma_form(1e-3, (1.0,), TAU).dz()((z,)) - target)
    assert r2 < 0.2 * r1          # linear convergence in mu
    assert r2 < 1e-2 * (1 + abs(target))


G = (0.7 + 0.2j, -0.3 + 0.5j, 0.9 - 0.1j, 0.4 + 0.3j)


def test_v_oddness_product_and_symmetry():
    rng = random.Random(9)
    gv = dual_couplings(G)
    om = (0j, 0.5 + 0j, (1 + TAU) / 2, TAU / 2)
    for _ in range(10):
        z, mu = rand_z(rng, 0.4, 0.08), rand_z(rng, 0.4, 0.08)
        if min(abs(z), abs(mu), abs(z - 2 * mu)) < 0.06:
            continue
        assert abs(v_func(-mu, -z, G, TAU) + v_func(mu, z, G, TAU)) < 1e-10
        lhs = v_func(mu, z, G, TAU) * v_func(mu, -z, G, TAU)
        rhs = sum(gv[r] ** 2 * wp(mu + om[r], TAU) - G[r] ** 2 * wp(z + om[r], TAU)
                  for r in range(4))
        assert abs(lhs - rhs) / (1 + abs(rhs)) < 1e-10
        sym = -v_func(z, mu, gv, TAU)
        assert abs(v_func(mu, z, G, TAU) - sym) / (1 + abs(sym)) < 1e-10


def test_dual_couplings_row_sums():
    assert dual_couplings((1, 1, 1, 1)) == (2, 0, 0, 0)


@settings(max_examples=20, deadline=None)
@given(st.lists(st.complex_numbers(max_magnitude=2, allow_nan=False,
                                   allow_infinity=False), min_size=4, max_size=4))
def test_dual_couplings_involution(g):
    twice = dual_couplings(dual_couplings(tuple(g)))
    assert all(abs(a - b) < 1e-12 for a, b in zip(twice, g))


def test_dual_params_newton():
    nu = 0.31 - 0.02j
    nuv, gv = dual_params(nu, G, TAU)
    assert abs(v_func(nu, nuv, G, TAU)) < 1e-12
    assert gv == dual_couplings(G)


# each kernel family with a pair, at parameters like those of the flows, and
# an argument inside its pole guard (d_exp has none)
PAIRED_KERNELS = {
    "sigma": (special.sigma_kernel(0.24 + 0.03j, TAU), 1e-7),
    "v": (special.v_kernel(0.31 - 0.02j, G, TAU), TAU / 2 + 1e-7),
    "v-real-couplings": (special.v_kernel(0.27, (0.4, 0.0, 0.3, 0.2), 0.82j), 1e-7),
    "v-no-theta1": (special.v_kernel(0.31 - 0.02j, (0.0,) + G[1:], TAU), 0.5 + 1e-7),
    "wp": (special.wp_kernel(0.84j), 1e-7),
    "hecke-a": (special.hecke_kernel(1.4 + 0.2j, 0), 1e-7),
    "hecke-b": (special.hecke_kernel(2 ** 0.5, 1), -1e-7j),
    "u": (special.u_kernel(1.5 + 0.2j, 0.7 + 0.1j), 1e-7),
    "koorn-neg-b": (koorn._neg_b_kernel(1.3 - 0.15j), 1e-7),
    "koorn-u-minus-tau": (koorn._u_minus_tau_kernel(1.5 + 0.2j, 0.7 + 0.1j), 1e-7),
    "inv_form": (inv_form((1.0, -1.0)).fn, 1e-5 + 1e-5j),
    "d_exp": (d_exp, None),
}


def bits(v):
    v = complex(v)
    return v.real.hex(), v.imag.hex()


@pytest.mark.parametrize("family", PAIRED_KERNELS)
def test_kernel_pair_is_the_dual_path_bit_for_bit(family):
    """``kernel.pair(z)`` gives the value and slope of the kernel on
    Dual(z, 1) with every bit, for the tangents 1.0 of ``Tape.gradient`` and
    1 + 0j of ``dual_params`` too, and inside the guard the same PoleError.
    So does the kernel at the plain z, which fixes its constants when it is
    made and reads the order-0 jets, for the value."""
    k, pole = PAIRED_KERNELS[family]
    rng = random.Random(11)
    for _ in range(50):
        z = rand_z(rng, 0.9, 0.3)
        got = tuple(map(bits, k.pair(z)))
        assert bits(k(z)) == got[0]
        for tangent in (1, 1.0, 1.0 + 0j):
            r = k(Dual(z, tangent))
            assert got == (bits(value(r)), bits(extract(r)))
    if pole is not None:
        with pytest.raises(PoleError) as dual_err:
            k(Dual(pole, 1))
        for call in (k.pair, k):
            with pytest.raises(PoleError) as err:
                call(pole)
            assert str(err.value) == str(dual_err.value)


@pytest.mark.parametrize("family", PAIRED_KERNELS)
def test_derivative_kernel_is_the_dual_path_bit_for_bit(family):
    """The derivative kernel of a leaf (``fields._dkernel``) at a plain z
    gives the slope of the kernel on Dual(z, 1.0) with every bit, read from
    its pair where it has one, and inside the guard the same PoleError."""
    k, pole = PAIRED_KERNELS[family]
    dk = fields._dkernel(k)
    rng = random.Random(28)
    for _ in range(50):
        z = rand_z(rng, 0.9, 0.3)
        assert bits(dk(z)) == bits(extract(k(Dual(z, 1.0))))
    if pole is not None:
        with pytest.raises(PoleError) as dual_err:
            k(Dual(pole, 1.0))
        with pytest.raises(PoleError) as dz_err:
            dk(pole)
        assert str(dz_err.value) == str(dual_err.value)


@pytest.mark.parametrize("family", PAIRED_KERNELS)
def test_kernel_on_a_depth_two_dual_extends_its_pair(family):
    """On Dual(Dual(z, 1.0), 1.0), the argument on which a derivative kernel
    takes second derivatives in the differential suites, both first-order
    parts of a kernel are its pair's slope with every bit, and the
    second-order part is the central difference of that slope."""
    k, _pole = PAIRED_KERNELS[family]
    rng = random.Random(30)
    h = 1e-5
    for _ in range(20):
        z = rand_z(rng, 0.9, 0.3)
        f, df = k.pair(z)
        r = k(Dual(Dual(z, 1.0), 1.0))
        assert bits(r.val.val) == bits(f)
        assert bits(r.val.eps) == bits(r.eps.val) == bits(df)
        fd = (k.pair(z + h)[1] - k.pair(z - h)[1]) / (2 * h)
        assert abs(r.eps.eps - fd) < 1e-6 * (1 + abs(fd))


# (kernel, the function reading theta1(-mu) at each call) at a mu whose
# theta1(-mu) (theta1(-2 mu) for v) is inside the pole guard; the -dz
# kernels are those of the derivative leaves, which have no pair
MU_POLE_KERNELS = {
    "sigma": (lambda: special.sigma_kernel(1e-9, TAU), lambda z: sigma(1e-9, z, TAU)),
    "sigma-dz": (lambda: sigma_form(1e-9, (1.0,), TAU).dz().fn,
                 lambda z: sigma(1e-9, Dual(z, 1.0), TAU)),
    "v": (lambda: special.v_kernel(5e-10, G, TAU), lambda z: v_func(5e-10, z, G, TAU)),
    "v-dz": (lambda: ellcm.v_form(5e-10, (1.0,), G, TAU).dz().fn,
             lambda z: v_func(5e-10, Dual(z, 1.0), G, TAU)),
}


@pytest.mark.parametrize("family", MU_POLE_KERNELS)
def test_theta1_minus_mu_guard_raises_at_call_time_first(family):
    """Such a kernel builds; calling it, or its pair, raises the theta1(-mu)
    guard's message before the theta_r(z) guards, as the function does."""
    make, direct = MU_POLE_KERNELS[family]
    k = make()
    assert hasattr(k, "pair") != family.endswith("-dz")
    z = 1e-9 + 0j                           # theta_1(z) is inside its guard too
    with pytest.raises(PoleError) as want:
        direct(z)
    assert str(want.value).startswith("|theta1(-mu)| = ")
    for call in (k, getattr(k, "pair", k)):
        with pytest.raises(PoleError) as got:
            call(z)
        assert str(got.value) == str(want.value)


def test_hecke_sum_and_limit():
    tau_h = 1.4 + 0.2j
    z = 0.7 + 0.1j
    assert abs(hecke(z, tau_h, 0) + hecke(z, tau_h, 1) - tau_h) < 1e-14
    assert abs(hecke(30.0, tau_h, 0) - tau_h) < 1e-10


def test_uv_complements():
    taun, taunv = 1.5 + 0.2j, 0.7 + 0.1j
    u = u_kernel(taun, taunv)
    rng = random.Random(10)
    for _ in range(10):
        z = rand_z(rng)
        if abs(z) < 0.05:
            continue
        # the Hecke-closure identity behind the quadratic relations
        assert abs(u(z) + u(-z) - taun - 1 / taun) < 1e-12


def test_odd_level_kernel_is_u_at_half_step():
    """Noumi's odd-level kernel, written out with q^(1/2) = e^(c/2), is
    u(z + c/2): to 1e-13 at a complex step, bit for bit at c = 0."""
    tau0, tau0v = 1.2 + 0.1j, 0.8 - 0.05j

    def ut(z, c):
        qh, q = cmath.exp(c / 2), cmath.exp(c)
        e = cmath.exp(z)
        return ((1 - tau0 * tau0v * qh * e) * (1 + tau0 / tau0v * qh * e)
                / (tau0 * (1 - q * e * e)))

    u = u_kernel(tau0, tau0v)
    c = 0.23 + 0.07j
    rng = random.Random(12)
    for _ in range(20):
        z = rand_z(rng)
        want = ut(z, c)
        assert abs(u(z + c / 2) - want) < 1e-13 * (1 + abs(want))
        assert bits(u(z)) == bits(ut(z, 0))


def test_reduced_kernel_complement():
    tau_h = 1.3 - 0.15j
    z = 0.4 + 0.05j
    # c_alpha + c_{-alpha} = tau + tau^-1; at e^z -> infinity c_alpha -> tau
    assert abs(hecke(z, tau_h, 0) + hecke(-z, tau_h, 0) - tau_h - 1 / tau_h) < 1e-14
    assert abs(hecke(40.0, tau_h, 0) - tau_h) < 1e-12


def test_trig_degeneration_cot_form():
    # Im tau -> infinity: sigma_mu(z) -> pi (cot pi z - cot pi mu) and
    # P(z) -> pi^2 / sin^2 pi z - pi^2 / 3; the terms left out are of order
    # |q|^2 = e^(-2 pi Im tau), below rounding from Im tau = 10 on
    pi = math.pi

    def cot(w):
        return cmath.cos(pi * w) / cmath.sin(pi * w)

    for tau in (0.3 + 10j, 0.3 + 40j):
        for z, mu in ((0.23 + 0.05j, 0.31 - 0.02j), (0.61 / pi, 0.23 / pi),
                      ((0.9 + 0.1j) / pi, (0.4 - 0.05j) / pi)):
            want = pi * (cot(z) - cot(mu))
            assert abs(sigma(mu, z, tau) - want) <= 1e-13 * abs(want)
            want = pi ** 2 / cmath.sin(pi * z) ** 2 - pi ** 2 / 3
            assert abs(wp(z, tau) - want) <= 1e-13 * abs(want)


def test_v_derivative_consistency():
    """The derivative leaf v_mu'(z) is v's central difference."""
    z, mu = 0.33 + 0.03j, 0.21 + 0.02j
    h = 1e-6
    fd = (v_func(mu, z + h, G, TAU) - v_func(mu, z - h, G, TAU)) / (2 * h)
    assert abs(ellcm.v_form(mu, (1.0,), G, TAU).dz()((z,)) - fd) < 1e-5


def test_coupling_set_validation():
    from laxkit.special import check_couplings
    check_couplings("trig", {"tau": 1.3, "c": 0.2})
    with pytest.raises(ValueError):
        check_couplings("nope", {})
    with pytest.raises(ValueError):
        check_couplings("trig", {"tau": 1.3, "c": 0.0})
    with pytest.raises(ValueError, match="nonzero Planck constant t"):
        check_couplings("elliptic-CM", {"tau": 0.8j, "c": 1.3j, "t": 0})
    with pytest.raises(ValueError):
        check_couplings("rational", {"c": float("inf")})
