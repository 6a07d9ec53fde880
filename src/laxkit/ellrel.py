"""Elliptic R-matrices, elliptic Cherednik operators via reduced words, and
the spectral-parameter Lax pairs of the elliptic Ruijsenaars and van Diejen
systems.

R(a) = k(a) - k_dyn(<a^vee, xi>)(a) s_a with the kernels of one rule per
parameter class (``r_kernels``): sigma_m, or for C-vee-C_n the four-coupling
v-functions at a/2 on doubled roots, whose unitary norm alone reads the dual
parameters.  Unitary R-matrices satisfy Rhat(a) Rhat(-a) = 1, making
That_i = Rhat(a_i)(s_i^vee x s_i) an affine Weyl group action; products
along reduced words give Rhat_w independently of the word.

``y_elliptic`` is the one Cherednik builder, Y^b = R_{t(b)} t(b), for every
parameter class with ``rs``, ``c``, ``xi`` and ``r_kernels``: the reduced
families and GL_n (``EllRParams``; GL_n is type A with m_short = m_long),
van Diejen (``VDParams``) and Koornwinder (``koorn.CCnParams``, for b = e_1).
"""

from __future__ import annotations

import cmath
import math
from functools import partial

from .fields import ONE, BiArg, Const, LinArg, nsum
from .opcore import DynOp, LaxPair, OperatorMatrix, WOp, lax_pair
from .special import (dual_params, half_periods, sigma, sigma_form,
                      sigma_kernel, theta, v_func, v_kernel)
from .verify import op_residual
from .weyl import (AffineElement, AffineRoot, RootSystemData, SignedPerm,
                   affine_reflection, build_root_system, dot, ext_coord,
                   ext_form, orbit_stabilizer, reduced_word, replace,
                   same_coord, weyl_enumerate)


# -- parameter bundles -----------------------------------------------------

def _sigma_kernels(m, tau):
    """The sigma rule (k, k_dyn, norm, h) of an R-matrix with coupling m."""
    return (sigma_kernel(m, tau), lambda mu: sigma_kernel(mu, tau),
            lambda mu: sigma(m, mu, tau), 1)


class EllRParams:
    """Reduced elliptic regime: couplings m_alpha per root length."""

    def __init__(self, rs, m_short, m_long, c, tau, xi):
        self.rs, self.m_short, self.m_long, self.c = rs, m_short, m_long, c
        self.tau, self.xi = tau, xi

    def m_alpha(self, alpha):
        if self.rs.kind == "C" and dot(alpha, alpha) == 4:
            return self.m_long
        return self.m_short

    def r_kernels(self, ar):
        """(k, k_dyn, norm, h) of R(ar): sigma_{m_alpha}."""
        return _sigma_kernels(self.m_alpha(ar.alpha), self.tau)

    def dual_terms(self, xi):
        """(pi, B^vee_pi(xi)) over the orbit of the highest coroot."""
        rs = self.rs
        return [(tuple(int(v) for v in pi), dual_coeffs_quasi(self, pi, xi)[1])
                for pi in weyl_orbit(rs, rs.coroot(rs.highest))]


class VDParams:
    """Elliptic C-vee-C_n (van Diejen): 9 effective couplings; ``rs`` (C_n)
    is built with them.  A ``replace`` copy shares the solved dual
    parameters, and ``rs`` unless the copy has another n."""

    def __init__(self, n, mu, nu, nub, g, gb, c, tau, xi=None):
        self.n, self.mu, self.nu, self.nub, self.g, self.gb = n, mu, nu, nub, g, gb
        self.c, self.tau, self.xi = c, tau, xi
        self._dual = None
        self._rs = build_root_system("C", n)

    @property
    def rs(self):
        if self._rs.rank != self.n:
            self._rs = build_root_system("C", self.n)
        return self._rs

    def dual(self):
        """(nu_vee, g_vee, nub_vee, gb_vee), cached."""
        if self._dual is None:
            nuv, gv = dual_params(self.nu, self.g, self.tau)
            nubv, gbv = dual_params(self.nub, self.gb, self.tau)
            self._dual = (nuv, gv, nubv, gbv)
        return self._dual

    def xi0(self):
        """Solution of <a_i^vee, xi> = -m_i: xi_i = -nu - (n-i) mu."""
        return tuple(-self.nu - (self.n - i) * self.mu for i in range(1, self.n + 1))

    def xi_spec(self, eta):
        """Lax specialization: xi_1 = eta, xi_i = -nu - (n-i) mu for i >= 2."""
        base = list(self.xi0())
        base[0] = eta
        return tuple(base)

    def r_kernels(self, ar):
        """(k, k_dyn, norm, h) of R(ar): sigma_mu, or on doubled
        roots v_{nu,g} (even level) or v_{nub,gb} (odd) at h = 1/2, with the
        dual v-function as norm (its parameters solved on the first call)."""
        tau = self.tau
        cls = vd_kernel_class(ar)
        if cls == "diff":
            return _sigma_kernels(self.mu, tau)
        even = cls == "even"
        nu, g = (self.nu, self.g) if even else (self.nub, self.gb)

        def norm(mu):
            nv, gv = self.dual()[:2] if even else self.dual()[2:]
            return v_func(nv, mu, gv, tau)
        return v_kernel(nu, g, tau), lambda mu: v_kernel(mu, g, tau), norm, 0.5

    def dual_terms(self, xi):
        """(pi, B^vee_pi(xi)) over pi = +e_i, then -e_i."""
        n, tau = self.n, self.tau
        nuv, gv, nubv, gbv = self.dual()
        nubv_B = -nuv - (n - 1) * self.mu
        out = []
        for k in range(2 * n):
            pi = ext_coord(n, k)
            zduel = sum(a * b for a, b in zip(pi, xi))
            Bcoef = v_func(nuv, zduel, gv, tau) * v_func(nubv_B, zduel, gbv, tau)
            for a in self.rs.roots:
                if dot(pi, a) == 1:
                    za = sum(u * v for u, v in zip(a, xi))
                    Bcoef *= sigma(self.mu, za, tau)
            out.append((pi, Bcoef))
        return out


def vd_kernel_class(ar: AffineRoot):
    """'diff' for k delta +- e_i +- e_j, 'even'/'odd' for doubled roots by
    level parity."""
    nonzero = [v for v in ar.alpha if v != 0]
    if len(nonzero) == 2:
        return "diff"
    if len(nonzero) == 1 and abs(nonzero[0]) == 2:
        return "even" if ar.k % 2 == 0 else "odd"
    raise ValueError(f"unsupported affine root {ar}")


def dyn_pairing(params, alpha):
    """<alpha^vee, xi> for the finite part of an affine root."""
    av = params.rs.coroot(alpha)
    return sum(a * b for a, b in zip(av, params.xi))


# -- R-matrices at fixed xi ------------------------------------------------

def r_matrix(params, ar: AffineRoot, unitary=False) -> WOp:
    """R(a) = k(a) - k_dyn(<a^vee,xi>)(a) s_a from ``params.r_kernels``, with
    the kernels read at h a + h k c, optionally divided by norm(<a^vee,xi>)."""
    n = params.rs.dim
    k, k_dyn, norm, h = params.r_kernels(ar)
    mu = dyn_pairing(params, ar.alpha)
    form, const = tuple(h * v for v in ar.alpha), h * ar.k * params.c
    s_aff = affine_reflection(ar)
    op = WOp(n, params.c, {(SignedPerm.identity(n), (0,) * n): LinArg(k, form, const),
                           (s_aff.w, s_aff.lam): -LinArg(k_dyn(mu), form, const)})
    return op.scale(1.0 / norm(mu)) if unitary else op


def alpha_sequence(rs: RootSystemData, word):
    """a^1 = a_{i1}, a^2 = s_{i1} a_{i2}, ... for a reduced word."""
    simples = rs.affine_simple_roots()
    refl = [affine_reflection(a) for a in simples]
    seq = []
    prefix = AffineElement.identity(rs.dim)
    for idx in word:
        seq.append(prefix.apply_affine_root(simples[idx]))
        prefix = prefix * refl[idx]
    return seq


def r_word(params, w: AffineElement, rfac) -> WOp:
    """R_w = R(a^1) ... R(a^l) for any reduced word of w, with the factors
    R(a) = rfac(params, a); the length-0 part of an extended w adds none."""
    rs = params.rs
    out = None
    for ar in alpha_sequence(rs, reduced_word(rs, w)):
        R = rfac(params, ar)
        out = R if out is None else out * R
    return WOp.one(rs.dim, params.c) if out is None else out


def y_elliptic(params, b, unitary=False) -> WOp:
    """Y^b = R_{t(b)} t(b) (or the unitary Yhat^b) for b in the coroot lattice."""
    Rw = r_word(params, AffineElement.translation(tuple(b)),
                partial(r_matrix, unitary=unitary))
    return Rw * WOp.translation(params.rs.dim, params.c, tuple(b))


def g_factor(params: EllRParams, b) -> complex:
    """G_b(xi) = prod_{alpha: <alpha,b> > 0} sigma_{m}(<alpha^vee,xi>)^{<alpha,b>}."""
    out = 1.0 + 0j
    for a in params.rs.roots:
        ab = dot(a, b)
        if ab > 0:
            out *= sigma(params.m_alpha(a), dyn_pairing(params, a), params.tau) ** ab
    return out


def r_matrix_red_dual(params: EllRParams, ar: AffineRoot) -> WOp:
    """Dual R-matrix: kernels on the coroot ᾱ∨, dynamical pairing <α, ζ>."""
    rs = params.rs
    n = rs.dim
    m = params.m_alpha(ar.alpha)
    zeta_pair = sum(a * b for a, b in zip(ar.alpha, params.xi))
    aa = dot(ar.alpha, ar.alpha)
    covec = rs.coroot(ar.alpha)
    const = 2 * ar.k * params.c / aa
    f1 = sigma_form(m, covec, params.tau, const)
    f2 = sigma_form(zeta_pair, covec, params.tau, const)
    s_aff = affine_reflection(ar)
    return WOp(n, params.c, {(SignedPerm.identity(n), (0,) * n): f1,
                             (s_aff.w, s_aff.lam): -f2})


def y_elliptic_dual(params: EllRParams, b) -> WOp:
    """Y^{b, vee} = R^vee_{t(b)} t(b) (dual affine root system kernels)."""
    Rw = r_word(params, AffineElement.translation(tuple(b)), r_matrix_red_dual)
    return Rw * WOp.translation(params.rs.dim, params.c, tuple(b))


# -- dynamical operators for the Weyl-action checks -------------------------

def t_hat(params, i) -> DynOp:
    """That_i = Rhat(a_i) (s_i^vee x s_i) as a dynamical operator on (xi, x):
    the kernels of ``params.r_kernels`` divided by norm, with mu = <a^vee, xi>."""
    rs = params.rs
    n = rs.dim
    ar = rs.affine_simple_roots()[i]
    k, k_dyn, norm, h = params.r_kernels(ar)
    ka = tuple(rs.coroot(ar.alpha)) + (0,) * n
    kb = tuple(h * v for v in (0,) * n + tuple(ar.alpha))
    cb = h * ar.k * params.c
    A = BiArg(lambda mu, z: k(z) / norm(mu), ka, kb, 0j, cb)
    B = BiArg(lambda mu, z: k_dyn(mu)(z) / norm(mu), ka, kb, 0j, cb)
    s_aff = affine_reflection(ar)
    sv = s_aff.w  # linear part acts on xi
    # That = A (sv x s_aff) - B (sv x (s_a s_aff)); s_a s_aff = identity
    return DynOp(n, params.c, {(sv, s_aff.w, s_aff.lam): A,
                               (sv, SignedPerm.identity(n), (0,) * n): -B})


def t_hat_word(params, word) -> DynOp:
    out = None
    for i in word:
        Ti = t_hat(params, i)
        out = Ti if out is None else out * Ti
    if out is None:
        n = params.rs.dim
        out = DynOp.one(n, params.c)
    return out


# -- elliptic Macdonald operators -------------------------------------------

def rho_m(params: EllRParams, dual=False):
    """rho_m = (1/2) sum_{alpha > 0} m_alpha alpha, or with the coroots
    alpha^vee in place of alpha if ``dual``."""
    rs = params.rs
    n = rs.dim
    out = [0j] * n
    for a in rs.pos_roots:
        m = params.m_alpha(a)
        v = rs.coroot(a) if dual else a
        for k in range(n):
            out[k] += 0.5 * m * v[k]
    return tuple(out)


def weyl_orbit(rs, b):
    seen = {}
    for w in weyl_enumerate(rs):
        pt = w.apply_vec(tuple(b))
        seen[pt] = True
    return list(seen)


def macdonald_elliptic(params: EllRParams, b, quasi=False, dual=False) -> WOp:
    """Explicit L^b (or L^{b, vee}) for minuscule / quasi-minuscule b."""
    rs = params.rs
    n = rs.dim
    tau = params.tau
    out = WOp.zero(n, params.c)
    for pi in weyl_orbit(rs, b):
        prod = None
        for a in rs.roots:
            if dot(pi, a) > 0:
                arg = rs.coroot(a) if dual else a
                f = sigma_form(params.m_alpha(a), arg, tau)
                prod = f if prod is None else prod * f
        if prod is None:
            prod = Const(1.0 + 0j)
        lam = tuple(int(v) for v in pi)
        if not quasi:
            out += WOp(n, params.c, {(SignedPerm.identity(n), lam): prod})
            continue
        m_phi = params.m_alpha(rs.highest)
        if dual:
            # the crossed hyperplane is (delta + pi_vee)_vee = pi + 2 delta/<phi,phi>
            arg_form, shift = tuple(pi), 2 * params.c / dot(rs.highest, rs.highest)
        else:
            arg_form, shift = rs.coroot(pi), params.c
        Af = sigma_form(m_phi, arg_form, tau, shift) * prod
        phiv = rs.coroot(rs.highest)
        if dual:
            mB = -sum(hp * r for hp, r in zip(rs.highest, rho_m(params, dual=True)))
        else:
            mB = -sum(pv * r for pv, r in zip(phiv, rho_m(params)))
        Bf = sigma_form(mB, arg_form, tau, shift) * prod
        out += WOp(n, params.c, {(SignedPerm.identity(n), lam): Af})
        out += WOp.from_field(n, params.c, -Bf)
    return out


# -- GL_n elliptic Ruijsenaars ----------------------------------------------

def ruijsenaars_params(n, mu, eta, c, tau) -> EllRParams:
    """A_{n-1} (GL_n) parameters with m = mu at the Lax specialization
    xi_i - xi_{i+1} = -mu for i > 1, with eta = xi_1 - xi_2 spectral."""
    xi = (eta,) + tuple((i - 1) * mu for i in range(1, n))
    return EllRParams(build_root_system("A", n), mu, mu, c, tau, xi)


def _gl_sig(p: EllRParams, mu, i, j, shift=0j):
    """sigma_mu(x_i - x_j + shift), 1-based i, j."""
    return sigma_form(mu, ext_form(p.rs.dim, i - 1, j - 1), p.tau, shift)


def _gl_sig_product(p: EllRParams, j, skip, start=None):
    """start * prod_{l not in skip} sigma_mu(x_j - x_l), folded from the first
    factor in increasing l; None if nothing is left."""
    out = start
    for l in range(1, p.rs.dim + 1):
        if l not in skip:
            f = _gl_sig(p, p.m_short, j, l)
            out = f if out is None else out * f
    return out


def ruijsenaars_hamiltonian(p: EllRParams) -> WOp:
    """H = sum_i prod_{j != i} sigma_mu(x_i - x_j) t(e_i)."""
    n = p.rs.dim
    c = p.c
    out = WOp.zero(n, c)
    for i in range(1, n + 1):
        out += WOp(n, c, {(SignedPerm.identity(n), ext_coord(n, i - 1)):
                          _gl_sig_product(p, i, {i}) or ONE})
    return out


def lax_elliptic_ruijsenaars(p: EllRParams) -> LaxPair:
    """L = Y_1|M' at the ``ruijsenaars_params`` p; A from f(Y) = Y_1 + Y_2."""
    n = p.rs.dim
    tbl = orbit_stabilizer(p.rs, ext_coord(n, 0))
    Y1 = y_elliptic(p, ext_coord(n, 0))
    return lax_pair(tbl, Y1.restrict(tbl), Y1 + y_elliptic(p, ext_coord(n, 1)),
                    ruijsenaars_hamiltonian(p))


def nsel_closed_y1(p: EllRParams) -> WOp:
    """Y_1|_{M'} = (A + sum_i B_i s_{1i}) t(e_1)."""
    n = p.rs.dim
    eta = p.xi[0] - p.xi[1]
    op = WOp(n, p.c, {(SignedPerm.identity(n), (0,) * n): _gl_sig_product(p, 1, {1})})
    for i in range(2, n + 1):
        B = _gl_sig_product(p, i, {1, i}, start=-1.0 * _gl_sig(p, eta, 1, i))
        op += WOp(n, p.c, {(SignedPerm.transposition(n, 0, i - 1), (0,) * n): B})
    return op * WOp.translation(n, p.c, ext_coord(n, 0))


def nsel_closed_y2(p: EllRParams) -> WOp:
    """Y_2|_{M'} = E + sum_i F_i s_{1i}."""
    n = p.rs.dim
    eta = p.xi[0] - p.xi[1]
    out = WOp.zero(n, p.c)
    for i in range(2, n + 1):
        E = _gl_sig_product(p, i, {1, i}, start=_gl_sig(p, p.m_short, i, 1, p.c))
        F = _gl_sig_product(p, i, {1, i}, start=_gl_sig(p, eta, 1, i, -p.c))
        out += WOp(n, p.c, {(SignedPerm.identity(n), ext_coord(n, i - 1)): E})
        # F_i contains t(e_i) to the LEFT of s_{1i}: h t(e_i) s_{1i} = h s_{1i} t(e_1)
        out += WOp(n, p.c, {(SignedPerm.transposition(n, 0, i - 1), ext_coord(n, 0)): F})
    return out


def ruijsenaars_lax_tables(p: EllRParams):
    """Closed-form entries of L and A; at c = 0 the A entries are the
    derivative limit of the difference quotients."""
    n = p.rs.dim
    c = p.c
    mu, eta = p.m_short, p.xi[0] - p.xi[1]
    one = SignedPerm.identity(n)
    Lrows, Arows = [], []
    for i in range(1, n + 1):
        Lrow, Arow = [], []
        for j in range(1, n + 1):
            lam = ext_coord(n, j - 1)
            if i == j:
                Lrow.append(WOp(n, c, {(one, lam): _gl_sig_product(p, j, {j}) or ONE}))
                acc = WOp.zero(n, c)
                for k in range(1, n + 1):
                    if k != j:
                        if c == 0:
                            diff = -_gl_sig(p, mu, k, j).dz()
                        else:
                            diff = nsum([_gl_sig(p, mu, k, j, c), -_gl_sig(p, mu, k, j)])
                        kprod = _gl_sig_product(p, k, {j, k})
                        term = diff if kprod is None else kprod * diff
                        acc += WOp(n, c, {(one, ext_coord(n, k - 1)): term})
                Arow.append(acc)
            else:
                base = _gl_sig_product(p, j, {i, j}) or ONE
                Lrow.append(WOp(n, c, {(one, lam): (-1.0) * (_gl_sig(p, eta, i, j) * base)}))
                if c == 0:
                    diff = _gl_sig(p, eta, i, j).dz()
                else:
                    diff = nsum([_gl_sig(p, eta, i, j, -c), -_gl_sig(p, eta, i, j)])
                Arow.append(WOp(n, c, {(one, lam): base * diff}))
        Lrows.append(Lrow)
        Arows.append(Arow)
    return OperatorMatrix(Lrows), OperatorMatrix(Arows)


# -- van Diejen Hamiltonian and Lax matrix ----------------------------------

def vd_hamiltonian(p: VDParams) -> WOp:
    """L^{e_1} of the elliptic van Diejen system (the delta/2 shift c/2 in
    the v-bar factor; no shift at c = 0)."""
    n = p.n
    tau = p.tau
    c = p.c
    out = WOp.zero(n, c)
    shift = c / 2
    nub_B = -p.nu - (n - 1) * p.mu
    for k in range(2 * n):
        pi = ext_coord(n, k)  # +e_i, then -e_i
        prod = None
        for a in p.rs.roots:
            if dot(pi, a) == 1:
                f = sigma_form(p.mu, a, tau)
                prod = f if prod is None else prod * f
        vf = LinArg(v_kernel(p.nu, p.g, tau), pi)
        vbA = LinArg(v_kernel(p.nub, p.gb, tau), pi, shift)
        vbB = LinArg(v_kernel(nub_B, p.gb, tau), pi, shift)
        A = vf * vbA
        B = vf * vbB
        if prod is not None:
            A = A * prod
            B = B * prod
        out += WOp(n, c, {(SignedPerm.identity(n), pi): A})
        out += WOp.from_field(n, c, -B)
    return out


def vd_alpha_const(p: VDParams, eta):
    """The x-independent alpha coefficient, evaluated at x_l = l/n."""
    n = p.n
    tau = p.tau
    xi12 = eta + p.nu + (n - 2) * p.mu
    # alpha from the closed formula at x_l = l/n
    tot = -1.0 + 0j
    for i in range(1, n):
        tot += (sigma(xi12, -i / n, tau) * sigma(eta + p.nu, i / n, tau)
                / sigma(p.mu, i / n, tau) ** 2)
    prod = 1.0 + 0j
    for l in range(1, n):
        prod *= sigma(p.mu, l / n, tau) ** 2
    return tot * prod


def _ext_sig(p: VDParams, mu, i, j, sign=-1):
    """sigma_mu(x_i + sign * x_j), extended 1-based indices (x_{n+i} = -x_i)."""
    return sigma_form(mu, ext_form(p.n, i - 1, j - 1, sign), p.tau)


def vd_beta_field(p: VDParams, eta, rep_idx):
    """beta^{s_{1i}} (rep_idx = i <= n) or beta^{s^+_{1i}} (rep_idx = n+i)."""
    n = p.n
    xi12 = eta + p.nu + (n - 2) * p.mu
    ii = rep_idx  # x_ii = x_i, or -x_i for the s^+-conjugated pair
    i = (rep_idx - 1) % n + 1
    parts = []
    for j in range(1, n + 1):
        if j == i:
            continue
        f = _ext_sig(p, xi12, ii, j) * _ext_sig(p, eta + p.nu, ii, j, 1)
        for l in range(1, n + 1):
            if l != i and l != j:
                f = f * _ext_sig(p, p.mu, j, l) * _ext_sig(p, p.mu, l, ii)
        parts.append(f)
    return nsum(parts) if parts else Const(0j)


def vd_p_matrix(p: VDParams, eta) -> OperatorMatrix:
    """P of the van Diejen Lax matrix (6.9 tables)."""
    n = p.n
    m = 2 * n
    tau = p.tau
    c = p.c
    xi12 = eta + p.nu + (n - 2) * p.mu
    alpha = vd_alpha_const(p, eta)

    def vnu(i):
        return LinArg(v_kernel(p.nu, p.g, tau), ext_coord(n, i - 1))

    def veta(i):
        return LinArg(v_kernel(eta, p.g, tau), ext_coord(n, i - 1))

    rows = []
    for i in range(1, m + 1):
        row = []
        for j in range(1, m + 1):
            dmod = (i - j) % m
            if dmod == 0:
                f = vnu(i)
            elif dmod == n:
                # P_{i, n+i} = alpha v_eta(x_i) + beta^{s_{1i}} v_nu(-x_i)
                # (and the s^+-conjugated pair for i > n)
                f = nsum([alpha * veta(i), vd_beta_field(p, eta, i) * vnu((i + n - 1) % m + 1)])
            else:
                f = (-1.0) * (vnu(j) * _ext_sig(p, xi12, i, j) * _ext_sig(p, p.mu, i, j, 1))
            if dmod != n:
                # the primed product drops l = +-i and l = +-j
                for l in range(1, m + 1):
                    if not (same_coord(n, l, i) or same_coord(n, l, j)):
                        f = f * _ext_sig(p, p.mu, j, l)
            row.append(WOp.from_field(n, c, f))
        rows.append(row)
    return OperatorMatrix(rows)


def vd_q_matrix(p: VDParams, eta) -> OperatorMatrix:
    """Q: diagonal v-bar_{nub}(x_i + c/2) t(e_i); anti-diagonal -v-bar_{xi_1}."""
    n = p.n
    m = 2 * n
    tau = p.tau
    c = p.c
    shift = c / 2
    rows = []
    for i in range(1, m + 1):
        row = []
        form = ext_coord(n, i - 1)
        for j in range(1, m + 1):
            dmod = (i - j) % m
            if i == j:
                f = LinArg(v_kernel(p.nub, p.gb, tau), form, shift)
                row.append(WOp(n, c, {(SignedPerm.identity(n), form): f}))
            elif dmod == n:
                f = LinArg(v_kernel(eta, p.gb, tau), form, shift)
                row.append(WOp.from_field(n, c, (-1.0) * f))
            else:
                row.append(WOp.zero(n, c))
        rows.append(row)
    return OperatorMatrix(rows)


def lax_vandiejen(p: VDParams, eta) -> LaxPair:
    """L = P Q; A is the restricted dual substitution minus H on the diagonal."""
    n = p.n
    tbl = orbit_stabilizer(p.rs, ext_coord(n, 0))
    H = vd_hamiltonian(p)
    A = (dual_substituted(p, p.xi_spec(eta)).restrict(tbl)
         - OperatorMatrix.diagonal(H, 2 * n))
    return LaxPair(tbl, vd_p_matrix(p, eta) * vd_q_matrix(p, eta), A, H)


# -- dual substitution for reduced systems -----------------------------------

def dual_coeffs_quasi(params: EllRParams, pi, xi):
    """(A^vee_pi, B^vee_pi) of the classical dual Hamiltonian at numeric xi."""
    rs = params.rs
    tau = params.tau
    m_phi = params.m_alpha(rs.highest)
    zpi = sum(a * b for a, b in zip(pi, xi))
    A = sigma(m_phi, zpi, tau)
    mB = -sum(hp * r for hp, r in zip(rs.highest, rho_m(params, dual=True)))
    B = sigma(mB, zpi, tau)
    for a in rs.roots:
        if dot(pi, a) > 0:
            av = rs.coroot(a)
            za = sum(u * v for u, v in zip(av, xi))
            f = sigma(params.m_alpha(a), za, tau)
            A *= f
            B *= f
    return A, B


def dual_substituted(params, xi) -> WOp:
    """L^{b,vee}_c(xi, Yhat) = sum_pi (A^vee_pi(xi) Yhat^pi - B^vee_pi(xi)) over
    ``params.dual_terms(xi)``: the highest-coroot orbit (reduced systems) or
    +-e_i (van Diejen).

    Assembled in the pole-free form sum_pi Y^pi - sum_pi B^vee_pi: the
    classical dual coefficients A^vee_pi coincide with the G-factors, so
    A^vee_pi Yhat^pi = Y^pi exactly and the walls where the dual norms
    vanish never appear (they are removable, and do occur at the Lax locus).
    """
    pxi = replace(params, xi=xi)
    out = None
    for pi, B in params.dual_terms(xi):
        term = y_elliptic(pxi, pi) - WOp.from_scalar(params.rs.dim, params.c, B)
        out = term if out is None else out + term
    return out


def dual_factor_identity_residual(params: EllRParams, xi, probes, points):
    """Check A^vee_pi(xi) Yhat^pi = Y^pi at a generic xi (both routes)."""
    rs = params.rs
    b = rs.coroot(rs.highest)
    pxi = replace(params, xi=xi)
    worst = 0.0
    for pi in weyl_orbit(rs, b):
        A, _B = dual_coeffs_quasi(params, pi, xi)
        ipi = tuple(int(v) for v in pi)
        lhs = y_elliptic(pxi, ipi, unitary=True).scale(A)
        rhs = y_elliptic(pxi, ipi, unitary=False)
        worst = max(worst, op_residual(lhs, rhs, probes, points))
    return worst


# -- residue conditions ------------------------------------------------------

# distances to a hyperplane at which a growth exponent is read
RESIDUE_DISTS = (1e-2, 1e-3)
# a residue condition holds when its growth exponent exceeds -RESIDUE_MAX_EXPONENT
RESIDUE_MAX_EXPONENT = 0.1


def vd_coefficient_fields(p: VDParams):
    """The a_pi coefficients of L^{e_1} keyed by pi in {0, +-e_i}."""
    op = vd_hamiltonian(p)
    out = {}
    for (w, lam), h in op.terms.items():
        out[lam] = nsum([out[lam], h]) if lam in out else h
    return out


def residue_growth(quantity, base_point, direction):
    """Log-log growth exponent of |quantity| approaching a hyperplane, read
    at the distances RESIDUE_DISTS."""
    vals = []
    for d in RESIDUE_DISTS:
        x = tuple(b + d * v for b, v in zip(base_point, direction))
        vals.append(abs(quantity(x)))
    num = math.log(max(vals[1], 1e-300) / max(vals[0], 1e-300))
    den = math.log(RESIDUE_DISTS[1] / RESIDUE_DISTS[0])
    return num / den


def residue_conditions(p: VDParams, rng):
    """Growth-exponent report for the residue conditions on L^{e_1}.

    The coefficients a_pi are supported on {0, +-e_i} inside Pi = {-1,0,1}^n.
    For each positive root alpha, the coroot strings of Pi meeting the
    support are classified by length; each stated quantity is evaluated
    while approaching its hyperplane at the distances RESIDUE_DISTS.  A
    first-order pole shows as growth exponent ~ -1; regularity as an
    exponent above -RESIDUE_MAX_EXPONENT.  At c = 0 the classical
    conditions are checked; ``rng`` draws the base points.  Entries are
    (label, exponent, passed).
    """
    n = p.n
    tau = p.tau
    c = p.c
    classical = c == 0
    coeffs = vd_coefficient_fields(p)
    zero = Const(0j)
    lam_rs = [2j * cmath.pi * br * (p.nu + p.nub + (n - 1) * p.mu)
              for br in (0, 0, 1, 1)]
    oms = half_periods(tau)

    def a_of(lam):
        return coeffs.get(tuple(lam), zero)

    def in_pi(v):
        return all(x in (-1, 0, 1) for x in v)

    def theta_pref(alpha, shift):
        def f(x):
            return theta(1, sum(a * xi for a, xi in zip(alpha, x)) + shift, tau)
        return f

    def base_on(alpha, h):
        """Point with <alpha,x> = h, kept generic for the other kernels."""
        best, score = None, -1.0
        aa = dot(alpha, alpha)
        # the pairs (i, j) and whether x_i - x_j and x_i + x_j are kept:
        # those that are not <alpha, .>
        alpha = tuple(alpha)
        pairs = [(i, j, alpha != ext_form(n, i, j, -1), alpha != ext_form(n, i, j, +1))
                 for i in range(n) for j in range(i + 1, n)]
        for _try in range(40):
            x = tuple(complex(rng.uniform(0.1, 0.45), rng.uniform(0.0, 0.04))
                      for _ in range(n))
            off = (h - sum(ai * xi for ai, xi in zip(alpha, x))) / aa
            x = tuple(xi + off * ai for ai, xi in zip(alpha, x))
            # keep all kernel arguments other than <alpha, .> off their poles
            vals = []
            for i in range(n):
                vals.append(x[i])
                vals.append(x[i] - 0.5)
            for i, j, minus, plus in pairs:
                if minus:
                    vals.append(x[i] - x[j])
                if plus:
                    vals.append(x[i] + x[j])
            sc = min((abs(v) for v in vals), default=1.0)
            if sc > score:
                best, score = x, sc
        return best

    report = []

    def check(label, quantity, alpha, h):
        aa = dot(alpha, alpha)
        direction = tuple(ai / aa for ai in alpha)
        base = base_on(alpha, h)
        expo = residue_growth(quantity, base, direction)
        report.append((label, expo, expo > -RESIDUE_MAX_EXPONENT))

    def combo(parts):
        def f(x):
            total = 0j
            for wgt, ff in parts:
                total += wgt * ff(x)
            return total
        return f

    for alpha in p.rs.pos_roots:
        av = p.rs.coroot(alpha)
        aa = dot(alpha, alpha)
        doubled = len([v for v in alpha if v != 0]) == 1
        seen = set()
        for lam in coeffs:
            if lam in seen:
                continue
            string = []
            for k in range(-2, 3):
                pt = tuple(l + k * v for l, v in zip(lam, av))
                if in_pi(pt):
                    string.append(pt)
            string = sorted(set(string))
            for s in string:
                if s in coeffs:
                    seen.add(s)
            if len(string) == 2:
                pi1, pi2 = string
                th = theta_pref(alpha, 0.0)
                for s in (pi1, pi2):
                    if s in coeffs:
                        check(f"2res a{s} alpha={alpha}",
                              lambda x, ff=a_of(s), t0=th: t0(x) * ff(x),
                              alpha, 0.0)
                continue
            if len(string) == 1:
                check(f"1res a{lam} alpha={alpha}",
                      lambda x, ff=a_of(lam): ff(x), alpha, 0.0)
                continue
            # length three: center pi has s_alpha pi = pi
            center = next(s for s in string
                          if sum(a * l for a, l in zip(alpha, s)) == 0)
            plus = tuple(l + v for l, v in zip(center, av))
            minus = tuple(l - v for l, v in zip(center, av))
            ap, a0, am = a_of(plus), a_of(center), a_of(minus)
            ends_supported = plus in coeffs or minus in coeffs
            if not ends_supported:
                # only the middle coefficient exists: its alpha-regularity
                # is the effective length-one bound
                check(f"1res a{center} alpha={alpha}",
                      lambda x, ff=a0: ff(x), alpha, 0.0)
            elif classical:
                th = theta_pref(alpha, 0.0)
                for tag, ff in (("+", ap), ("0", a0), ("-", am)):
                    check(f"3resc a{tag}{center} alpha={alpha}",
                          lambda x, f2=ff, t0=th: t0(x) ** 2 * f2(x), alpha, 0.0)
                check(f"4resc sum{center} alpha={alpha}",
                      combo([(1.0, ap), (1.0, a0), (1.0, am)]), alpha, 0.0)
            else:
                t0 = theta_pref(alpha, 0.0)
                tp = theta_pref(alpha, c)
                tm = theta_pref(alpha, -c)
                check(f"3res a+{center} alpha={alpha}",
                      lambda x, f2=ap, u=t0, v=tp: u(x) * v(x) * f2(x), alpha, 0.0)
                check(f"3res a0{center} alpha={alpha}",
                      lambda x, f2=a0, u=tp, v=tm: u(x) * v(x) * f2(x), alpha, 0.0)
                check(f"3res a-{center} alpha={alpha}",
                      lambda x, f2=am, u=t0, v=tm: u(x) * v(x) * f2(x), alpha, 0.0)
                for h in (0.0, c, -c):
                    check(f"4res sum{center} alpha={alpha} at {h:.3f}",
                          combo([(1.0, ap), (1.0, a0), (1.0, am)]), alpha, h)
            if doubled and ends_supported:
                for r in (1, 2, 3):
                    wp_, wm_ = cmath.exp(-lam_rs[r]), cmath.exp(lam_rs[r])
                    levels = [2 * oms[r]] if classical else [2 * oms[r],
                                                             2 * oms[r] + c,
                                                             2 * oms[r] - c]
                    for h in levels:
                        check(f"5res{'c' if classical else ''} {center} r={r} "
                              f"alpha={alpha} at ({h:.3f})",
                              combo([(wp_, ap), (1.0, a0), (wm_, am)]), alpha, h)
    return report


def residue_control_failure(p: VDParams):
    """Unweighted length-three sum at a shifted half-period: the poles do
    not cancel without the e^{+-lambda_r} weights, so the exponent must
    dip below -0.5 (a vacuousness control for the residue checker)."""
    coeffs = vd_coefficient_fields(replace(p, c=0.0))
    n = p.n
    alpha = ext_form(n, 0, 0, 1)  # 2 e_1
    av = p.rs.coroot(alpha)
    plus = tuple(av)
    minus = tuple(-v for v in av)
    ap, a0, am = coeffs[plus], coeffs[(0,) * n], coeffs[minus]
    oms = half_periods(p.tau)

    def q(x):
        return ap(x) + a0(x) + am(x)

    aa = dot(alpha, alpha)
    direction = tuple(ai / aa for ai in alpha)
    base = tuple(complex(0.23 + 0.07 * i, 0.01) for i in range(n))
    off = (2 * oms[2] - sum(ai * xi for ai, xi in zip(alpha, base))) / aa
    base = tuple(xi + off * ai for ai, xi in zip(alpha, base))
    return residue_growth(q, base, direction)
