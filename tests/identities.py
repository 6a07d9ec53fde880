"""Paper identities that the tests check and the package does not run.

Closed forms and auxiliary operators of the paper, each built from the
package's own pieces so that a test can compare it with what a suite
builds: the elliptic G-factors, dual R-matrices and dual Cherednik
operators, the dynamical That_i of the Weyl-group action, the explicit
elliptic Macdonald operators, the closed form of Y_2 on M', the dual
factor identity and the residue-checker control; Koornwinder's
A + B s_1 + C_i s_1i + D_i s+_1i factorization; a module element of M';
the classical rational A-partner; the braid orders of the affine Weyl
group, the closed form of the trigonometric Y_1 on M' and the finite
Hecke symmetrizer e_tau.
"""

from laxkit.ellrel import (EllRParams, VDParams, _gl_sig, _gl_sig_product,
                           dual_coeffs_quasi, dyn_pairing, r_word,
                           residue_growth, rho_m, vd_coefficient_fields,
                           weyl_orbit, y_elliptic)
from laxkit.fields import BiArg, Const, nsum
from laxkit.koorn import CCnParams, a_ext, b_ext, u_ext
from laxkit.opcore import DynOp, WOp, module_inject
from laxkit.rational import cm_split
from laxkit.special import half_periods, sigma, sigma_form
from laxkit.trig import _a_product, b_field, r_ij, translation_op
from laxkit.verify import op_residual
from laxkit.weyl import (AffineElement, AffineRoot, SignedPerm,
                         affine_reflection, build_root_system, dot, ext_coord,
                         ext_form, orbit_stabilizer, reduced_word, replace,
                         weyl_enumerate)


# -- ellrel ----------------------------------------------------------------

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


# -- koorn -----------------------------------------------------------------

def abcd_coeffs(p: CCnParams):
    """A, B, C_i, D_i of the restriction of the three-factor product."""
    n = p.n
    A = u_ext(p, 1, 0)
    for l in range(2, n + 1):
        A = A * a_ext(p, 1, l) * a_ext(p, 1, l, 1)
    Cs, Ds = {}, {}
    for i in range(2, n + 1):
        C = u_ext(p, i, 0) * b_ext(p, 1, i) * a_ext(p, 1, i, 1)
        D = u_ext(p, n + i, 0) * b_ext(p, 1, i, 1) * a_ext(p, 1, i)
        for l in range(2, n + 1):
            if l != i:
                C = C * a_ext(p, i, l) * a_ext(p, i, l, 1)
                D = D * a_ext(p, n + l, i) * a_ext(p, l, i)
        Cs[i] = C
        Ds[i] = D
    const = (p.tau ** (2 * n - 2)) * p.taun
    B = nsum([Const(const + 0j), -A] + [-Cs[i] for i in Cs] + [-Ds[i] for i in Ds])
    return A, B, Cs, Ds


def abcd_operator(p: CCnParams) -> WOp:
    """Z = A + B s_1 + sum_i (C_i s_{1i} + D_i s^+_{1i})."""
    n = p.n
    A, B, Cs, Ds = abcd_coeffs(p)
    terms = {(SignedPerm.identity(n), (0,) * n): A,
             (SignedPerm.sign_flip(n, 0), (0,) * n): B}
    op = WOp(n, p.c, terms)
    for i in range(2, n + 1):
        op += WOp(n, p.c, {(SignedPerm.transposition(n, 0, i - 1), (0,) * n): Cs[i]})
        op += WOp(n, p.c, {(SignedPerm.neg_transposition(n, 0, i - 1), (0,) * n): Ds[i]})
    return op


# -- opcore ----------------------------------------------------------------

class ModuleVector:
    """Element e' sum_j r_j f_j of M' = e'M, as its component fields."""

    __slots__ = ("tbl", "fields")

    def __init__(self, tbl, fields):
        if len(fields) != tbl.m:
            raise ValueError(f"expected {tbl.m} component fields, got {len(fields)}")
        self.tbl = tbl
        self.fields = list(fields)

    def expand(self):
        """The underlying module element, as a dict w -> field over W."""
        return module_inject(self.tbl, self.fields)

    def apply_matrix(self, mat):
        return ModuleVector(self.tbl, mat.apply_vector(self.fields))


# -- rational --------------------------------------------------------------

def classical_a_matrix(cfg):
    """Classical A-partner of the Moser matrix: minus the t-coefficient of the
    quantum A, which is -A_hat restricted to M' at t = 1 because the split of
    <y,y>/2 is linear in t off the identity.  It does not depend on cfg.t."""
    tbl = orbit_stabilizer(cfg.rs, ext_coord(cfg.rs.dim, 0))
    _qy, _L, A_hat = cm_split(replace(cfg, t=1.0), ((0.5, 2),))
    return A_hat.restrict(tbl).scale(-1.0)


# -- trig ------------------------------------------------------------------

def braid_order(rs, i, j):
    """Order of s_i s_j in the affine Weyl group (None if infinite <= 6)."""
    refl = [affine_reflection(a) for a in rs.affine_simple_roots()]
    prod = refl[i] * refl[j]
    cur = prod
    for m in range(1, 7):
        if cur.is_identity():
            return m
        cur = cur * prod
    return None


def lemma_ns_closed(cfg) -> WOp:
    """Closed form of Y_1 on M': (A + sum_i B_i s_{1i}) t(e_1)."""
    n = cfg.n
    op = WOp(n, cfg.c, {(SignedPerm.identity(n), (0,) * n): _a_product(cfg, 1, {1})})
    for i in range(2, n + 1):
        B = _a_product(cfg, i, {1, i}, start=b_field(cfg, 1, i))
        op += WOp(n, cfg.c, {(SignedPerm.transposition(n, 0, i - 1), (0,) * n): B})
    return op * translation_op(cfg, 1)


def e_tau_symmetrizer(cfg):
    """e_tau = (sum tau_w T_w) / (sum tau_w^2) over the finite Hecke algebra."""
    n = cfg.n
    rs = build_root_system("A", n)
    W = weyl_enumerate(rs)
    Ts = []
    for i in range(1, n):
        s_i = WOp.from_group(n, cfg.c, SignedPerm.transposition(n, i - 1, i))
        Ts.append(r_ij(cfg, i, i + 1) * s_i)
    total = None
    norm = 0j
    for w in W:
        word = reduced_word(rs, AffineElement.from_linear(w))
        tw = cfg.tau ** len(word)
        Tw = WOp.one(n, cfg.c)
        for idx in word:
            Tw = Tw * Ts[idx - 1]
        total = Tw.scale(tw) if total is None else total + Tw.scale(tw)
        norm += tw * tw
    return total.scale(1.0 / norm)
