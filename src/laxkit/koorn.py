"""Noumi representation of the C-vee-C_n affine Hecke algebra and the
2n x 2n Koornwinder--van Diejen Lax matrix L = P Q.

Five parameters (tau0, tau0v, taun, taunv, tau) enter through the kernels
a, b (difference roots) and u, v = tau_n - u (doubled roots).  The
odd-level doubled roots (2k+1) delta +- 2 e_i need no kernel of their own:
Noumi's u~ is u at tau0, tau0v read at x_i + c/2, since q^(1/2) = e^(c/2).
Y_1 = R_{t(e_1)} t(e_1) comes from the one elliptic builder
``ellrel.y_elliptic`` with the trigonometric rule ``CCnParams.r_kernels``;
the Noumi T-word ``y_operator`` is the independent reference.  Y_1
restricted to M' factorizes as P Q with P carrying the finite reflection
data and Q the single shift; the Koornwinder operator is the collapse of
sum_i (Y_i + Y_i^{-1}).
"""

from __future__ import annotations

from .ellrel import VDParams, vd_kernel_class
from .fields import Const, Field, LinArg, kernel_family, nsum
from .opcore import (LaxPair, OperatorMatrix, WOp, hecke_generator,
                     hecke_inverse, lax_pair)
from .special import hecke_kernel, u_kernel
from .weyl import (SignedPerm, build_root_system, ext_coord, ext_form,
                   orbit_stabilizer, same_coord)


class CCnParams:
    """Koornwinder parameters; ``rs`` (C_n) is built with them and, as for
    ``VDParams``, shared by a ``replace`` copy unless the copy has another n."""

    def __init__(self, n, tau0, tau0v, taun, taunv, tau, c):
        self.n, self.tau0, self.tau0v, self.taun = n, tau0, tau0v, taun
        self.taunv, self.tau, self.c = taunv, tau, c
        self._rs = build_root_system("C", n)

    rs = VDParams.rs

    @property
    def xi(self):
        """All zero: the Noumi kernels are not dynamical."""
        return (0j,) * self.n

    def taus(self):
        return [self.tau0] + [self.tau] * (self.n - 1) + [self.taun]

    def r_kernels(self, ar):
        """(k, k_dyn, norm, h) of R(ar) = k - k_dyn(mu) s_ar: the
        trigonometric limit of ``VDParams.r_kernels``, with R = a + b s on
        difference roots and u + v s at h = 1/2 on doubled roots (taun, taunv
        at even level; tau0, tau0v at odd level, where the shift c/2 is
        q^{1/2}).  No unitary norm (None): mu is 0 here.  The rule is
        for b = e_1 only: R_{t(b)} t(b) is Noumi's Y_1, but for i >= 2 Y_i
        holds inverse generators and R_{t(e_i)} t(e_i) is another operator.
        """
        cls = vd_kernel_class(ar)
        if cls == "diff":
            return hecke_kernel(self.tau, 0), lambda mu: _neg_b_kernel(self.tau), None, 1
        t, tv = (self.taun, self.taunv) if cls == "even" else (self.tau0, self.tau0v)
        return u_kernel(t, tv), lambda mu: _u_minus_tau_kernel(t, tv), None, 0.5


# the kernels k_dyn of r_kernels: -b, and u - t on doubled roots, each on
# the kernel of b or u, whose constants are fixed when it is made
def _neg_b_maker(tau):
    b = hecke_kernel(tau, 1)

    def kernel(z):
        return -b(z)

    def pair(z):
        f, df = b.pair(z)
        return -f, -df
    kernel.pair = pair
    return kernel


def _u_minus_tau_maker(t, tv):
    u = u_kernel(t, tv)

    def kernel(z):
        return u(z) - t

    def pair(z):
        f, df = u.pair(z)
        return f - t, df
    kernel.pair = pair
    return kernel


_neg_b_kernel = kernel_family(_neg_b_maker)
_u_minus_tau_kernel = kernel_family(_u_minus_tau_maker)


def a_ext(p: CCnParams, i, j, sign=-1) -> Field:
    """a(x_i + sign * x_j) in extended indices (1-based, x_{n+i} = -x_i)."""
    return LinArg(hecke_kernel(p.tau, 0), ext_form(p.n, i - 1, j - 1, sign))


def b_ext(p: CCnParams, i, j, sign=-1) -> Field:
    """b(x_i + sign * x_j) in extended indices (1-based, x_{n+i} = -x_i)."""
    return LinArg(hecke_kernel(p.tau, 1), ext_form(p.n, i - 1, j - 1, sign))


def u_ext(p, i, q_level=0) -> Field:
    """In extended indices, u(x_i) at taun, taunv (even level) or u(x_i + c/2)
    at tau0, tau0v (odd level, Noumi's u~)."""
    form = ext_coord(p.n, i - 1)
    if q_level == 0:
        return LinArg(u_kernel(p.taun, p.taunv), form)
    return LinArg(u_kernel(p.tau0, p.tau0v), form, p.c / 2)


# -- Noumi generators ----------------------------------------------------

def noumi_rep(p: CCnParams):
    """Realized T_0 .. T_n; T_i = tau_i + c_{a_i}(s_i - 1)."""
    n = p.n
    c = p.c
    # T_0: a_0 = delta - 2 e_1, s_0 = (s_1, e_1), kernel u~(-x_1) = u(-x_1 + c/2)
    gens = [hecke_generator(n, c, p.tau0, u_ext(p, n + 1, 1),
                            SignedPerm.sign_flip(n, 0), ext_coord(n, 0))]
    for i in range(1, n):
        gens.append(hecke_generator(n, c, p.tau, a_ext(p, i, i + 1),
                                    SignedPerm.transposition(n, i - 1, i)))
    gens.append(hecke_generator(n, c, p.taun, u_ext(p, n, 0),
                                SignedPerm.sign_flip(n, n - 1)))
    return gens


def _y_word(n, i):
    """The factors of Y_i, left to right, as (k, inverted) for T_k or T_k^{-1}."""
    return ([(k, False) for k in range(i, n)] + [(n, False)]
            + [(k, False) for k in range(n - 1, -1, -1)]
            + [(k, True) for k in range(1, i)])


def _t_product(p: CCnParams, word) -> WOp:
    """The left-to-right product of the Noumi generators in ``word``."""
    Ts = noumi_rep(p)
    taus = p.taus()
    out = None
    for k, inverted in word:
        op = hecke_inverse(Ts[k], taus[k]) if inverted else Ts[k]
        out = op if out is None else out * op
    return out


def y_operator(p: CCnParams, i) -> WOp:
    """Y_i = T_i ... T_{n-1} T_n T_{n-1} ... T_1 T_0 T_1^{-1} ... T_{i-1}^{-1}."""
    return _t_product(p, _y_word(p.n, i))


def y_inverse(p: CCnParams, i) -> WOp:
    """Y_i^{-1}: the factors of Y_i in reverse order, each inverted."""
    return _t_product(p, [(k, not inverted) for k, inverted in reversed(_y_word(p.n, i))])


# -- closed forms ----------------------------------------------------------

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


def p_matrix(p: CCnParams) -> OperatorMatrix:
    """The 2n x 2n matrix P of Prop. (lmct) entry formulas."""
    n = p.n
    m = 2 * n
    c = p.c
    rows = []
    for i in range(1, m + 1):
        row = []
        for j in range(1, m + 1):
            if same_coord(n, i, j) and i != j:
                row.append(None)  # constraint column, filled after
                continue
            if i == j:
                f = u_ext(p, i, 0)
            else:
                f = u_ext(p, j, 0) * b_ext(p, i, j) * a_ext(p, i, j, 1)
            # the primed product drops l = +-i and l = +-j
            for l in range(1, m + 1):
                if not (same_coord(n, l, i) or same_coord(n, l, j)):
                    f = f * a_ext(p, j, l)
            row.append(WOp.from_field(n, c, f))
        rows.append(row)
    const = (p.tau ** (2 * n - 2)) * p.taun
    for i in range(m):
        for j in range(m):
            if rows[i][j] is None:
                acc = WOp.from_scalar(n, c, const)
                for l in range(m):
                    if l != j:
                        acc = acc - rows[i][l]
                rows[i][j] = acc
    return OperatorMatrix(rows)


def q_matrix(p: CCnParams) -> OperatorMatrix:
    """Q: diagonal u~_i t(e_i), anti-diagonal v~_i = tau0 - u~_i, zero
    elsewhere."""
    n = p.n
    m = 2 * n
    c = p.c
    rows = []
    for i in range(1, m + 1):
        row = []
        for j in range(1, m + 1):
            if i == j:
                row.append(WOp(n, c, {(SignedPerm.identity(n), ext_coord(n, i - 1)):
                                      u_ext(p, i, 1)}))
            elif (i - j) % m == n:
                v = nsum([Const(p.tau0 + 0j), -u_ext(p, i, 1)])
                row.append(WOp.from_field(n, c, v))
            else:
                row.append(WOp.zero(n, c))
        rows.append(row)
    return OperatorMatrix(rows)


def koornwinder_table(p: CCnParams):
    return orbit_stabilizer(p.rs, ext_coord(p.n, 0))


def koornwinder_hamiltonian(p: CCnParams) -> WOp:
    """Koornwinder operator: collapse of sum_i (Y_i + Y_i^{-1})."""
    total = None
    for i in range(1, p.n + 1):
        term = y_operator(p, i) + y_inverse(p, i)
        total = term if total is None else total + term
    return total.collapse(), total


def koornwinder_lax(p: CCnParams) -> LaxPair:
    """L = P Q, the restriction of Y_1; A from f(Y) = sum_i (Y_i + Y_i^{-1})."""
    H, fY = koornwinder_hamiltonian(p)
    return lax_pair(koornwinder_table(p), p_matrix(p) * q_matrix(p), fY, H)


def phi_vector_ccn(p: CCnParams):
    """phi_i = u_i^- prod_{l != i} a_{li} a^-_{li}; phi_{n+i} = u_i prod a^+_{li} a_{il}:
    the row weights of the integrals H_k = u L^k v (``opcore.integrals``)."""
    n = p.n
    out = []
    for i in range(1, n + 1):
        f = u_ext(p, n + i, 0)
        for l in range(1, n + 1):
            if l != i:
                f = f * a_ext(p, l, i) * a_ext(p, n + l, i)
        out.append(f)
    for i in range(1, n + 1):
        f = u_ext(p, i, 0)
        for l in range(1, n + 1):
            if l != i:
                f = f * a_ext(p, l, i, 1) * a_ext(p, i, l)
        out.append(f)
    return out

