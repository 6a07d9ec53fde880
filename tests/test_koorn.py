"""Noumi representation and the Koornwinder--van Diejen Lax matrix."""

import random

from laxkit.dual import value
from laxkit.ellrel import alpha_sequence, r_matrix, y_elliptic
from laxkit.koorn import (CCnParams, a_ext, koornwinder_hamiltonian,
                          koornwinder_lax, koornwinder_table, noumi_rep, p_matrix,
                          phi_vector_ccn, q_matrix, y_inverse, y_operator)
from laxkit.opcore import OperatorMatrix, WOp, integrals, make_probes
from laxkit.verify import (PointPolicy, energy_drift, hamiltonian_flow,
                           isospectral_drift, matrix_fn_from_fields, op_residual,
                           trace_powers)
from laxkit.weyl import (AffineElement, AffineRoot, SignedPerm, ext_coord,
                         ext_form, reduced_word, replace, same_coord)
from identities import abcd_coeffs, abcd_operator
from support import fit_slope, poisson_residual

P = CCnParams(n=2, tau0=1.2 + 0.1j, tau0v=0.8 - 0.05j, taun=1.5 + 0.2j,
              taunv=0.7 + 0.1j, tau=1.3 - 0.15j, c=0.23 + 0.07j)


def sample(n, count=5, seed=4):
    rng = random.Random(seed)
    pol = PointPolicy(n, -0.9, 0.9, 0.12)
    return [pol.draw(rng) for _ in range(count)]


def y1_roots(p):
    """a^1 .. a^{2n} of R_{t(e_1)}: e_1 - e_j (j = 2..n), 2 e_1, e_1 + e_j
    (j = n..2), delta + 2 e_1."""
    rs = p.rs
    return alpha_sequence(rs, reduced_word(rs, AffineElement.translation(ext_coord(p.n, 0))))


def r_product(p, roots):
    """R(a^1) ... R(a^k) over the given affine roots."""
    out = None
    for ar in roots:
        R = r_matrix(p, ar)
        out = R if out is None else out * R
    return out


def test_noumi_quadratic_and_braids():
    n = 2
    Ts = noumi_rep(P)
    taus = P.taus()
    probes = make_probes(n, 2, random.Random(1))
    xs = sample(n, 4)
    for i, T in enumerate(Ts):
        quad = (T - WOp.from_scalar(n, P.c, taus[i])) * \
               (T + WOp.from_scalar(n, P.c, 1 / taus[i]))
        assert op_residual(quad, None, probes, xs) < 1e-9
    # (b1): four-factor braids at both ends
    for i in (0, 1):
        lhs = Ts[i] * Ts[i + 1] * Ts[i] * Ts[i + 1]
        rhs = Ts[i + 1] * Ts[i] * Ts[i + 1] * Ts[i]
        assert op_residual(lhs, rhs, probes, xs) < 1e-9
    # (b3) commuting at distance >= 2
    p3 = CCnParams(n=3, tau0=P.tau0, tau0v=P.tau0v, taun=P.taun, taunv=P.taunv,
                   tau=P.tau, c=P.c)
    T3 = noumi_rep(p3)
    probes3 = make_probes(3, 2, random.Random(2))
    xs3 = sample(3, 3)
    assert op_residual(T3[0] * T3[2], T3[2] * T3[0], probes3, xs3) < 1e-10
    # (b2) middle braid: T1 T2 T1 = T2 T1 T2
    lhs = T3[1] * T3[2] * T3[1]
    rhs = T3[2] * T3[1] * T3[2]
    assert op_residual(lhs, rhs, probes3, xs3) < 1e-9


def test_y1_product_forms_and_inverse():
    # R_{t(e_1)} t(e_1) from the one elliptic builder is Noumi's Y_1
    for n, nterms in ((1, 4), (2, 12), (3, 40)):
        p = replace(P, n=n)
        probes = make_probes(n, 2, random.Random(3))
        xs = sample(n, 4)
        Y1t = y_operator(p, 1)
        Y1r = y_elliptic(p, ext_coord(n, 0))
        assert len(Y1r.terms) == nterms
        assert op_residual(Y1t, Y1r, probes, xs) < 1e-12
        if n == 2:
            assert op_residual(Y1t * y_inverse(p, 1), WOp.one(n, p.c), probes,
                               xs) < 1e-12
            Y2 = y_operator(p, 2)
            assert op_residual(Y1t * Y2, Y2 * Y1t, probes, xs) < 1e-9


def test_omega_conjugation_of_plus_block():
    # R^+ chain equals the omega-conjugate of the R chain
    n = 3
    p3 = CCnParams(n=n, tau0=P.tau0, tau0v=P.tau0v, taun=P.taun, taunv=P.taunv,
                   tau=P.tau, c=P.c)
    roots = y1_roots(p3)
    assert roots[:n - 1] == [AffineRoot(ext_form(n, 0, j), 0) for j in range(1, n)]
    assert roots[n:2 * n - 1] == [AffineRoot(ext_form(n, 0, j, 1), 0)
                                  for j in range(n - 1, 0, -1)]
    Rchain = r_product(p3, roots[:n - 1])
    Rplus = r_product(p3, roots[n:2 * n - 1])
    omega = SignedPerm((1, -3, -2))  # x -> (x1, -x3, -x2)
    lhs = WOp.from_group(n, p3.c, omega) * Rchain * WOp.from_group(n, p3.c, omega.inverse())
    probes = make_probes(n, 2, random.Random(4))
    xs = sample(n, 3)
    assert op_residual(lhs, Rplus, probes, xs) < 1e-12


def test_abcd_closed_form_identity_and_symmetry():
    tbl = koornwinder_table(P)
    probes = make_probes(2, 2, random.Random(5))
    xs = sample(2, 4)
    Z = abcd_operator(P)
    assert op_residual(r_product(P, y1_roots(P)[:-1]).restrict(tbl), Z.restrict(tbl),
                           probes, xs) < 1e-12
    A, B, Cs, Ds = abcd_coeffs(P)
    x = xs[0]
    tot = value(A(x)) + value(B(x)) + sum(value(Cs[i](x)) + value(Ds[i](x))
                                          for i in Cs)
    assert abs(tot - (P.tau ** 2) * P.taun) < 1e-12
    # D_i = (C_i)^{s_i}
    s2 = SignedPerm.sign_flip(2, 1)
    assert abs(value(Ds[2](x)) - value(Cs[2].o_group(s2)(x))) < 1e-12


def test_extended_index_conventions():
    # a^+_{n+i, j} = a(-x_i + x_j)
    n = 2
    x = (0.31 + 0.02j, -0.44 + 0.05j)
    lhs = value(a_ext(P, n + 1, 2, 1)(x))
    from laxkit.special import hecke
    assert abs(lhs - hecke(-x[0] + x[1], P.tau, 0)) < 1e-14
    assert ext_coord(2, 2) == (-1, 0)


def test_exclusion_rule_enumeration():
    # primed product: drop l with l-i or l-j equal to 0, +-n (mod 2n)
    for n in (2, 3):
        m = 2 * n
        for i in range(1, m + 1):
            for j in range(1, m + 1):
                got = {l for l in range(1, m + 1)
                       if same_coord(n, l, i) or same_coord(n, l, j)}
                want = set()
                for l in range(1, m + 1):
                    for target in (i, j):
                        d = l - target
                        if d in (0, n, -n) or d in (2 * n, -2 * n):
                            want.add(l)
                assert got == want, (n, i, j)


def test_pq_matrices_and_lax():
    probes = make_probes(2, 2, random.Random(6))
    xs = sample(2, 4)
    lax = koornwinder_lax(P)
    tbl = lax.tbl
    # P = restriction of the abcd operator; Q = restriction of the tail
    Pm, Qm = p_matrix(P), q_matrix(P)
    assert op_residual(Pm, abcd_operator(P).restrict(tbl), probes, xs) < 1e-12
    # the last factor of Y_1: R(delta + 2 e_1) t(e_1)
    odd = r_matrix(P, y1_roots(P)[-1]) * WOp.translation(2, P.c, ext_coord(2, 0))
    assert op_residual(Qm, odd.restrict(tbl), probes, xs) < 1e-13
    # Q sparsity
    for i in range(4):
        for j in range(4):
            if (i - j) % 4 not in (0, 2):
                assert not Qm.entries[i][j].terms
    assert op_residual(lax.L, y_elliptic(P, ext_coord(2, 0)).restrict(tbl),
                       probes, xs) < 1e-8
    Hm = OperatorMatrix.diagonal(lax.H, 4)
    assert op_residual(lax.L * Hm - Hm * lax.L,
                           lax.A * lax.L - lax.L * lax.A, probes, xs) < 1e-8


def test_integrals_ccn():
    probes = make_probes(2, 2, random.Random(7))
    xs = sample(2, 3)
    lax = koornwinder_lax(P)
    ints = integrals(lax.L, 2, phi_vector_ccn(P))
    for H_k in ints:
        assert op_residual(H_k * lax.H, lax.H * H_k, probes, xs) < 1e-8
    # phi_{n+i} = u_i prod_{l != i} a^+_{li} a_{il}
    from laxkit.koorn import u_ext
    phis = phi_vector_ccn(P)
    x = xs[0]
    man = value(u_ext(P, 1, 0)(x)) * value(a_ext(P, 2, 1, 1)(x)) * value(a_ext(P, 1, 2)(x))
    assert abs(value(phis[2](x)) - man) < 1e-13


def test_classical_koornwinder():
    pc = CCnParams(n=2, tau0=1.2, tau0v=0.8, taun=1.5, taunv=0.7, tau=1.3, c=0.0)
    Lf = (p_matrix(pc) * q_matrix(pc)).phase_field()
    Hc = koornwinder_hamiltonian(pc)[0].phase_field()
    z0 = (0.4, -0.6, 0.13, -0.07)
    times, traj = hamiltonian_flow(Hc, z0, T=1.0, dt=2e-3, n=2)
    assert energy_drift(Hc, traj) < 1e-7
    assert isospectral_drift(matrix_fn_from_fields(Lf), traj[::25]) < 1e-6
    rng = random.Random(8)
    tr2, tr4 = trace_powers(Lf, (2, 4))
    zp = [tuple(complex(rng.uniform(-0.8, 0.8), 0.02) for _ in range(2)) +
          tuple(complex(rng.uniform(-0.3, 0.3), 0) for _ in range(2))
          for _ in range(4)]
    assert max(poisson_residual(tr2, tr4, z, 2) for z in zp) < 1e-8


def test_koorn_ahat_slope():
    hs = [1e-2, 1e-3, 1e-4]
    x = (0.4, -0.2)
    p = (0.1, 0.3)
    vals = []
    for h in hs:
        ph = CCnParams(n=2, tau0=P.tau0, tau0v=P.tau0v, taun=P.taun,
                       taunv=P.taunv, tau=P.tau, c=-1j * h)
        lax = koornwinder_lax(ph)
        mx = 0.0
        for row in lax.A.entries:
            for e in row:
                for (w, _l) in e.terms:
                    mx = max(mx, abs(e.symbol_component(w, x, p)))
        vals.append(mx)
    assert abs(fit_slope(hs, vals) - 1.0) < 0.1
