"""Root systems, Weyl groups, coset tables, reduced words (all exact)."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from laxkit.weyl import (AffineElement, ConfigError, affine_reflection,
                         build_root_system, ext_coord, ext_form,
                         orbit_stabilizer, reduced_word, same_coord,
                         weyl_enumerate, SignedPerm)
from support import affine_length, evaluate_word, finite_length, translation_word


def test_root_counts():
    a = build_root_system("A", 3)
    assert len(a.roots) == 6 and len(weyl_enumerate(a)) == 6
    c2 = build_root_system("C", 2)
    assert len(c2.roots) == 8 and len(weyl_enumerate(c2)) == 8
    c3 = build_root_system("C", 3)
    assert len(weyl_enumerate(c3)) == 48
    assert c3.highest == (2, 0, 0)
    a5 = build_root_system("A", 5)
    assert len(a5.roots) == 5 * 4
    assert len(build_root_system("C", 3).roots) == 2 * 9


def test_bad_type_raises():
    with pytest.raises(ConfigError):
        build_root_system("E", 8)
    with pytest.raises(ConfigError):
        build_root_system("A", 0)


def test_roots_closed_under_negation_and_simple_span():
    for kind, n in (("A", 4), ("C", 3)):
        rs = build_root_system(kind, n)
        rset = set(rs.roots)
        assert all(tuple(-v for v in a) in rset for a in rs.roots)
        for a in rs.pos_roots:
            # positive roots are nonnegative integer combos of simple roots
            coeffs = _express_in_simples(a, rs.simple)
            assert coeffs is not None and all(c >= 0 for c in coeffs)


def _express_in_simples(a, simples):
    # small exact search adequate for rank <= 4
    for coeffs in itertools.product(range(0, 5), repeat=len(simples)):
        vec = [0] * len(a)
        for c, s in zip(coeffs, simples):
            for i, v in enumerate(s):
                vec[i] += c * v
        if tuple(vec) == tuple(a):
            return coeffs
    return None


def test_fundamental_coweights_pairing():
    for kind, n in (("A", 4), ("C", 3)):
        rs = build_root_system(kind, n)
        bs = rs.fundamental_coweights()
        for i, ai in enumerate(rs.simple):
            for j, bj in enumerate(bs):
                val = sum(x * y for x, y in zip(ai, bj))
                assert abs(val - (1.0 if i == j else 0.0)) < 1e-14


def test_reflection_involutive_and_negates_root():
    for kind, n in (("A", 3), ("C", 3)):
        rs = build_root_system(kind, n)
        for a in rs.pos_roots:
            s = rs.reflection(a)
            assert (s * s).is_identity()
            assert s.apply_vec(a) == tuple(-v for v in a)


def test_orbit_stabilizer_special_and_counting():
    rs = build_root_system("A", 3)
    tbl = orbit_stabilizer(rs, (1, 0, 0))
    assert tbl.m == 3 and len(tbl.stabilizer) == 2
    c2 = build_root_system("C", 2)
    tbl2 = orbit_stabilizer(c2, (1, 0))
    assert tbl2.m == 4 and len(tbl2.stabilizer) == 2
    # generic xi: trivial stabilizer
    tbl_g = orbit_stabilizer(rs, (0.31, -0.12, 0.44))
    assert tbl_g.m == 6 and len(tbl_g.stabilizer) == 1
    rng = random.Random(3)
    for kind, n in (("A", 3), ("C", 2), ("C", 3)):
        rsx = build_root_system(kind, n)
        W = len(weyl_enumerate(rsx))
        for _ in range(20):
            xi = tuple(complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(n))
            tbl = orbit_stabilizer(rsx, xi)
            assert len(tbl.orbit) * len(tbl.stabilizer) == W


def test_xi_zero_rejected():
    rs = build_root_system("A", 2)
    with pytest.raises(ValueError):
        orbit_stabilizer(rs, (0, 0))


def test_coset_table_against_group_multiplication():
    for kind, n in (("A", 5), ("C", 3)):
        rs = build_root_system(kind, n)
        tbl = orbit_stabilizer(rs, tuple(1 if i == 0 else 0 for i in range(n)))
        stabset = set(tbl.stabilizer)
        for i in range(1, tbl.m + 1):
            for j in range(1, tbl.m + 1):
                k = tbl.k(i, j)
                # e' r_i r_j = e' r_k means r_i r_j r_k^-1 in W'
                g = tbl.reps[i - 1] * tbl.reps[j - 1] * tbl.reps[k - 1].inverse()
                assert g in stabset


def test_coset_table_paper_cases():
    rs = build_root_system("A", 5)
    tbl = orbit_stabilizer(rs, (1, 0, 0, 0, 0))
    assert tbl.k(1, 5) == 5
    assert tbl.k(4, 4) == 1
    assert tbl.k(3, 5) == 3
    c3 = build_root_system("C", 3)
    n = 3
    tbl = orbit_stabilizer(c3, (1, 0, 0))
    for j in range(1, n + 1):
        assert tbl.k(n + 1, j) == j + n
        assert tbl.k(n + 1, j + n) == j
    assert tbl.k(2, 2 + n) == n + 1


def test_reduced_word_simple_and_translations():
    c2 = build_root_system("C", 2)
    s1 = AffineElement.from_linear(c2.reflection(c2.simple[0]))
    assert reduced_word(c2, s1) == [1]
    # t(e_i) = s_i ... s_{n-1} s_n s_{n-1} ... s_1 s_0 s_1 ... s_{i-1}
    for n in (2, 3):
        cn = build_root_system("C", n)
        for i in range(1, n + 1):
            expect = list(range(i, n)) + [n] + list(range(n - 1, 0, -1)) + [0] + \
                     list(range(1, i))
            lam = tuple(1 if k == i - 1 else 0 for k in range(n))
            word = translation_word(cn, lam)
            assert word == expect
            assert evaluate_word(cn, word) == AffineElement.translation(lam)


def test_reduced_word_a2_highest_coroot_bfs_oracle():
    rs = build_root_system("A", 3)
    w = AffineElement.translation((1, 0, -1))
    word = reduced_word(rs, w)
    assert evaluate_word(rs, word) == w
    assert len(word) == affine_length(rs, w)
    # brute-force minimal word search over words up to length 6
    refl = [affine_reflection(a) for a in rs.affine_simple_roots()]
    best = None
    for length in range(0, 7):
        for cand in itertools.product(range(3), repeat=length):
            el = AffineElement.identity(3)
            for i in cand:
                el = el * refl[i]
            if el == w:
                best = length
                break
        if best is not None:
            break
    assert best == len(word)


def test_word_length_equals_inversions_random():
    rng = random.Random(11)
    c2 = build_root_system("C", 2)
    refl = [affine_reflection(a) for a in c2.affine_simple_roots()]
    for _ in range(12):
        el = AffineElement.identity(2)
        for _k in range(rng.randrange(0, 8)):
            el = el * refl[rng.randrange(3)]
        word = reduced_word(c2, el)
        assert evaluate_word(c2, word) == el
        assert len(word) == affine_length(c2, el)


def test_extended_translation_words_stop_at_length_zero():
    # GL_3: t(e_i) = s_{i1} ... s_{il} pi, with pi a nontrivial element of
    # length 0 (Omega); the word is that of the part of positive length
    rs = build_root_system("A", 3)
    for i, expect in enumerate(([1, 2], [2, 0], [0, 1])):
        t = AffineElement.translation(ext_coord(3, i))
        word = reduced_word(rs, t)
        assert word == expect
        rest = evaluate_word(rs, word).inverse() * t
        assert not rest.is_identity()
        assert affine_length(rs, rest) == 0


def test_finite_reduced_words():
    rs = build_root_system("C", 3)
    gens = rs.simple_reflections()
    rng = random.Random(5)
    for _ in range(10):
        w = SignedPerm.identity(3)
        for _k in range(rng.randrange(0, 9)):
            w = gens[rng.randrange(3)] * w
        word = reduced_word(rs, AffineElement.from_linear(w))
        assert 0 not in word                # a finite w never takes a_0
        out = SignedPerm.identity(3)
        for i in word:
            out = out * gens[i - 1]
        assert out == w
        assert len(word) == finite_length(rs, w)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=2), max_size=9))
def test_reduced_word_roundtrip_hypothesis(word):
    c2 = build_root_system("C", 2)
    el = evaluate_word(c2, word)
    back = reduced_word(c2, el)
    assert evaluate_word(c2, back) == el
    assert len(back) <= len(word)


def test_affine_action_conventions():
    # t(lam) x = x - c lam and s_0 for C_n sends x_1 -> c - x_1
    c2 = build_root_system("C", 2)
    t = AffineElement.translation((1, 0))
    c = 0.37
    assert t.apply_point((0.5, 0.2), c) == (0.5 - c, 0.2)
    assert t.inv_apply_point((0.5, 0.2), c) == (0.5 + c, 0.2)
    a0 = c2.affine_simple_roots()[0]
    s0 = affine_reflection(a0)
    x = s0.apply_point((0.5, 0.2), c)
    assert abs(x[0] - (c - 0.5)) < 1e-15 and x[1] == 0.2


def test_weyl_closed_under_composition_sample():
    rs = build_root_system("C", 2)
    W = weyl_enumerate(rs)
    Wset = set(W)
    assert len(Wset) == 8
    for w in W:
        for v in W:
            assert w * v in Wset


def test_signed_perm_builders_table():
    # (built element, explicit 1-based signed images of e_1..e_n)
    table = [
        (SignedPerm.transposition(1, 0, 0), (1,)),
        (SignedPerm.transposition(3, 0, 2), (3, 2, 1)),
        (SignedPerm.transposition(3, 1, 2), (1, 3, 2)),
        (SignedPerm.transposition(4, 3, 0), (4, 2, 3, 1)),
        (SignedPerm.neg_transposition(1, 0, 0), (-1,)),
        (SignedPerm.neg_transposition(3, 0, 2), (-3, 2, -1)),
        (SignedPerm.neg_transposition(3, 2, 1), (1, -3, -2)),
        (SignedPerm.neg_transposition(2, 0, 0), (-1, 2)),
        (SignedPerm.sign_flip(1, 0), (-1,)),
        (SignedPerm.sign_flip(3, 0), (-1, 2, 3)),
        (SignedPerm.sign_flip(3, 2), (1, 2, -3)),
        # a ⊕ w: the second block's indices are shifted by a.n
        (SignedPerm.block(SignedPerm.identity(1), SignedPerm.identity(1)), (1, 2)),
        (SignedPerm.block(SignedPerm.sign_flip(1, 0), SignedPerm.sign_flip(1, 0)),
         (-1, -2)),
        (SignedPerm.block(SignedPerm.transposition(3, 0, 2), SignedPerm.sign_flip(3, 2)),
         (3, 2, 1, 4, 5, -6)),
        (SignedPerm.block(SignedPerm.neg_transposition(2, 0, 1),
                          SignedPerm.transposition(3, 1, 2)), (-2, -1, 3, 5, 4)),
    ]
    for w, img in table:
        assert w == SignedPerm(img)
        assert (w * w).is_identity()
    # blocks compose and invert blockwise
    a, w = SignedPerm((2, -3, 1)), SignedPerm((-2, 1))
    assert SignedPerm.block(a, w) * SignedPerm.block(a, w) == SignedPerm.block(a * a, w * w)
    assert SignedPerm.block(a, w).inverse() == SignedPerm.block(a.inverse(), w.inverse())
    # 0-based indices: s_ij maps e_i to e_j, s^+_ij maps e_i to -e_j
    assert SignedPerm.transposition(4, 1, 3).basis_image(1) == (3, 1)
    assert SignedPerm.neg_transposition(4, 1, 3).basis_image(1) == (3, -1)
    assert SignedPerm.sign_flip(4, 3).basis_image(3) == (3, -1)


def test_ext_coordinate_forms_table():
    # (form, explicit integer coefficients); 0-based, x_{n+i} = -x_i
    table = [
        (ext_coord(1, 0), (1,)),
        (ext_coord(1, 1), (-1,)),
        (ext_coord(3, 1), (0, 1, 0)),
        (ext_coord(3, 4), (0, -1, 0)),
        (ext_coord(3, 2), (0, 0, 1)),
        (ext_coord(3, 5), (0, 0, -1)),
        (ext_form(1, 0, 0), (0,)),
        (ext_form(1, 0, 0, 1), (2,)),
        (ext_form(1, 0, 1), (2,)),
        (ext_form(3, 0, 2), (1, 0, -1)),
        (ext_form(3, 0, 2, 1), (1, 0, 1)),
        (ext_form(3, 3, 2), (-1, 0, -1)),
        (ext_form(3, 5, 4, 1), (0, -1, -1)),
        (ext_form(3, 1, 4), (0, 2, 0)),
        (ext_form(3, 2, 5), (0, 0, 2)),
    ]
    for got, want in table:
        assert got == want and all(type(v) is int for v in got), (got, want)
    for n in (1, 2, 3):
        for i in range(2 * n):
            neg = tuple(-v for v in ext_coord(n, i))
            assert ext_coord(n, (i + n) % (2 * n)) == neg
            for j in range(2 * n):
                assert same_coord(n, i, j) == (ext_coord(n, j) in (ext_coord(n, i), neg))
