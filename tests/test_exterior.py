import itertools
import random

import pytest

from spinlab.fields import QQ, GF, make_field
from spinlab.exterior import (Multivector, b_is_symmetric, bhat_is_symmetric,
                              complement, complement_form_signs, form_b,
                              form_bhat, form_sign, monomial_label, wedge,
                              wedge_sign)


def mask_bits(mask):
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def brute_wedge_sign(a, b):
    """Sign of sorting the concatenation (bits of a, bits of b)."""
    if a & b:
        return 0
    seq = mask_bits(a) + mask_bits(b)
    inv = sum(1 for i, j in itertools.combinations(range(len(seq)), 2)
              if seq[i] > seq[j])
    return -1 if inv & 1 else 1


def test_wedge_sign_matches_inversion_count():
    for a in range(64):
        for b in range(64):
            if a & b:
                continue
            assert wedge_sign(a, b) == brute_wedge_sign(a, b), (a, b)


def test_wedge_is_associative_and_graded_commutative():
    l, f = 4, QQ
    basis = list(Multivector.basis(l, f))
    for s, t in itertools.product(basis, repeat=2):
        st = wedge(s, t)
        ts = wedge(t, s)
        rs = next(iter(s.coeffs)).bit_count()
        rt = next(iter(t.coeffs)).bit_count()
        sign = -1 if (rs * rt) & 1 else 1
        assert st == (ts if sign > 0 else -ts)
    rng = random.Random(2)
    for _ in range(30):
        a, b, c = (basis[rng.randrange(len(basis))] for _ in range(3))
        assert wedge(wedge(a, b), c) == wedge(a, wedge(b, c))


@pytest.mark.parametrize("op", ["bar", "hat"])
def test_involutions_are_involutive_antiautomorphisms(op):
    l, f = 5, GF(7)
    apply = (Multivector.bar_involution if op == "bar"
             else Multivector.hat_involution)
    rng = random.Random(8)
    basis = list(Multivector.basis(l, f))
    for _ in range(80):
        s = basis[rng.randrange(len(basis))]
        t = basis[rng.randrange(len(basis))]
        assert apply(apply(s)) == s
        assert apply(wedge(s, t)) == wedge(apply(t), apply(s))


@pytest.mark.parametrize("l", range(1, 9))
def test_form_b_symmetry_parity(l):
    # scan the full Gram matrix: b(t,s) = sign * b(s,t) with the sign
    # constant across all monomial pairs, symmetric iff l = 0,3 mod 4
    f = QQ
    basis = list(Multivector.basis(l, f))
    want_sym = l % 4 in (0, 3)
    assert b_is_symmetric(l) == want_sym
    sign = 1 if want_sym else -1
    for s, t in itertools.product(basis, repeat=2):
        assert form_b(t, s) == sign * form_b(s, t), (l, s, t)


@pytest.mark.parametrize("l", range(1, 9))
def test_form_bhat_symmetry_parity(l):
    f = QQ
    basis = list(Multivector.basis(l, f))
    want_sym = l % 4 in (0, 1)
    assert bhat_is_symmetric(l) == want_sym
    sign = 1 if want_sym else -1
    for s, t in itertools.product(basis, repeat=2):
        assert form_bhat(t, s) == sign * form_bhat(s, t), (l, s, t)


@pytest.mark.parametrize("l", [1, 3, 5, 7])
def test_half_spin_parts_isotropic_for_bhat_odd_l(l):
    f = QQ
    for parity in (0, 1):
        masks = [m for m in range(1 << l) if m.bit_count() % 2 == parity]
        for ma, mb in itertools.product(masks, repeat=2):
            v = form_bhat(Multivector.from_mask(l, f, ma),
                          Multivector.from_mask(l, f, mb))
            assert v == 0, (l, parity, ma, mb)


@pytest.mark.parametrize("l", range(1, 9))
@pytest.mark.parametrize("ch", [0, 3, 5])
def test_gram_matrices_nondegenerate(l, ch):
    # each monomial row pairs nontrivially with exactly one monomial
    # (the complement), so the Gram matrix is a signed permutation --
    # invertible over every field
    f = make_field(ch)
    for form in (form_b, form_bhat):
        for ma in range(1 << l):
            hits = [mb for mb in range(1 << l)
                    if not f.is_zero(form(Multivector.from_mask(l, f, ma),
                                          Multivector.from_mask(l, f, mb)))]
            assert hits == [complement(ma, l)], (form.__name__, l, ch, ma)


@pytest.mark.parametrize("l", range(1, 6))
def test_form_sign_is_the_form_on_monomials(l):
    top = (1 << l) - 1
    for hat, form in ((False, form_b), (True, form_bhat)):
        for ma in range(1 << l):
            for mb in range(1 << l):
                v = form(Multivector.from_mask(l, QQ, ma),
                         Multivector.from_mask(l, QQ, mb))
                assert form_sign(ma, mb, top, hat) == v, (l, hat, ma, mb)


@pytest.mark.parametrize("l", range(1, 9))
@pytest.mark.parametrize("hat", [False, True])
def test_complement_form_signs_match_form_sign(l, hat):
    top = (1 << l) - 1
    want = [form_sign(m, complement(m, l), top, hat) for m in range(1 << l)]
    assert complement_form_signs(l, hat).tolist() == want


def test_monomial_labels():
    assert monomial_label(0) == "1"
    assert monomial_label(0b101) == "v1v3"


def test_phi_functional_picks_top_coefficient():
    l, f = 3, QQ
    s = Multivector(l, f, {0: f.of_int(4), (1 << l) - 1: f.of_int(-2)})
    assert s.phi_functional() == -2
