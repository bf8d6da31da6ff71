import itertools
import random

import numpy as np
import pytest

from exterior_reference import (bar_sign, form_sign, hat_sign, wedge_sign,
                                wedge_terms)
from spinor_reference import model
from spinlab.fields import QQ, GF, make_field
from spinlab.exterior import (b_is_symmetric, bhat_is_symmetric,
                              complement_form_signs, monomial_label)


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
    # wedge_terms on basis monomials, {mask: 1} over Q
    l, f = 4, QQ
    basis = [{m: f.of_int(1)} for m in range(1 << l)]

    def neg(u):
        return {m: f.neg(v) for m, v in u.items()}

    for s, t in itertools.product(basis, repeat=2):
        st = wedge_terms(f, s, t)
        ts = wedge_terms(f, t, s)
        rs = next(iter(s)).bit_count()
        rt = next(iter(t)).bit_count()
        sign = -1 if (rs * rt) & 1 else 1
        assert st == (ts if sign > 0 else neg(ts))
    rng = random.Random(2)
    for _ in range(30):
        a, b, c = (basis[rng.randrange(len(basis))] for _ in range(3))
        assert (wedge_terms(f, wedge_terms(f, a, b), c)
                == wedge_terms(f, a, wedge_terms(f, b, c)))


def involution(f, u, sign):
    """bar (sign = bar_sign) or hat (hat_sign) of a {mask: raw} dict."""
    return {m: f.neg(v) if sign(m.bit_count()) < 0 else v for m, v in u.items()}


@pytest.mark.parametrize("op", ["bar", "hat"])
def test_involutions_are_involutive_antiautomorphisms(op):
    l, f = 5, GF(7)
    sign = bar_sign if op == "bar" else hat_sign
    rng = random.Random(8)
    basis = [{m: f.of_int(1)} for m in range(1 << l)]
    for _ in range(80):
        s = basis[rng.randrange(len(basis))]
        t = basis[rng.randrange(len(basis))]
        assert involution(f, involution(f, s, sign), sign) == s
        assert (involution(f, wedge_terms(f, s, t), sign)
                == wedge_terms(f, involution(f, t, sign), involution(f, s, sign)))


def check_form_symmetry(l, kind, hat, want_sym):
    # the form the builders read is F[m, ~m] = complement_form_signs: it is
    # symmetric iff F[~m, m] = F[m, ~m]; the gamma-matrix model's C (kind
    # B for b, kind D for bhat) has the same symmetry
    sign = 1 if want_sym else -1
    got = complement_form_signs(l, hat)
    top = (1 << l) - 1
    assert (got[top ^ np.arange(1 << l)] == sign * got).all(), (l, hat)
    assert model(l, kind).symmetric == want_sym, (l, kind)


@pytest.mark.parametrize("l", range(1, 9))
def test_form_b_symmetry_parity(l):
    # symmetric iff l = 0,3 mod 4
    want_sym = l % 4 in (0, 3)
    assert b_is_symmetric(l) == want_sym
    check_form_symmetry(l, "B", False, want_sym)


@pytest.mark.parametrize("l", range(1, 9))
def test_form_bhat_symmetry_parity(l):
    # symmetric iff l = 0,1 mod 4
    want_sym = l % 4 in (0, 1)
    assert bhat_is_symmetric(l) == want_sym
    check_form_symmetry(l, "D", True, want_sym)


@pytest.mark.parametrize("l", [1, 3, 5, 7])
def test_half_spin_parts_isotropic_for_bhat_odd_l(l):
    top = (1 << l) - 1
    for parity in (0, 1):
        masks = [m for m in range(1 << l) if m.bit_count() % 2 == parity]
        for ma, mb in itertools.product(masks, repeat=2):
            assert form_sign(ma, mb, top, hat=True) == 0, (l, parity, ma, mb)


@pytest.mark.parametrize("l", range(1, 9))
@pytest.mark.parametrize("ch", [0, 3, 5])
def test_gram_matrices_nondegenerate(l, ch):
    # each monomial pairs nontrivially with exactly one monomial (the
    # complement) with a sign, so the Gram matrix is a signed permutation --
    # invertible over every field; so is the model's C, of kind B and D
    f = make_field(ch)
    masks = np.arange(1 << l)
    for hat, kind in ((False, "B"), (True, "D")):
        signs = complement_form_signs(l, hat)
        assert all(f.of_int(int(v)) != 0 for v in signs), (l, ch, hat)
        assert set(signs.tolist()) <= {1, -1}
        C_perm, C_sign = model(l, kind).C
        assert (C_perm == ((1 << l) - 1) ^ masks).all(), (l, kind)
        assert set(C_sign.tolist()) <= {1, -1}


def form_by_wedge(s, t, l, hat):
    """phi(bar(s) wedge t), or phi(hat(s) wedge t), on monomials, through
    wedge_terms: the top coefficient of the product."""
    f = QQ
    u = involution(f, {s: f.of_int(1)}, hat_sign if hat else bar_sign)
    return wedge_terms(f, u, {t: f.of_int(1)}).get((1 << l) - 1, f.zero())


@pytest.mark.parametrize("l", range(1, 6))
def test_form_sign_is_the_form_on_monomials(l):
    top = (1 << l) - 1
    for hat in (False, True):
        for ma in range(1 << l):
            for mb in range(1 << l):
                v = form_by_wedge(ma, mb, l, hat)
                assert form_sign(ma, mb, top, hat) == v, (l, hat, ma, mb)


@pytest.mark.parametrize("l", range(1, 9))
@pytest.mark.parametrize("hat", [False, True])
def test_complement_form_signs_match_form_sign(l, hat):
    top = (1 << l) - 1
    want = [form_sign(m, m ^ top, top, hat) for m in range(1 << l)]
    assert complement_form_signs(l, hat).tolist() == want


def test_monomial_labels():
    assert monomial_label(0) == "1"
    assert monomial_label(0b101) == "v1v3"
