import itertools
import random
from fractions import Fraction

import numpy as np
import pytest

import envelope_reference
from envelope_reference import EnvelopeElement, _j_field_table, ch3
from exterior_reference import wedge_sign
from helpers import j_associators, j_product, lmul_brackets_by_loops
from spinlab import kac
from spinlab.fields import GF, QQ, make_field
from spinlab.kac import (EVEN_INDICES, J_DIM, J_LABELS, J_PARITY, K_FORM,
                         K_PARITY, K_TABLE, ODD_INDICES, _inder_basis,
                         _j_fractions, _j_tensor, _lmul_brackets, _tensor_index,
                         ch3_scan)
from spinlab.linalg import common_denominator, exact_array, rank_modp

EE = _tensor_index(0, 0)


def idempotent(p):
    """f = -(1/2) 1 + 2 e(x)e, as a coordinate vector over characteristic p."""
    v = [0] * J_DIM
    v[0], v[EE] = Fraction(-1, 2), 2
    return exact_array(v, p)


def test_layout():
    assert J_DIM == 10
    assert len(J_LABELS) == 10
    assert EVEN_INDICES == (0, 1, 5, 6, 8, 9)
    assert ODD_INDICES == (2, 3, 4, 7)
    assert all(J_PARITY[i] == 0 for i in EVEN_INDICES)
    assert all(J_PARITY[i] == 1 for i in ODD_INDICES)


def test_product_examples():
    T = _j_tensor(0)
    expect = [0] * J_DIM
    expect[0] = Fraction(-3, 16)
    expect[EE] = 1
    assert T[EE, EE].tolist() == expect
    expect[0] = Fraction(-3, 8)
    assert T[_tensor_index(1, 0), _tensor_index(2, 0)].tolist() == expect


@pytest.mark.parametrize("ch", [0, 5])
def test_idempotent(ch):
    ff = idempotent(ch)
    assert j_product(ch, ff, ff).tolist() == ff.tolist()
    assert ff[0] == make_field(ch).raw(Fraction(-1, 2))     # t(f) = -1/2


def test_supercommutativity_all_pairs():
    T = _j_tensor(0)
    for i in range(J_DIM):
        for j in range(J_DIM):
            sign = -1 if J_PARITY[i] and J_PARITY[j] else 1
            assert (T[i, j] == sign * T[j, i]).all(), (i, j)


def test_unit_and_traces():
    # 1 is a two-sided unit; the trace t, the coordinate of 1, has t(1) = 1,
    # and the product keeps the grading, so t(xy) = 0 for x even, y odd
    T = _j_tensor(0)
    eye = np.eye(J_DIM, dtype=np.int64)
    assert (T[0] == eye).all() and (T[:, 0] == eye).all()
    for i, j, k in zip(*np.nonzero(T != 0)):
        assert J_PARITY[k] == J_PARITY[i] ^ J_PARITY[j], (i, j, k)
    assert T[0, 0, 0] == 1 and 0 not in ODD_INDICES


@pytest.mark.parametrize("ch", [0, 5])
def test_associator_trace_free_and_span(ch):
    assoc = j_associators(ch)
    assert not assoc[..., 0].any()
    assert rank_modp(assoc.reshape(-1, J_DIM), ch) == 9


def k_lmul(i):
    """L_i on K as a 3x3 array of Fractions (rows = outputs)."""
    L = np.full((3, 3), Fraction(0), dtype=object)
    for j in range(3):
        for k, c in K_TABLE[i][j].items():
            L[k, j] = c
    return L


def k_supercomm(i, j):
    s = -1 if K_PARITY[i] and K_PARITY[j] else 1
    return k_lmul(i).dot(k_lmul(j)) - s * k_lmul(j).dot(k_lmul(i))


def test_odd_left_mults_on_K():
    # {L_x, L_y} = (x(y|.) + y(x|.))/2 for odd x, y
    eye, form = np.eye(3, dtype=np.int64), np.array(K_FORM, dtype=object)
    for iu in (1, 2):
        for iv in (1, 2):
            want = (np.outer(eye[iu], form[iv]) + np.outer(eye[iv], form[iu])) / 2
            assert (k_supercomm(iu, iv) == want).all(), (iu, iv)


def test_inner_derivation_closed_form_81_pairs():
    # [L_{a@b}, L_{c@d}] = (1/2)(-1)^{|b||c|}((b|d)[La,Lc]@id + (a|c)id@[Lb,Ld]),
    # with (A@B)(u@v) = (-1)^{|B||u|} Au@Bv
    eye = np.eye(3, dtype=np.int64)
    flip = np.repeat([-1 if par else 1 for par in K_PARITY], 3)   # (-1)^{|u|}
    brackets = _lmul_brackets(0)
    for ai, bi, ci, di in itertools.product(range(3), repeat=4):
        t1 = np.kron(k_supercomm(ai, ci), eye) * K_FORM[bi][di]
        t2 = np.kron(eye, k_supercomm(bi, di)) * K_FORM[ai][ci]
        if K_PARITY[bi] ^ K_PARITY[di]:
            t2 = t2 * flip
        want = (t1 + t2) / 2 * (-1 if K_PARITY[bi] and K_PARITY[ci] else 1)
        got = brackets[_tensor_index(ai, bi), _tensor_index(ci, di)]
        assert (got == want).all(), (ai, bi, ci, di)


@pytest.mark.parametrize("fld", [QQ, GF(5), GF(7)], ids=["QQ", "GF5", "GF7"])
def test_inner_derivation_matches_loop_reference(fld):
    brackets, ref = _lmul_brackets(fld.p), lmul_brackets_by_loops(fld.p)
    for i in range(J_DIM):
        for j in range(J_DIM):
            assert brackets[i, j].tolist() == ref[i, j], (i, j)


@pytest.mark.parametrize("fld", [QQ, GF(5), GF(7)], ids=["QQ", "GF5", "GF7"])
def test_inder_span_dims(fld):
    basis, n_even = _inder_basis(fld.p)
    assert (n_even, len(basis) - n_even) == (6, 4)
    brackets = _lmul_brackets(fld.p)[1:, 1:].reshape(-1, 81)
    both = np.concatenate([basis.reshape(-1, 81), brackets])
    assert rank_modp(both, fld.p) == rank_modp(basis.reshape(-1, 81), fld.p) == 10


def test_star_lands_in_trace_free_part():
    # x * y = xy - t(xy) 1 on J0 = K(x)K, with t(v) the coordinate of 1
    # in v, has t(x * y) = 0; and the trace form t(xy) on J0 is nondegenerate
    T = _j_tensor(0)
    star = T[1:, 1:] - T[1:, 1:, :1] * T[0, 0]
    assert not star[..., 0].any()
    assert rank_modp(T[1:, 1:, 0], 0) == 9


@pytest.mark.parametrize("fld", [QQ, GF(5), GF(7)], ids=["QQ", "GF5", "GF7"])
def test_ch3_of_unit_vanishes(fld):
    assert ch3(EnvelopeElement.unit(4, fld)).is_zero()


def test_ch3_of_idempotent():
    def env(fld):
        return EnvelopeElement(4, fld, {(0, 0): Fraction(-1, 2), (0, EE): 2})

    assert ch3(env(GF(5))).is_zero()
    assert ch3(env(QQ)).terms == {(0, EE): Fraction(35, 4)}


def jordan_envelope_check(field, m, samples, seed):
    """Commutativity and the Jordan identity (x^2 y) x = x^2 (y x) on
    seeded random even elements of G(J) on m generators, by
    EnvelopeElement products: the first failing (trial, law), or None."""
    rng = random.Random(seed)
    slots = [(0, j) for j in EVEN_INDICES]
    slots += [(1 << i, j) for i in range(m) for j in ODD_INDICES]
    slots += [(1 << i | 1 << k, j) for i in range(m) for k in range(i + 1, m)
              for j in EVEN_INDICES]

    def draw():
        return EnvelopeElement(m, field, {
            key: rng.randrange(field.p) if field.p else rng.randint(-2, 2)
            for key in slots})

    for trial in range(samples):
        x, y = draw(), draw()
        yx = y * x
        if x * y != yx:
            return trial, "commutativity"
        x2 = x * x
        if (x2 * y) * x != x2 * yx:
            return trial, "jordan"
    return None


@pytest.mark.parametrize("fld", [QQ, GF(5)], ids=repr)
def test_envelope_product_of_basis_elements(fld):
    # (u⊗a)(v⊗b) = (−1)^{|a||v|} uv⊗ab on every pair of even basis elements
    # (mask, j) on 3 generators, from _j_tensor and wedge_sign alone
    m, T = 3, _j_tensor(fld.p)
    even = [(g, j) for g in range(1 << m) for j in range(J_DIM)
            if g.bit_count() % 2 == J_PARITY[j]]
    assert len(even) == 40
    for (ga, ja), (gb, jb) in itertools.product(even, repeat=2):
        got = (EnvelopeElement(m, fld, {(ga, ja): 1})
               * EnvelopeElement(m, fld, {(gb, jb): 1})).terms
        sign = wedge_sign(ga, gb) * (-1) ** (J_PARITY[ja] * gb.bit_count())
        want = {(ga | gb, k): fld.raw(sign * v) for k, v in enumerate(T[ja, jb])
                if sign * v}
        assert got == want, (ga, ja, gb, jb)


def test_envelope_jordan_laws():
    assert jordan_envelope_check(QQ, 3, samples=6, seed=11) is None
    assert jordan_envelope_check(GF(5), 4, samples=6, seed=7) is None


def test_envelope_check_catches_corruption(monkeypatch):
    tab = [list(map(list, row)) for row in _j_field_table(GF(5))]
    tab[1][1] = [(0, 1), (1, 1)]
    monkeypatch.setattr(envelope_reference, "_j_field_table", lambda field: tab)
    assert jordan_envelope_check(GF(5), 3, samples=6, seed=3) is not None


@pytest.mark.parametrize("m,terms,message", [
    (2, {(0, -1): 1}, r"J index of key \(0, -1\) outside range\(10\)"),
    (2, {(0, 10): 1}, r"J index of key \(0, 10\) outside range\(10\)"),
    (2, {(0, True): 1}, r"J index of key \(0, True\) outside range\(10\)"),
    (2, {(4, 0): 1}, r"monomial mask of key \(4, 0\) outside range\(4\)"),
    (2, {(-1, 2): 1}, r"monomial mask of key \(-1, 2\) outside range\(4\)"),
    (True, {}, "m must be a non-negative int, not True"),
    (-1, {}, "m must be a non-negative int, not -1"),
    (2.0, {}, "m must be a non-negative int, not 2.0"),
])
def test_envelope_element_refuses_a_key_outside_its_basis(m, terms, message):
    # (0, -1) used to be kept, printed as y(x)y and compared unequal to
    # (0, 9); (0, 10) raised IndexError; m = True and m = -1 were kept
    with pytest.raises(ValueError, match=message):
        EnvelopeElement(m, GF(5), terms)
    x = EnvelopeElement(np.int64(2), GF(5), {(np.int64(3), np.int64(9)): 1})
    assert x == EnvelopeElement(2, GF(5), {(3, 9): 1})
    assert type(x.m) is int and all(type(k) is int for key in x.terms for k in key)


def _random_envelope(rng, m, fld):
    """A random even element of G(J) on m generators: every monomial of
    matching parity on every basis element, coefficients uniform."""
    terms = {}
    for g in range(1 << m):
        for j in (ODD_INDICES if g.bit_count() & 1 else EVEN_INDICES):
            terms[(g, j)] = rng.randrange(fld.p)
    return EnvelopeElement(m, fld, terms)


# a pinned element of G(J) on 4 generators, xi_1 (x) e(x)x + xi_2 (x) e(x)x
# + xi_3 (x) e(x)y + xi_4 (x) x(x)e, where ch3 does not vanish over Q, GF(7)
OLD_WITNESS_X = {(1, 2): 1, (2, 2): 1, (4, 3): 1, (8, 4): 1}


def zero_polarization():
    """A stand-in for kac.ch3 under which every polarization vanishes."""
    return np.zeros((220, J_DIM), dtype=np.int64), 512


def polarization_element(triple, fld):
    """u_a (x) a + u_b (x) b + u_c (x) c on 6 generators, each u on its own
    generators (one for an odd basis element, two for an even one), as a
    reference element, and the mask of u_a u_b u_c."""
    terms, used = {}, 0
    for j in triple:
        width = 1 if J_PARITY[j] else 2
        terms[((1 << width) - 1) << used, j] = 1
        used += width
    return EnvelopeElement(6, fld, terms), (1 << used) - 1


TRIPLES = list(itertools.combinations_with_replacement(range(J_DIM), 3))


@pytest.mark.parametrize("fld", [QQ, GF(3), GF(5), GF(7)], ids=repr)
def test_polarization_array_is_ch3_of_the_envelope_on_every_triple(fld):
    # ch3(u_a a + u_b b + u_c c) = u_a u_b u_c (x) P[n] / scale, with ch3
    # evaluated element by element in the reference envelope
    P, scale = kac.ch3()
    assert len(TRIPLES) == len(P) == 220
    for n, triple in enumerate(TRIPLES):
        x, top = polarization_element(triple, fld)
        want = {(top, k): c for k, v in enumerate(P[n].tolist())
                if (c := fld.raw(Fraction(v, scale)))}
        assert ch3(x).terms == want, (n, triple)


def test_polarization_array_content_is_5_16():
    # 57 nonzero values whose content over Z is 5/16: for p >= 5, ch3 holds
    # in characteristic p exactly when p = 5
    P, scale = kac.ch3()
    assert P.dtype == np.int64 and P.shape == (220, J_DIM)
    assert not P.flags.writeable and kac.ch3() is kac.ch3()
    assert scale == 512 and np.count_nonzero(P) == 57
    assert Fraction(int(np.gcd.reduce(P[P != 0])), scale) == Fraction(5, 16)
    # the premise and the conclusion of the int64 bound in ch3's docstring
    num, d = common_denominator(_j_fractions())
    assert d == 16 and max(abs(v) for v in num.flat) == 16
    assert np.abs(P).max() == 3360 < 1 << 17


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_scan_verdict_is_whether_p_divides_every_value(p):
    P, _ = kac.ch3()
    kept = np.flatnonzero((P % p).any(axis=1))
    r = ch3_scan(GF(p))
    if not len(kept):
        assert p == 5
        assert (r["verdict"], r["checked"], r["witness"]) == ("pass", 220, None)
        return
    n = int(kept[0])
    assert (r["verdict"], r["checked"], r["m"], r["field"]) == ("witness", n + 1, 6, p)
    x, top = polarization_element(TRIPLES[n], GF(p))
    assert r["witness"] == {"x": x.support(), "value": ch3(x).support()}
    assert r["witness"]["value"][0][0] == top


class TestCh3Scan:
    """The complete check, on the basis multisets {a, b, c}."""

    def test_gf5_elementary_passes(self):
        r = ch3_scan(GF(5))
        assert r["verdict"] == "pass"
        assert (r["checked"], r["m"]) == (220, 6)
        assert r["witness"] is None

    def test_qq_elementary_witness_pinned(self):
        r = ch3_scan(QQ)
        assert r["verdict"] == "witness"
        assert r["checked"] == 56
        assert r["witness"]["x"] == [[3, 1, "1"], [12, 1, "1"], [48, 1, "1"]]
        assert r["witness"]["value"] == [[63, 1, "105/16"]]
        old = ch3(EnvelopeElement(4, QQ, OLD_WITNESS_X))
        assert old.support() == [[13, 4, "-15/8"], [14, 4, "-15/8"]]

    def test_gf7_elementary_witness_pinned(self):
        r = ch3_scan(GF(7))
        assert r["verdict"] == "witness"
        assert r["checked"] == 60
        assert r["witness"]["x"] == [[3, 1, "1"], [12, 1, "1"], [48, 5, "1"]]
        assert r["witness"]["value"] == [[63, 5, "4"]]
        old = ch3(EnvelopeElement(4, GF(7), OLD_WITNESS_X))
        assert old.support() == [[13, 4, "6"], [14, 4, "6"]]

    def test_gf3_elementary_witness(self):
        r = ch3_scan(GF(3))
        assert r["verdict"] == "witness"
        assert r["checked"] == 57
        assert r["witness"]["x"] == [[3, 1, "1"], [12, 1, "1"], [16, 2, "1"]]
        assert r["witness"]["value"] == [[31, 2, "2"]]

    def test_ch3_vanishes_on_random_gf5_envelope_elements(self):
        # independent of the polarization argument: whole random elements
        # of G(J) on 6 generators, every monomial slot filled
        rng = random.Random(20050512)
        for _ in range(4):
            assert ch3(_random_envelope(rng, 6, GF(5))).is_zero()
        assert not ch3(_random_envelope(rng, 6, GF(7))).is_zero()

    @pytest.mark.parametrize("p,verdict", [(3, "inconclusive"), (7, "pass")])
    def test_vanishing_check_verdict(self, monkeypatch, p, verdict):
        # 3! = 0 mod 3, so vanishing polarizations prove nothing there
        monkeypatch.setattr(kac, "ch3", zero_polarization)
        r = ch3_scan(GF(p))
        assert (r["verdict"], r["checked"], r["witness"]) == (verdict, 220, None)

    def test_determinism(self):
        a = ch3_scan(QQ)
        b = ch3_scan(QQ)
        assert a == b
