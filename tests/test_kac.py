import random
from fractions import Fraction

import pytest

from spinlab import kac
from spinlab.fields import GF, QQ
from spinlab.kac import (EVEN_INDICES, J_DIM, J_LABELS, J_PARITY, K_FORM,
                         K_PARITY, K_TABLE, ODD_INDICES, EnvelopeElement,
                         KacElement, _j_field_table, _tensor_index, ch3,
                         ch3_scan, idempotent_f, inder_j_span,
                         inner_derivation_J, jordan_envelope_check,
                         kac_product, left_mult_matrix, normalized_trace)
from spinlab.linalg import RowSpace

f = QQ


def basis(i, fld=QQ):
    return KacElement.basis(fld, i)


def test_layout():
    assert J_DIM == 10
    assert len(J_LABELS) == 10
    assert EVEN_INDICES == (0, 1, 5, 6, 8, 9)
    assert ODD_INDICES == (2, 3, 4, 7)
    assert all(J_PARITY[i] == 0 for i in EVEN_INDICES)
    assert all(J_PARITY[i] == 1 for i in ODD_INDICES)


def test_product_examples():
    ee = basis(_tensor_index(0, 0))
    expect = [0] * J_DIM
    expect[0] = Fraction(-3, 16)
    expect[_tensor_index(0, 0)] = 1
    assert ee * ee == KacElement(f, expect)
    xe = basis(_tensor_index(1, 0))
    ye = basis(_tensor_index(2, 0))
    expect = [0] * J_DIM
    expect[0] = Fraction(-3, 8)
    expect[_tensor_index(0, 0)] = 1
    assert xe * ye == KacElement(f, expect)


@pytest.mark.parametrize("ch", [0, 5])
def test_idempotent(ch):
    fld = QQ if ch == 0 else GF(ch)
    ff = idempotent_f(fld)
    assert ff * ff == ff
    assert normalized_trace(ff) == fld.raw(Fraction(-1, 2))


def test_supercommutativity_all_pairs():
    for i in range(J_DIM):
        for j in range(J_DIM):
            a, b = basis(i), basis(j)
            if J_PARITY[i] and J_PARITY[j]:
                assert a * b == -(b * a), (i, j)
            else:
                assert a * b == b * a, (i, j)


def test_unit_and_traces():
    one = KacElement.unit(f)
    for i in range(J_DIM):
        b = basis(i)
        assert one * b == b and b * one == b
        if i in ODD_INDICES:
            assert normalized_trace(b) == 0
    assert normalized_trace(one) == 1


@pytest.mark.parametrize("ch", [0, 5])
def test_associator_trace_free_and_span(ch):
    fld = QQ if ch == 0 else GF(ch)
    span = RowSpace(fld, J_DIM)
    for i in range(J_DIM):
        bi = KacElement.basis(fld, i)
        for j in range(J_DIM):
            bij = bi * KacElement.basis(fld, j)
            for k in range(J_DIM):
                bk = KacElement.basis(fld, k)
                assoc = bij * bk - bi * (KacElement.basis(fld, j) * bk)
                assert fld.is_zero(assoc.coords[0]), (i, j, k)
                if not assoc.is_zero():
                    span.insert([assoc.coords])
    assert span.dim == 9


def k_lmul(i):
    rows = [[f.zero()] * 3 for _ in range(3)]
    for j in range(3):
        for k, c in K_TABLE[i][j].items():
            rows[k][j] = f.raw(c)
    return rows


def _dot(A, B, i, j):
    acc = f.zero()
    for k in range(len(A)):
        acc = f.add(acc, f.mul(A[i][k], B[k][j]))
    return acc


def test_odd_left_mults_on_K():
    # {L_x, L_y} = (x(y|.) + y(x|.))/2 for odd x, y
    for iu in (1, 2):
        for iv in (1, 2):
            LU, LV = k_lmul(iu), k_lmul(iv)
            comm = [[f.add(_dot(LU, LV, i, j), _dot(LV, LU, i, j))
                     for j in range(3)] for i in range(3)]
            want = [[f.zero()] * 3 for _ in range(3)]
            half = f.raw(Fraction(1, 2))
            for j in range(3):
                want[iu][j] = f.add(want[iu][j], f.mul(half, f.raw(K_FORM[iv][j])))
                want[iv][j] = f.add(want[iv][j], f.mul(half, f.raw(K_FORM[iu][j])))
            assert comm == want, (iu, iv)


def super_tensor(A, B, parB):
    M = [[f.zero()] * 9 for _ in range(9)]
    for i in range(3):
        for j in range(3):
            for k in range(3):
                for l in range(3):
                    v = f.mul(A[i][k], B[j][l])
                    if parB and K_PARITY[k]:
                        v = f.neg(v)
                    M[3 * i + j][3 * k + l] = f.add(M[3 * i + j][3 * k + l], v)
    return M


def scale_mat(M, c):
    return [[f.mul(c, v) for v in row] for row in M]


def test_inner_derivation_closed_form_81_pairs():
    # [L_{a@b}, L_{c@d}] = (1/2)(-1)^{|b||c|}((b|d)[La,Lc]@id + (a|c)id@[Lb,Ld])
    ID3 = [[f.one() if i == j else f.zero() for j in range(3)]
           for i in range(3)]

    def supercomm(iA, iC):
        LA, LC = k_lmul(iA), k_lmul(iC)
        s = -1 if K_PARITY[iA] and K_PARITY[iC] else 1
        return [[f.sub(_dot(LA, LC, i, j),
                       f.neg(_dot(LC, LA, i, j)) if s < 0 else _dot(LC, LA, i, j))
                 for j in range(3)] for i in range(3)]

    for ai in range(3):
        for bi in range(3):
            for ci in range(3):
                for di in range(3):
                    P = basis(_tensor_index(ai, bi))
                    Q = basis(_tensor_index(ci, di))
                    got = inner_derivation_J(P, Q)
                    commAC = supercomm(ai, ci)
                    commBD = supercomm(bi, di)
                    parAC = (K_PARITY[ai] + K_PARITY[ci]) % 2
                    parBD = (K_PARITY[bi] + K_PARITY[di]) % 2
                    t1 = scale_mat(super_tensor(commAC, ID3, 0),
                                   f.raw(K_FORM[bi][di]))
                    t2 = scale_mat(super_tensor(ID3, commBD, parBD),
                                   f.raw(K_FORM[ai][ci]))
                    want = scale_mat(
                        [[f.add(a, b) for a, b in zip(ra, rb)]
                         for ra, rb in zip(t1, t2)],
                        f.raw(Fraction(1, 2)))
                    if K_PARITY[bi] and K_PARITY[ci]:
                        want = scale_mat(want, f.of_int(-1))
                    assert got == want, (ai, bi, ci, di)


def _inner_derivation_by_loops(p, q):
    """Reference [L_p, L_q] = L_p L_q -+ L_q L_p, entry by entry."""
    fld = p.field
    LP, LQ = left_mult_matrix(p), left_mult_matrix(q)
    odd = p.parity() and q.parity()
    full = [[fld.zero()] * J_DIM for _ in range(J_DIM)]
    for i in range(J_DIM):
        for j in range(J_DIM):
            acc = fld.zero()
            for k in range(J_DIM):
                acc = fld.add(acc, fld.mul(LP[i][k], LQ[k][j]))
                term = fld.mul(LQ[i][k], LP[k][j])
                acc = fld.add(acc, term) if odd else fld.sub(acc, term)
            full[i][j] = acc
    assert all(fld.is_zero(full[i][0]) and fld.is_zero(full[0][i])
               for i in range(J_DIM))
    return [row[1:] for row in full[1:]]


@pytest.mark.parametrize("fld", [QQ, GF(5), GF(7)], ids=["QQ", "GF5", "GF7"])
def test_inner_derivation_matches_loop_reference(fld):
    for i in range(1, J_DIM):
        for j in range(1, J_DIM):
            P, Q = KacElement.basis(fld, i), KacElement.basis(fld, j)
            assert inner_derivation_J(P, Q) == _inner_derivation_by_loops(P, Q), (i, j)


@pytest.mark.parametrize("fld", [QQ, GF(5), GF(7)], ids=["QQ", "GF5", "GF7"])
def test_inder_span_dims(fld):
    ev, od = inder_j_span(fld)
    assert (len(ev), len(od)) == (6, 4)


def test_star_lands_in_trace_free_part():
    for i in range(1, J_DIM):
        for j in range(1, J_DIM):
            s = basis(i).star(basis(j))
            assert f.is_zero(s.coords[0])


def env_of(x, fld):
    return EnvelopeElement(4, fld, {(0, j): c for j, c in enumerate(x.coords)
                                    if not fld.is_zero(c)})


@pytest.mark.parametrize("fld", [QQ, GF(5), GF(7)], ids=["QQ", "GF5", "GF7"])
def test_ch3_of_unit_vanishes(fld):
    assert ch3(EnvelopeElement.unit(4, fld)).is_zero()


def test_ch3_of_idempotent():
    assert ch3(env_of(idempotent_f(GF(5)), GF(5))).is_zero()
    v = ch3(env_of(idempotent_f(QQ), QQ))
    assert v.terms == {(0, _tensor_index(0, 0)): Fraction(35, 4)}


def test_envelope_jordan_laws():
    assert jordan_envelope_check(QQ, 3, samples=6, seed=11)["pass"]
    assert jordan_envelope_check(GF(5), 4, samples=6, seed=7)["pass"]


def test_envelope_check_catches_corruption():
    tab = [list(map(list, row)) for row in _j_field_table(GF(5))]
    tab[1][1] = [(0, 1), (1, 1)]
    r = jordan_envelope_check(GF(5), 3, samples=6, seed=3, table=tab)
    assert not r["pass"]


def test_left_mult_matrix_consistent():
    for i in range(J_DIM):
        L = left_mult_matrix(basis(i))
        for j in range(J_DIM):
            want = kac_product(basis(i), basis(j)).coords
            got = [L[r][j] for r in range(J_DIM)]
            assert got == list(want), (i, j)


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
        monkeypatch.setattr(kac, "ch3",
                            lambda x: EnvelopeElement.zero(x.m, x.field))
        r = ch3_scan(GF(p))
        assert (r["verdict"], r["checked"], r["witness"]) == (verdict, 220, None)

    def test_determinism(self):
        a = ch3_scan(QQ)
        b = ch3_scan(QQ)
        assert a == b
