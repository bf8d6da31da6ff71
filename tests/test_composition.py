import hashlib
import itertools
import random
from fractions import Fraction
from importlib import resources

import numpy as np
import pytest

from spinlab import composition
from spinlab.fields import QQ, make_field
from spinlab.linalg import RowSpace, _red
from spinlab.superalgebra import VerificationFailed
from spinlab.composition import (OCTONION_TABLE_SHA256, CompositionAlgebra,
                                 _czero_maps, _int_tables, ad_matrix,
                                 check_lemma_C, derivation_algebra,
                                 inner_derivation, lemma_c_identities,
                                 make_composition)

from zorn_reference import (LABELS, UNIT, zorn_commutator, zorn_inner_derivation,
                            zorn_norm, zorn_polar, zorn_product)

DIMS = {"unit": 1, "binarion": 2, "quaternion": 4, "octonion": 8}


def unit_vector(i, n=8):
    return [int(t == i) for t in range(n)]


# the C0 basis (E1 - E2, u1..u3, w1..w3) of the paired coordinates
CZERO = [[1, -1] + [0] * 6] + [unit_vector(i) for i in range(2, 8)]


class Tables:
    """The integer tables of a kind read as Python ints, with the product,
    2n and the trace of integer vectors; same() compares mod p."""

    def __init__(self, kind, p):
        t = _int_tables(kind)
        self.mult, self.gram = t.mult.astype(object), t.gram.astype(object)
        self.unit, self.p = t.unit.astype(object), p

    def mul(self, x, y):
        return np.einsum("i,j,ijk->k", np.asarray(x, dtype=object),
                         np.asarray(y, dtype=object), self.mult)

    def q(self, x, y=None):            # the polar norm, q(x, x) = 2 n(x)
        return np.asarray(x, dtype=object) @ self.gram @ np.asarray(
            x if y is None else y, dtype=object)

    def trace(self, x):
        return self.q(self.unit, x)

    def same(self, x, y):
        return not np.any(_red(np.asarray(x, dtype=object)
                               - np.asarray(y, dtype=object), self.p))


def test_octonion_table_checksum_pinned():
    blob = resources.files("spinlab.data").joinpath(
        "octonion_table.json").read_bytes()
    assert hashlib.sha256(blob).hexdigest() == OCTONION_TABLE_SHA256


def test_octonion_table_matches_zorn_model():
    # the product tensor, the polar norm and the unit against Zorn's vector
    # matrices, entry for entry under the identity map of coordinates
    t = _int_tables("octonion")
    assert t.labels == LABELS and tuple(t.unit.tolist()) == UNIT
    for i, j in itertools.product(range(8), repeat=2):
        ei, ej = unit_vector(i), unit_vector(j)
        assert t.mult[i, j].tolist() == zorn_product(ei, ej), (i, j)
        assert t.gram[i, j] == zorn_polar(ei, ej), (i, j)
        assert zorn_product(list(UNIT), ei) == ei == zorn_product(ei, list(UNIT))
    # and the norm: n(alpha E1 + beta E2 + a.u + b.w) = alpha beta - a.b
    rng = random.Random(13)
    for _ in range(30):
        x = [rng.randint(-4, 4) for _ in range(8)]
        assert x @ t.gram @ x == 2 * zorn_norm(x)
    with pytest.raises(ValueError):      # the tables are read-only
        t.mult[0, 0, 0] = 0


@pytest.mark.parametrize("kind", list(DIMS))
@pytest.mark.parametrize("ch", [0, 5, 7])
def test_composition_axioms(kind, ch):
    # identities of a composition algebra on the integer tables, mod p
    f = make_field(ch)
    C = make_composition(kind, f)
    T = Tables(kind, ch)
    d = DIMS[kind]
    assert C.dim == d == len(T.unit) and C.labels == _int_tables(kind).labels
    assert C.unit == tuple(f.of_int(u) for u in T.unit)
    eye = np.eye(d, dtype=object)
    assert T.same(np.einsum("i,ijk->jk", T.unit, T.mult), eye)
    assert T.same(np.einsum("j,ijk->ik", T.unit, T.mult), eye)
    assert T.same(T.q(T.unit), 2)                          # n(1) = 1
    rng = random.Random(11)
    for _ in range(40):
        x = [rng.randint(-4, 4) for _ in range(d)]
        y = [rng.randint(-4, 4) for _ in range(d)]
        assert T.same(2 * T.q(T.mul(x, y)), T.q(x) * T.q(y))   # n(xy) = n(x)n(y)
    for _ in range(25):
        x = [rng.randint(-4, 4) for _ in range(d)]
        y = [rng.randint(-4, 4) for _ in range(d)]
        # 2x^2 = 2t(x)x - 2n(x)1
        assert T.same(2 * T.mul(x, x), 2 * T.trace(x) * np.array(x) - T.q(x) * T.unit)
        for u, v, w in ((x, x, y), (x, y, y), (x, y, x)):      # alternative
            assert T.same(T.mul(T.mul(u, v), w), T.mul(u, T.mul(v, w)))
        xb = T.trace(x) * T.unit - np.array(x, dtype=object)   # conjugate
        assert T.same(T.trace(xb) * T.unit - xb, x)
        assert T.same(2 * T.mul(x, xb), T.q(x) * T.unit)


@pytest.mark.parametrize("ch", [0, 5])
def test_czero_anticommutation_exhaustive(ch):
    # ab + ba = -n(a,b) 1 on all trace-zero basis pairs; _czero_maps holds
    # the same basis
    T = Tables("octonion", ch)
    assert _czero_maps(8)[1].tolist() == CZERO
    for a, b in itertools.product(CZERO, repeat=2):
        assert T.same(T.mul(a, b) + T.mul(b, a), -T.q(a, b) * T.unit)
        assert T.same(T.trace(a), 0)


@pytest.mark.parametrize("ch", [0, 5])
def test_derivation_algebra_dims_and_span(ch):
    f = make_field(ch)
    assert len(derivation_algebra(make_composition("unit", f))) == 0
    assert len(derivation_algebra(make_composition("binarion", f))) == 0
    assert len(derivation_algebra(make_composition("quaternion", f))) == 3
    C = make_composition("octonion", f)
    ders = derivation_algebra(C)
    assert len(ders) == 14
    span = RowSpace(f, 64)
    for a, b in itertools.combinations(CZERO, 2):
        D = inner_derivation(C, [f.of_int(v) for v in a], [f.of_int(v) for v in b])
        span.insert([[x for row in D for x in row]])
    assert span.dim == 14
    for D in ders:
        assert span.contains([x for row in D for x in row])


@pytest.mark.parametrize("ch", [0, 7])
def test_derivations_kill_unit_preserve_czero_and_are_skew(ch):
    # D(1) = 0, t(D(x)) = 0 on C0 and n(Dx, y) + n(x, Dy) = 0 on C
    T = Tables("octonion", ch)
    for D in derivation_algebra(make_composition("octonion", make_field(ch))):
        D = np.array(D, dtype=object)
        assert T.same(D @ T.unit, 0)
        for x in CZERO:
            assert T.same(T.trace(D @ np.array(x)), 0)
        assert T.same(D.T @ T.gram + T.gram @ D, 0)


def test_inner_derivation_degeneracies():
    f = QQ
    C = make_composition("octonion", f)
    b0 = [[f.of_int(v) for v in row] for row in CZERO]
    zero64 = [[f.zero()] * 8 for _ in range(8)]
    assert inner_derivation(C, b0[1], b0[1]) == zero64
    assert inner_derivation(C, list(C.unit), b0[3]) == zero64


@pytest.mark.parametrize("ch", [0, 5, 7])
def test_inner_derivation_and_ad_matrix_match_zorn(ch):
    # on all pairs of the C0 basis, as raw values: Fractions over Q,
    # residues in [0, p) over GF(p)
    f = make_field(ch)
    C = make_composition("octonion", f)

    def raw(M):
        return [[f.raw(v) for v in row] for row in M]

    def is_raw(M):
        return all(type(v) is Fraction if not ch else type(v) is int and 0 <= v < ch
                   for row in M for v in row)

    for a in CZERO:
        ad = [list(row) for row in zip(*(zorn_commutator(a, unit_vector(j))
                                         for j in range(8)))]
        got = ad_matrix(C, a)
        assert got == raw(ad) and is_raw(got), a
        for b in CZERO:
            got = inner_derivation(C, a, b)
            assert got == raw(zorn_inner_derivation(a, b)) and is_raw(got), (a, b)


MALFORMED = {
    "non-Field field": (lambda: make_composition("octonion", 5), TypeError,
                        "field must be a Field, not 5"),
    "unknown kind": (lambda: make_composition("sedenion", QQ), ValueError,
                     "unknown composition kind"),
    "short a": (lambda: inner_derivation(make_composition("octonion", make_field(5)),
                                         [1] * 7, unit_vector(2)),
                ValueError, "a must be a vector of length 8"),
    "short b": (lambda: inner_derivation(make_composition("octonion", QQ),
                                         unit_vector(2), [1] * 7),
                ValueError, "b must be a vector of length 8"),
    "float in a": (lambda: ad_matrix(make_composition("octonion", QQ),
                                     [0.5] + [0] * 7), TypeError, "a: exact"),
    "float in b": (lambda: inner_derivation(make_composition("octonion", make_field(7)),
                                            unit_vector(2), [0.5] + [0] * 7),
                   TypeError, "b: exact"),
    "long a": (lambda: ad_matrix(make_composition("octonion", QQ), [1] * 9),
               ValueError, "a must be a vector of length 8"),
    "matrix a": (lambda: ad_matrix(make_composition("quaternion", QQ),
                                   [[1] * 4]), ValueError, "of length 4"),
    "bool a": (lambda: ad_matrix(make_composition("octonion", QQ), [True] * 8),
               TypeError, "a: a bool is not a coordinate"),
    "one bool in a": (lambda: ad_matrix(make_composition("octonion", make_field(5)),
                                        [True] + [0] * 7),
                      TypeError, "a: a bool is not a coordinate"),
    "numpy bool in b": (lambda: inner_derivation(make_composition("octonion", QQ),
                                                 unit_vector(2), np.ones(8, dtype=bool)),
                        TypeError, "b: a bool is not a coordinate"),
    "no algebra to derive": (lambda: derivation_algebra(None), TypeError,
                             "C must be a CompositionAlgebra, not None"),
    "no algebra for lemma C": (lambda: check_lemma_C("octonion"), TypeError,
                               "C must be a CompositionAlgebra, not 'octonion'"),
    "no algebra for ad": (lambda: ad_matrix(QQ, [1] * 8), TypeError,
                          "C must be a CompositionAlgebra"),
    "no algebra for D": (lambda: inner_derivation(8, [1] * 8, [1] * 8), TypeError,
                         "C must be a CompositionAlgebra, not 8"),
}


@pytest.mark.parametrize("case", list(MALFORMED))
def test_malformed_arguments_are_refused(case):
    call, error, words = MALFORMED[case]
    with pytest.raises(error, match=words):
        call()


def test_the_handle_holds_no_structure():
    # the structure of C lives in _int_tables alone, and the handle reads
    # its dimension, labels and unit off it
    assert CompositionAlgebra.__slots__ == ("kind", "field", "dim", "labels", "unit")
    C = make_composition("quaternion", make_field(5))
    assert (C.kind, C.dim, C.labels, C.unit) == ("quaternion", 4,
                                                  ("E1", "E2", "u1", "w1"), (1, 1, 0, 0))
    D = CompositionAlgebra("quaternion", make_field(5))
    assert [getattr(D, a) for a in D.__slots__] == [getattr(C, a) for a in C.__slots__]
    with pytest.raises(TypeError, match="field must be a Field"):
        CompositionAlgebra("unit", 0)


def test_a_product_leaving_the_selection_is_refused(monkeypatch):
    # u1 u2 = w3 leaves (E1, E2, u1, u2)
    monkeypatch.setitem(composition._SUBSEL, "quaternion", (0, 1, 2, 3))
    with pytest.raises(VerificationFailed, match="leaves the selection"):
        _int_tables.__wrapped__("quaternion")


@pytest.mark.parametrize("ch", [0, 5, 7])
def test_structure_identities(ch):
    rep = check_lemma_C(make_composition("octonion", make_field(ch)))
    assert rep["pass"], rep
    assert (rep["so_dim"], rep["der_dim"], rep["ad_dim"]) == (21, 14, 7)


@pytest.mark.parametrize("ch", [0, 5, 7])
def test_lemma_c_negative_control(ch):
    # u1·u2 = w3 with its sign flipped: the algebra is no longer alternative
    mult, gram = _int_tables("octonion")[:2]
    assert lemma_c_identities(mult, gram, ch) == check_lemma_C(
        make_composition("octonion", make_field(ch)))
    assert mult[2, 3, 7] == 1
    flipped = mult.copy()
    flipped[2, 3, 7] = -1
    rep = lemma_c_identities(flipped, gram, ch)
    assert rep["pass"] is False
    assert rep["bracket_identity"] is False and rep["sigma_identity"] is False
    assert rep["decomposition"] is False and rep["der_dim"] != 14


def test_lemma_c_identities_refuses_bad_input():
    mult, gram = _int_tables("octonion")[:2]
    with pytest.raises(ValueError, match="8-dim"):
        lemma_c_identities(mult[:4, :4, :4], gram[:4, :4])
    with pytest.raises(ValueError, match="too large"):
        lemma_c_identities(mult * (1 << 12), gram)


def test_lemma_c_identities_refuses_floats_and_fractions():
    # mult + 0.25 was truncated, -0.75 to 0: a different table, pass False
    mult, gram = _int_tables("octonion")[:2]
    with pytest.raises(TypeError, match="inexact value"):
        lemma_c_identities(mult + 0.25, gram)
    with pytest.raises(TypeError, match="inexact value"):
        lemma_c_identities(mult, gram.astype(float), 5)
    with pytest.raises(ValueError, match="integers"):
        lemma_c_identities(mult + Fraction(1, 2), gram)
    assert lemma_c_identities(mult.tolist(), gram.tolist())["pass"]


def test_lemma_rejects_non_octonion():
    with pytest.raises(ValueError):
        check_lemma_C(make_composition("quaternion", QQ))


def test_quaternion_submodel_is_mat2():
    # E1, E2, u1, w1 are the matrix units E11, E22, E12, E21
    t = _int_tables("quaternion")
    idx = {lab: i for i, lab in enumerate(t.labels)}
    mat = {(0, 0): "E1", (1, 1): "E2", (0, 1): "u1", (1, 0): "w1"}

    def as_matrix(x):
        m = [[0, 0], [0, 0]]
        for (r, c), lab in mat.items():
            m[r][c] = x[idx[lab]]
        return np.array(m, dtype=object)

    for ea, eb in itertools.product(mat.values(), repeat=2):
        xa, xb = unit_vector(idx[ea], 4), unit_vector(idx[eb], 4)
        got = np.einsum("i,j,ijk->k", xa, xb, t.mult)
        assert (as_matrix(got) == as_matrix(xa) @ as_matrix(xb)).all(), (ea, eb)
    # the norm is the determinant
    rng = random.Random(7)
    for _ in range(20):
        x = [rng.randint(-4, 4) for _ in range(4)]
        m = as_matrix(x)
        assert x @ t.gram @ x == 2 * (m[0][0] * m[1][1] - m[0][1] * m[1][0])
