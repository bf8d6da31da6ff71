import hashlib
import itertools
import random
from fractions import Fraction
from importlib import resources

import pytest

from spinlab.fields import QQ, make_field
from spinlab.linalg import RowSpace
from spinlab.composition import (OCTONION_TABLE_SHA256, _int_tables,
                                 check_lemma_C, derivation_algebra,
                                 inner_derivation, lemma_c_identities,
                                 make_composition)

DIMS = {"unit": 1, "binarion": 2, "quaternion": 4, "octonion": 8}


def test_octonion_table_checksum_pinned():
    blob = resources.files("spinlab.data").joinpath(
        "octonion_table.json").read_bytes()
    assert hashlib.sha256(blob).hexdigest() == OCTONION_TABLE_SHA256


def zorn_product(x, y):
    """Independent split-octonion oracle: vector matrices (alpha, a; b, beta)
    with the standard cross-product rule."""
    ax, vx, wx, bx = x[0], x[2:5], x[5:8], x[1]
    ay, vy, wy, by = y[0], y[2:5], y[5:8], y[1]

    def dot(u, v):
        return sum(a * b for a, b in zip(u, v))

    def cross(u, v):
        return [u[1] * v[2] - u[2] * v[1],
                u[2] * v[0] - u[0] * v[2],
                u[0] * v[1] - u[1] * v[0]]

    alpha = ax * ay + dot(vx, wy)
    beta = bx * by + dot(wx, vy)
    v = [ax * c2 + by * c1 - c3 for c1, c2, c3 in zip(vx, vy, cross(wx, wy))]
    w = [ay * c1 + bx * c2 + c3 for c1, c2, c3 in zip(wx, wy, cross(vx, vy))]
    return [alpha, beta] + v + w


def test_octonion_table_matches_zorn_model():
    C = make_composition("octonion", QQ)
    for i in range(8):
        for j in range(8):
            ei = [1 if t == i else 0 for t in range(8)]
            ej = [1 if t == j else 0 for t in range(8)]
            got = C.multiply([QQ.raw(c) for c in ei], [QQ.raw(c) for c in ej])
            assert [int(c) for c in got] == zorn_product(ei, ej), (i, j)
    # and the norm: n(alpha E1 + beta E2 + a.u + b.w) = alpha beta - a.b
    rng = random.Random(13)
    for _ in range(30):
        x = [rng.randint(-4, 4) for _ in range(8)]
        want = x[0] * x[1] - sum(x[2 + i] * x[5 + i] for i in range(3))
        assert C.norm([QQ.raw(c) for c in x]) == want


@pytest.mark.parametrize("kind", list(DIMS))
@pytest.mark.parametrize("ch", [0, 5, 7])
def test_composition_axioms(kind, ch):
    f = make_field(ch)
    C = make_composition(kind, f)
    d = DIMS[kind]
    assert C.dim == d
    rng = random.Random(11)
    for j in range(d):
        ej = C.zero()
        ej[j] = f.one()
        assert C.multiply(list(C.unit), ej) == ej == C.multiply(ej, list(C.unit))
    assert C.norm(list(C.unit)) == f.one()
    for _ in range(40):
        x = [f.of_int(rng.randint(-4, 4)) for _ in range(d)]
        y = [f.of_int(rng.randint(-4, 4)) for _ in range(d)]
        assert C.norm(C.multiply(x, y)) == f.mul(C.norm(x), C.norm(y))
    for _ in range(25):
        x = [f.of_int(rng.randint(-4, 4)) for _ in range(d)]
        y = [f.of_int(rng.randint(-4, 4)) for _ in range(d)]
        sq = C.multiply(x, x)
        t = C.norm_polar(list(C.unit), x)
        nx = C.norm(x)
        want = [f.sub(f.mul(t, xi), f.mul(nx, u)) for xi, u in zip(x, C.unit)]
        assert sq == want                                   # x^2 = t(x)x - n(x)1
        assert all(f.is_zero(c) for c in C.associator(x, x, y))
        assert all(f.is_zero(c) for c in C.associator(x, y, y))
        assert all(f.is_zero(c) for c in C.associator(x, y, x))
        xb = C.conjugate(x)
        assert C.conjugate(xb) == x
        assert C.multiply(x, xb) == [f.mul(nx, u) for u in C.unit]


@pytest.mark.parametrize("ch", [0, 5])
def test_czero_anticommutation_exhaustive(ch):
    # ab + ba = -n(a,b) 1 on all trace-zero basis pairs
    f = make_field(ch)
    C = make_composition("octonion", f)
    for a, b in itertools.product(C.czero_basis(), repeat=2):
        lhs = [f.add(p, q) for p, q in zip(C.multiply(a, b), C.multiply(b, a))]
        assert lhs == [f.neg(f.mul(C.norm_polar(a, b), u)) for u in C.unit]


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
    for a, b in itertools.combinations(C.czero_basis(), 2):
        D = inner_derivation(C, a, b)
        span.insert([[x for row in D for x in row]])
    assert span.dim == 14
    for D in ders:
        assert span.contains([x for row in D for x in row])


def apply_matrix(f, D, x):
    return [f.raw(sum(f.mul(D[i][j], x[j]) for j in range(len(x))))
            for i in range(len(D))]


@pytest.mark.parametrize("ch", [0, 7])
def test_derivations_kill_unit_preserve_czero_and_are_skew(ch):
    f = make_field(ch)
    C = make_composition("octonion", f)
    one = list(C.unit)
    cz = C.czero_basis()
    for D in derivation_algebra(C):
        img1 = apply_matrix(f, D, one)
        assert all(f.is_zero(c) for c in img1)
        for x in cz:
            dx = apply_matrix(f, D, x)
            assert f.is_zero(C.norm_polar(dx, one))         # stays trace-zero
            for y in cz:
                dy = apply_matrix(f, D, y)
                s = f.add(C.norm_polar(dx, y), C.norm_polar(x, dy))
                assert f.is_zero(s)                         # n-skew


def test_inner_derivation_degeneracies():
    f = QQ
    C = make_composition("octonion", f)
    b0 = C.czero_basis()
    zero64 = [[f.zero()] * 8 for _ in range(8)]
    assert inner_derivation(C, b0[1], b0[1]) == zero64
    assert inner_derivation(C, list(C.unit), b0[3]) == zero64


@pytest.mark.parametrize("ch", [0, 5, 7])
def test_structure_identities(ch):
    rep = check_lemma_C(make_composition("octonion", make_field(ch)))
    assert rep["pass"], rep
    assert (rep["so_dim"], rep["der_dim"], rep["ad_dim"]) == (21, 14, 7)


@pytest.mark.parametrize("ch", [0, 5, 7])
def test_lemma_c_negative_control(ch):
    # u1·u2 = w3 with its sign flipped: the algebra is no longer alternative
    mult, gram = _int_tables("octonion")
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
    mult, gram = _int_tables("octonion")
    with pytest.raises(ValueError, match="8-dim"):
        lemma_c_identities(mult[:4, :4, :4], gram[:4, :4])
    with pytest.raises(ValueError, match="too large"):
        lemma_c_identities(mult * (1 << 12), gram)


def test_lemma_c_identities_refuses_floats_and_fractions():
    # mult + 0.25 was truncated, -0.75 to 0: a different table, pass False
    mult, gram = _int_tables("octonion")
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
    f = QQ
    C = make_composition("quaternion", f)
    idx = {lab: i for i, lab in enumerate(C.labels)}
    mat = {(0, 0): "E1", (1, 1): "E2", (0, 1): "u1", (1, 0): "w1"}

    def as_matrix(x):
        m = [[0, 0], [0, 0]]
        for (r, c), lab in mat.items():
            m[r][c] = x[idx[lab]]
        return m

    for la, ea in mat.items():
        for lb, eb in mat.items():
            xa, xb = C.zero(), C.zero()
            xa[idx[ea]] = f.one()
            xb[idx[eb]] = f.one()
            got = as_matrix(C.multiply(xa, xb))
            A, B = as_matrix(xa), as_matrix(xb)
            want = [[sum(A[i][k] * B[k][j] for k in range(2)) for j in range(2)]
                    for i in range(2)]
            assert got == want
    # norm is the determinant
    rng = random.Random(7)
    for _ in range(20):
        x = [f.raw(rng.randint(-4, 4)) for _ in range(4)]
        m = as_matrix(x)
        assert C.norm(x) == m[0][0] * m[1][1] - m[0][1] * m[1][0]
