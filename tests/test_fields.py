import random
from fractions import Fraction

import pytest

from spinlab.clifford import SoElement, SpinOperator, trace_form
from spinlab.construct import build_superalgebra
from spinlab.exterior import Multivector, form_b, form_bhat
from spinlab.fields import Field, FieldMismatch, InvalidField, QQ, GF, make_field
from spinlab.kac import EnvelopeElement, KacElement, idempotent_f, normalized_trace

FIELDS = [QQ, GF(3), GF(5), GF(7)]


@pytest.mark.parametrize("f", FIELDS, ids=repr)
def test_field_axioms_randomized(f):
    rng = random.Random(17)

    def rand():
        if f.p:
            return f.of_int(rng.randrange(f.p))
        return f.raw(Fraction(rng.randint(-9, 9), rng.randint(1, 9)))

    for _ in range(200):
        a, b, c = rand(), rand(), rand()
        assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
        assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
        assert f.add(a, b) == f.add(b, a)
        assert f.mul(a, b) == f.mul(b, a)
        assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
        assert f.add(a, f.neg(a)) == f.zero()
        assert f.sub(a, b) == f.add(a, f.neg(b))
        if not f.is_zero(a):
            assert f.mul(a, f.inv(a)) == f.one()
            assert f.div(b, a) == f.mul(b, f.inv(a))


@pytest.mark.parametrize("f", FIELDS, ids=repr)
def test_of_int_is_ring_homomorphism(f):
    for a in range(-100, 101, 7):
        for b in range(-100, 101, 11):
            assert f.mul(f.of_int(a), f.of_int(b)) == f.of_int(a * b)
            assert f.add(f.of_int(a), f.of_int(b)) == f.of_int(a + b)


def test_raw_accepts_fractions_over_gf():
    f = GF(7)
    # -3/4 = -3 * 4^{-1} = 4 * 2 = 8 = 1 mod 7
    assert f.raw(Fraction(-3, 4)) == 1
    assert f.raw(Fraction(1, 2)) == f.inv(f.of_int(2))
    with pytest.raises(ZeroDivisionError):
        f.raw(Fraction(1, 7))


def test_invalid_fields_rejected():
    for p in (2, 4, 6, 9, 15):
        with pytest.raises(InvalidField):
            make_field(p)
    with pytest.raises(InvalidField):
        GF(0)
    assert make_field(0) is QQ


def test_primes_past_the_exact_kernels_rejected():
    # linalg.matmul_modp is exact only while (p-1)^2 < 2^53
    for p in (67108879, 1000000007):      # smallest prime above 2^26, and 10^9+7
        with pytest.raises(InvalidField, match="too large"):
            make_field(p)
    assert make_field(67108859).p == 67108859    # largest prime below 2^26


def test_field_identity_and_hashing():
    assert GF(5) == GF(5) and GF(5) != GF(7) and QQ != GF(5)
    d = {QQ: "q", GF(5): "five"}
    assert d[make_field(0)] == "q" and d[make_field(5)] == "five"


@pytest.mark.parametrize("f", FIELDS, ids=repr)
def test_to_str_round_trips_through_fraction(f):
    vals = [f.zero(), f.one(), f.of_int(-7), f.raw(Fraction(3, 4))]
    for v in vals:
        assert f.raw(Fraction(f.to_str(v))) == v


# -- every scalar the package returns is a raw field value -------------------

def scalar_values(f):
    """The six scalar-valued functions on pinned arguments over f."""
    s, t = Multivector.from_mask(3, f, 0b001), Multivector.from_mask(3, f, 0b110)
    X = SoElement.pair(3, "B", f, "v1", "f1")
    Y, Z = SoElement.pair(3, "B", f, "u", "v2"), SoElement.pair(3, "B", f, "u", "f2")
    ff = idempotent_f(f)
    return {
        "form_b": form_b(s, t),
        "form_bhat": form_bhat(s, t),
        "phi_functional":
            Multivector(3, f, {0: f.of_int(4), 7: f.of_int(-2)}).phi_functional(),
        "trace_form(X, X)": trace_form(X, X),
        "trace_form(Y, Z)": trace_form(Y, Z),
        "trace_form(X, Y)": trace_form(X, Y),
        "KacElement.trace": ff.trace(),
        "normalized_trace": normalized_trace(ff),
        "normalized_trace(basis)": normalized_trace(KacElement.basis(f, 3)),
    }


def test_scalar_valued_functions_return_fractions_over_qq():
    vals = scalar_values(QQ)
    assert all(type(v) is Fraction for v in vals.values()), vals
    assert vals == {"form_b": -1, "form_bhat": 1, "phi_functional": -2,
                    "trace_form(X, X)": 4, "trace_form(Y, Z)": 8,
                    "trace_form(X, Y)": 0, "KacElement.trace": Fraction(-1, 2),
                    "normalized_trace": Fraction(-1, 2),
                    "normalized_trace(basis)": 0}


def test_scalar_valued_functions_return_residues_over_gf5():
    vals = scalar_values(GF(5))
    assert all(type(v) is int and 0 <= v < 5 for v in vals.values()), vals
    assert vals == {"form_b": 4, "form_bhat": 1, "phi_functional": 3,
                    "trace_form(X, X)": 4, "trace_form(Y, Z)": 3,
                    "trace_form(X, Y)": 0, "KacElement.trace": 2,
                    "normalized_trace": 2, "normalized_trace(basis)": 0}


def test_mutable_objects_are_unhashable():
    f = GF(3)
    objs = [build_superalgebra(1, "B", f), SpinOperator.identity(2, f),
            SoElement.pair(2, "B", f, "v1", "f1"), KacElement.unit(f),
            EnvelopeElement.unit(2, f)]
    for obj in objs:
        with pytest.raises(TypeError):
            hash(obj)
    # the immutable multivector stays usable as a key
    assert {Multivector.one(2, f): 1}[Multivector.one(2, f)] == 1


def test_mixing_fields_raises_field_mismatch():
    q, g = QQ, GF(5)
    with pytest.raises(FieldMismatch):
        Multivector.one(2, q).wedge(Multivector.one(2, g))
    with pytest.raises(FieldMismatch):
        SoElement.pair(2, "B", q, "v1", "f1").bracket(
            SoElement.pair(2, "B", g, "v1", "f2"))
    with pytest.raises(FieldMismatch):
        KacElement.unit(q) * KacElement.unit(g)
    with pytest.raises(FieldMismatch):
        SpinOperator.identity(2, q).apply(Multivector.one(2, g))
