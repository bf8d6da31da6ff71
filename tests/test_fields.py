import random
import re
from fractions import Fraction

import numpy as np
import pytest

from envelope_reference import EnvelopeElement, FieldMismatch
from spinlab import tits
from spinlab.construct import build_superalgebra, classify, decompose_type_d_l2
from spinlab.fields import Field, InvalidField, QQ, GF, make_field
from spinlab.kac import ch3_scan
from spinlab.superalgebra import equivariant_map_dim, j_triple

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
        if a != 0:            # raw of 1/a is the inverse
            assert f.mul(a, f.raw(1 / Fraction(a))) == f.of_int(1)


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
    assert f.raw(Fraction(1, 2)) == 4 and f.mul(4, f.of_int(2)) == f.of_int(1)
    with pytest.raises(ZeroDivisionError):
        f.raw(Fraction(1, 7))


@pytest.mark.parametrize("f", [QQ, GF(5)], ids=repr)
def test_add_into_keeps_the_dict_zero_free(f):
    # the one add-and-drop-zero step of every dictionary route
    two, three = f.of_int(2), f.of_int(3)
    acc = {"a": two, "b": three}
    f.add_into(acc, "a", f.neg(two))            # a sum that vanishes
    assert acc == {"b": three}
    f.add_into(acc, "c", f.zero())              # zero into an absent key
    assert acc == {"b": three}
    f.add_into(acc, "b", f.of_int(1))               # a nonzero sum is stored
    f.add_into(acc, "d", f.raw(Fraction(1, 2)))
    assert acc == {"b": f.of_int(4), "d": f.raw(Fraction(1, 2))}
    f.add_into(acc, "b", f.of_int(1))               # 5 vanishes only in GF(5)
    assert acc == ({"b": f.of_int(5), "d": f.raw(Fraction(1, 2))} if f.p == 0
                   else {"d": 3})


@pytest.mark.parametrize("f", [QQ, GF(5)], ids=repr)
def test_raw_refuses_inexact_values(f):
    # GF(5).raw(0.5) was 0, and QQ.raw(0.1) 3602879701896397/36028797018963968
    for v in (0.5, 0.1, 1j, np.float32(2), np.float64(1.0), np.complex128(1)):
        with pytest.raises(TypeError, match="inexact value"):
            f.raw(v)
    assert f.raw(np.int64(7)) == f.of_int(7)


def test_invalid_fields_rejected():
    for p in (2, 4, 6, 9, 15):
        with pytest.raises(InvalidField):
            make_field(p)
    with pytest.raises(InvalidField):
        GF(0)
    assert make_field(0) is QQ


@pytest.mark.parametrize("char", [5.0, 7.5, 0.0, Fraction(5), Fraction(0), True,
                                  False, "5", "0"], ids=repr)
@pytest.mark.parametrize("make", [Field, GF, make_field],
                         ids=lambda f: f.__name__)
def test_a_characteristic_that_is_not_an_integer_is_refused(make, char):
    # make_field(5.0) was GF(5.0), whose raw(7) was the float 2.0, and
    # make_field(0.0) or make_field(False) was Q
    with pytest.raises(InvalidField) as caught:
        make(char)
    assert str(caught.value) == f"a characteristic is an integer, not {char!r}"


def test_a_numpy_integer_characteristic_is_stored_as_an_int():
    for make in (Field, GF, make_field):
        f = make(np.int64(5))
        assert type(f.p) is int and f == GF(5) and type(f.raw(7)) is int
    assert make_field(np.int32(0)) is QQ


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
    vals = [f.zero(), f.of_int(1), f.of_int(-7), f.raw(Fraction(3, 4))]
    for v in vals:
        assert f.raw(Fraction(f.to_str(v))) == v


# -- every scalar the package returns is a raw field value -------------------

def scalar_values(f):
    """The scalar-valued functions on pinned arguments over f: coefficients
    of SuperAlgebra.bracket_terms and of j_triple on B3, whose Jacobi
    identity fails at (21, 22, 27) over Q and GF(5)."""
    A = build_superalgebra(3, "B", f)
    return {"bracket_terms(21, 22)": A.bracket_terms(21, 22)[20],
            "bracket_terms(0, 1)": A.bracket_terms(0, 1)[6],
            "j_triple(21, 22, 27)": j_triple(A, 21, 22, 27)[21]}


def test_scalar_valued_functions_return_fractions_over_qq():
    vals = scalar_values(QQ)
    assert all(type(v) is Fraction for v in vals.values()), vals
    assert vals == {"bracket_terms(21, 22)": Fraction(1, 2),
                    "bracket_terms(0, 1)": 4, "j_triple(21, 22, 27)": Fraction(-3, 4)}


def test_scalar_valued_functions_return_residues_over_gf5():
    vals = scalar_values(GF(5))
    assert all(type(v) is int and 0 <= v < 5 for v in vals.values()), vals
    assert vals == {"bracket_terms(21, 22)": 3, "bracket_terms(0, 1)": 4,
                    "j_triple(21, 22, 27)": 3}


def test_mutable_objects_are_unhashable():
    f = GF(3)
    with pytest.raises(TypeError):
        hash(build_superalgebra(1, "B", f))


def test_mixing_fields_raises_field_mismatch():
    # in the reference envelope of the Kac superalgebra (envelope_reference)
    q, g = QQ, GF(5)
    with pytest.raises(FieldMismatch):
        EnvelopeElement.unit(2, q) * EnvelopeElement.unit(2, g)


# every public entry point that reads a field, with the other arguments valid
FIELD_READERS = {
    "ch3_scan": ch3_scan,
    "build_superalgebra": lambda f: build_superalgebra(3, "B", f),
    "classify": lambda f: classify(3, "B", f),
    "decompose_type_d_l2": decompose_type_d_l2,
    "build_tits": lambda f: tits.build_tits("octonion", f),
    "tits_model": lambda f: tits.tits_model("octonion", f),
    "unit_ideal_split": tits.unit_ideal_split,
    "build_so_MQ": tits.build_so_MQ,
    "phi0": tits.phi0,
    "spin_map_psi": tits.spin_map_psi,
    "phi1_intertwine": tits.phi1_intertwine,
    "cross_identify_with_typeB": tits.cross_identify_with_typeB,
    "equivariant_map_dim": lambda f: equivariant_map_dim(
        np.zeros((1, 2, 2), dtype=np.int64), np.zeros((1, 1, 1), dtype=np.int64), f),
}


@pytest.mark.parametrize("bad", [5, None, "5", [5]], ids=repr)
@pytest.mark.parametrize("name", list(FIELD_READERS))
def test_a_non_field_is_refused_by_name(name, bad):
    # these used to fail deep inside with AttributeError: ... no attribute
    # 'p', and the cached ones on a list with "unhashable type: 'list'"
    with pytest.raises(TypeError, match=re.escape(f"field must be a Field, not {bad!r}")):
        FIELD_READERS[name](bad)


@pytest.mark.parametrize("call", [tits.build_tits, tits.tits_model],
                         ids=["build_tits", "tits_model"])
def test_an_unknown_composition_kind_is_refused_by_name(call):
    # build_tits("sedenion", GF(5)) used to raise a bare KeyError
    with pytest.raises(ValueError, match="unknown composition kind 'sedenion'"):
        call("sedenion", GF(5))


@pytest.mark.parametrize("call", [tits.build_tits, tits.tits_model],
                         ids=["build_tits", "tits_model"])
def test_a_listed_composition_kind_is_refused_by_name(call):
    # the cache was looked up first: "unhashable type: 'list'"
    with pytest.raises(ValueError, match=re.escape("unknown composition kind ['octonion']")):
        call(["octonion"], GF(5))
    # checked arguments still reach the cache
    assert call("unit", GF(5)) is call("unit", GF(5))
