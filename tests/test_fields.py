import random
from fractions import Fraction

import pytest

from spinlab.fields import Field, InvalidField, QQ, GF, make_field

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
