"""Exact scalar arithmetic over Q and over GF(p) for odd primes p < 2^26.

A Field object carries the characteristic and the raw-value operations;
raw values are Fraction in characteristic 0 and plain ints in [0, p)
otherwise.  Every scalar the package returns is such a raw value.
"""

from __future__ import annotations

from fractions import Fraction


class InvalidField(ValueError):
    """Requested field does not exist here (char 2, composite modulus, ...)."""


class FieldMismatch(TypeError):
    """Two objects over different fields met in one operation."""


class DivideByZero(ZeroDivisionError):
    """Division or inversion of the zero scalar."""


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# linalg.matmul_modp sums blocks of k products in float64, exact while
# k*(p-1)^2 <= 2^53; below this bound k >= 2, and larger primes are refused
MAX_PRIME = 1 << 26


def _is_prime(n: int) -> bool:
    # Deterministic Miller-Rabin; the base set above is exact for n < 3.3e24.
    if n < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n == q:
            return True
        if n % q == 0:
            return False
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class Field:
    """Arithmetic context: characteristic 0 (Q) or an odd prime p (GF(p)).

    All methods operate on raw values (Fraction or int).  Fields compare
    equal iff they have the same characteristic, so the Q singleton below
    and any GF(p) constructed twice interoperate.
    """

    __slots__ = ("p",)

    def __init__(self, p: int):
        if p != 0:
            if p == 2:
                raise InvalidField("characteristic 2 is not supported")
            if not _is_prime(p):
                raise InvalidField(f"{p} is not prime")
            if p >= MAX_PRIME:
                raise InvalidField(f"{p} is too large: the exact GF(p) kernels "
                                   f"need p < 2^26")
        self.p = p

    # -- raw-value ops ------------------------------------------------

    def zero(self):
        return Fraction(0) if self.p == 0 else 0

    def one(self):
        return Fraction(1) if self.p == 0 else 1

    def of_int(self, n: int):
        return Fraction(n) if self.p == 0 else n % self.p

    def add(self, a, b):
        return a + b if self.p == 0 else (a + b) % self.p

    def sub(self, a, b):
        return a - b if self.p == 0 else (a - b) % self.p

    def neg(self, a):
        return -a if self.p == 0 else (-a) % self.p

    def mul(self, a, b):
        return a * b if self.p == 0 else (a * b) % self.p

    def inv(self, a):
        if not a:
            raise DivideByZero("inverse of zero")
        return 1 / Fraction(a) if self.p == 0 else pow(a, self.p - 2, self.p)

    def div(self, a, b):
        if not b:
            raise DivideByZero("division by zero")
        if self.p == 0:
            return Fraction(a) / b
        return a * pow(b, self.p - 2, self.p) % self.p

    def is_zero(self, a) -> bool:
        return not a

    # -- serialization ------------------------------------------------

    def to_str(self, a) -> str:
        """Canonical text form: "num/den" in char 0 ("num" when the
        denominator is 1), decimal residue mod p."""
        if self.p == 0:
            f = Fraction(a)
            if f.denominator == 1:
                return str(f.numerator)
            return f"{f.numerator}/{f.denominator}"
        return str(a % self.p)

    def from_str(self, s: str):
        s = s.strip()
        if self.p == 0:
            num, _, den = s.partition("/")
            return Fraction(int(num), int(den) if den else 1)
        v = int(s)
        if not 0 <= v < self.p:
            raise ValueError(f"residue {s} out of range for GF({self.p})")
        return v

    # -- identity -----------------------------------------------------

    def __eq__(self, other):
        return isinstance(other, Field) and other.p == self.p

    def __hash__(self):
        return hash(("Field", self.p))

    def __repr__(self):
        return "Q" if self.p == 0 else f"GF({self.p})"

    def raw(self, v):
        """Normalize an int or Fraction to a raw value of this field."""
        if self.p == 0:
            return Fraction(v)
        if isinstance(v, Fraction):
            if v.denominator % self.p == 0:
                raise DivideByZero(f"denominator of {v} vanishes in {self}")
            return v.numerator * pow(v.denominator, self.p - 2, self.p) % self.p
        return int(v) % self.p


QQ = Field(0)


def GF(p: int) -> Field:
    if p == 0:
        raise InvalidField("characteristic 0 field is QQ, not GF(0)")
    return Field(p)


def make_field(char: int) -> Field:
    """Field of the given characteristic: 0 gives Q, odd prime p gives GF(p)."""
    return QQ if char == 0 else Field(char)

