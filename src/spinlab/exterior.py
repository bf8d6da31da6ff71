"""Exterior algebra on l anticommuting generators, with the pairing forms
used to identify the spin module with its dual.

Basis monomials are bitmasks over the generator set: bit i-1 set means
generator v_i is a factor, factors written in increasing index order, so
a mask is already a normal form and the algebra has dimension 2**l.

Two involutions matter here: ``bar`` is the anti-automorphism sending
each generator to its negative, ``hat`` the one fixing each generator.
On a degree-r monomial they act by (-1)^(r(r+1)/2) and (-1)^(r(r-1)/2).
Composing with the projection onto the top monomial gives the bilinear
forms b(s,t) = phi(bar(s) wedge t) and bhat(s,t) = phi(hat(s) wedge t);
a monomial pairs nontrivially only with its complementary monomial.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable

from .fields import Field, FieldMismatch, Scalar


def wedge_sign(a: int, b: int) -> int:
    """Sign of sorting the concatenation of disjoint monomials a, b; 0 on overlap."""
    if a & b:
        return 0
    inv = 0
    x = a
    while x:
        low = x & -x
        inv += (b & (low - 1)).bit_count()
        x ^= low
    return -1 if inv & 1 else 1


def bar_sign(r: int) -> int:
    return -1 if (r * (r + 1) // 2) & 1 else 1


def hat_sign(r: int) -> int:
    return -1 if (r * (r - 1) // 2) & 1 else 1


def form_sign(s: int, t: int, top: int, hat: bool = False) -> int:
    """b (or bhat) evaluated on the monomial pair (s, t): an integer in {-1,0,1}."""
    if s | t != top or s & t:
        return 0
    r = s.bit_count()
    return (hat_sign(r) if hat else bar_sign(r)) * wedge_sign(s, t)


def complement(mask: int, l: int) -> int:
    return ((1 << l) - 1) ^ mask


def b_is_symmetric(l: int) -> bool:
    """b is symmetric iff l = 0 or 3 mod 4 (skew otherwise)."""
    return l % 4 in (0, 3)


def bhat_is_symmetric(l: int) -> bool:
    """bhat is symmetric iff l = 0 or 1 mod 4 (skew otherwise)."""
    return l % 4 in (0, 1)


def monomial_label(mask: int) -> str:
    if mask == 0:
        return "1"
    return "".join(f"v{i + 1}" for i in range(mask.bit_length()) if mask >> i & 1)


class Multivector:
    """Immutable element of the exterior algebra on l generators.

    ``coeffs`` maps monomial masks to raw field values (Fraction in
    characteristic 0, residues otherwise); zero coefficients are never
    stored.
    """

    __slots__ = ("l", "field", "coeffs")

    def __init__(self, l: int, field: Field, coeffs: dict | None = None):
        if l < 1:
            raise ValueError("need at least one generator")
        top = (1 << l) - 1
        clean = {}
        if coeffs:
            for m, v in coeffs.items():
                if not 0 <= m <= top:
                    raise ValueError(f"mask {m} out of range for l={l}")
                if not field.is_zero(v):
                    clean[m] = v
        object.__setattr__(self, "l", l)
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "coeffs", clean)

    def __setattr__(self, name, value):
        raise AttributeError("Multivector is immutable")

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, l: int, field: Field) -> "Multivector":
        return cls(l, field)

    @classmethod
    def one(cls, l: int, field: Field) -> "Multivector":
        return cls(l, field, {0: field.one()})

    @classmethod
    def top(cls, l: int, field: Field) -> "Multivector":
        return cls(l, field, {(1 << l) - 1: field.one()})

    @classmethod
    def from_mask(cls, l: int, field: Field, mask: int, coeff=1) -> "Multivector":
        return cls(l, field, {mask: field.raw(coeff)})

    @classmethod
    def monomial(cls, l: int, field: Field, indices: Iterable[int]) -> "Multivector":
        """Basis monomial v_{i1}...v_{ir} for distinct 1-based indices."""
        mask = 0
        for i in indices:
            if not 1 <= i <= l:
                raise ValueError(f"index {i} out of range 1..{l}")
            bit = 1 << (i - 1)
            if mask & bit:
                raise ValueError(f"repeated index {i}")
            mask |= bit
        return cls(l, field, {mask: field.one()})

    @classmethod
    def basis(cls, l: int, field: Field):
        for mask in range(1 << l):
            yield cls(l, field, {mask: field.one()})

    # -- queries ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    def support(self) -> list:
        return sorted(self.coeffs)

    def coefficient(self, mask: int) -> Scalar:
        return Scalar(self.field, self.coeffs.get(mask, self.field.zero()))

    def parity(self):
        """0 if all terms have even degree, 1 if all odd, None if mixed or zero."""
        seen = {m.bit_count() & 1 for m in self.coeffs}
        return seen.pop() if len(seen) == 1 else None

    def _compat(self, other: "Multivector"):
        if not isinstance(other, Multivector):
            raise TypeError(f"expected Multivector, got {type(other).__name__}")
        if other.l != self.l:
            raise ValueError(f"mixed generator counts {self.l} and {other.l}")
        if other.field != self.field:
            raise FieldMismatch(f"{self.field} vs {other.field}")

    # -- linear structure -------------------------------------------------

    def __add__(self, other: "Multivector") -> "Multivector":
        self._compat(other)
        f = self.field
        out = dict(self.coeffs)
        for m, v in other.coeffs.items():
            s = f.add(out.get(m, f.zero()), v)
            if f.is_zero(s):
                out.pop(m, None)
            else:
                out[m] = s
        return Multivector(self.l, f, out)

    def __sub__(self, other: "Multivector") -> "Multivector":
        return self + (-other)

    def __neg__(self) -> "Multivector":
        f = self.field
        return Multivector(self.l, f, {m: f.neg(v) for m, v in self.coeffs.items()})

    def scale(self, c) -> "Multivector":
        f = self.field
        if isinstance(c, Scalar):
            if c.field != f:
                raise FieldMismatch(f"{f} vs {c.field}")
            raw = c.value
        else:
            raw = f.raw(c)
        if f.is_zero(raw):
            return Multivector(self.l, f)
        return Multivector(self.l, f, {m: f.mul(raw, v) for m, v in self.coeffs.items()})

    def __mul__(self, other):
        if isinstance(other, Multivector):
            return self.wedge(other)
        if isinstance(other, (int, Fraction, Scalar)):
            return self.scale(other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, Scalar)):
            return self.scale(other)
        return NotImplemented

    def __eq__(self, other):
        if not isinstance(other, Multivector):
            return NotImplemented
        return (self.l == other.l and self.field == other.field
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.l, self.field.p, tuple(sorted(self.coeffs.items()))))

    # -- multiplicative structure -----------------------------------------

    def wedge(self, other: "Multivector") -> "Multivector":
        self._compat(other)
        f = self.field
        out: dict = {}
        for ma, va in self.coeffs.items():
            for mb, vb in other.coeffs.items():
                sg = wedge_sign(ma, mb)
                if not sg:
                    continue
                m = ma | mb
                term = f.mul(va, vb)
                if sg < 0:
                    term = f.neg(term)
                s = f.add(out.get(m, f.zero()), term)
                if f.is_zero(s):
                    out.pop(m, None)
                else:
                    out[m] = s
        return Multivector(self.l, f, out)

    def bar_involution(self) -> "Multivector":
        f = self.field
        return Multivector(self.l, f, {
            m: (f.neg(v) if bar_sign(m.bit_count()) < 0 else v)
            for m, v in self.coeffs.items()})

    def hat_involution(self) -> "Multivector":
        f = self.field
        return Multivector(self.l, f, {
            m: (f.neg(v) if hat_sign(m.bit_count()) < 0 else v)
            for m, v in self.coeffs.items()})

    def phi_functional(self) -> Scalar:
        """Coefficient of the top monomial v1...vl."""
        top = (1 << self.l) - 1
        return Scalar(self.field, self.coeffs.get(top, self.field.zero()))

    def __repr__(self):
        if not self.coeffs:
            return "0"
        f = self.field
        parts = []
        for m in sorted(self.coeffs):
            c = f.to_str(self.coeffs[m])
            lbl = monomial_label(m)
            if lbl == "1":
                parts.append(c)
            elif c == "1":
                parts.append(lbl)
            elif c == "-1":
                parts.append(f"-{lbl}")
            else:
                parts.append(f"({c})*{lbl}")
        return " + ".join(parts)


# -- module-level operation aliases ---------------------------------------

def wedge(s: Multivector, t: Multivector) -> Multivector:
    return s.wedge(t)


def bar_involution(s: Multivector) -> Multivector:
    return s.bar_involution()


def hat_involution(s: Multivector) -> Multivector:
    return s.hat_involution()


def form_b(s: Multivector, t: Multivector) -> Scalar:
    """b(s,t) = phi(bar(s) wedge t)."""
    return s.bar_involution().wedge(t).phi_functional()


def form_bhat(s: Multivector, t: Multivector) -> Scalar:
    """bhat(s,t) = phi(hat(s) wedge t)."""
    return s.hat_involution().wedge(t).phi_functional()
