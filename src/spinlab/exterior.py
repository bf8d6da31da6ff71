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

from typing import Iterable

import numpy as np

from .fields import Field, FieldMismatch


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


def complement_form_signs(l: int, hat: bool = False):
    """form_sign(m, complement(m, l), top, hat) for every mask m < 2**l, as
    an int64 array: the involution's sign times the wedge sign, whose
    inversions are counted one generator of m at a time."""
    m = np.arange(1 << l, dtype=np.int64)
    t = m ^ ((1 << l) - 1)
    r = np.bitwise_count(m).astype(np.int64)
    odd = r * (r - 1) // 2 if hat else r * (r + 1) // 2
    for i in range(l):
        odd += (m >> i & 1) * np.bitwise_count(t & ((1 << i) - 1))
    return 1 - 2 * (odd & 1)


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


def wedge_terms(f: Field, u: dict, v: dict) -> dict:
    """The exterior product u ∧ v of two zero-free {mask: raw} dicts over
    f, as such a dict.  The one exterior product of the package: it serves
    Multivector.wedge and the Grassmann scalars of kac.ch3."""
    out: dict = {}
    for ma, va in u.items():
        for mb, vb in v.items():
            sg = wedge_sign(ma, mb)
            if sg:
                term = f.mul(va, vb)
                f.add_into(out, ma | mb, term if sg > 0 else f.neg(term))
    return out


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

    def support(self) -> list:
        return sorted(self.coeffs)

    def _compat(self, other: "Multivector"):
        if not isinstance(other, Multivector):
            raise TypeError(f"expected Multivector, got {type(other).__name__}")
        if other.l != self.l:
            raise ValueError(f"mixed generator counts {self.l} and {other.l}")
        if other.field != self.field:
            raise FieldMismatch(f"{self.field} vs {other.field}")

    # -- linear structure -------------------------------------------------

    def __neg__(self) -> "Multivector":
        f = self.field
        return Multivector(self.l, f, {m: f.neg(v) for m, v in self.coeffs.items()})

    def __eq__(self, other):
        if not isinstance(other, Multivector):
            return NotImplemented
        return (self.l == other.l and self.field == other.field
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.l, self.field.p, tuple(sorted(self.coeffs.items()))))

    # -- multiplicative structure -----------------------------------------

    def wedge(self, other: "Multivector") -> "Multivector":
        """self ∧ other, by wedge_terms on the coefficient dicts."""
        self._compat(other)
        return Multivector(self.l, self.field,
                           wedge_terms(self.field, self.coeffs, other.coeffs))

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

    def phi_functional(self):
        """Coefficient of the top monomial v1...vl, as a raw field value."""
        top = (1 << self.l) - 1
        return self.coeffs.get(top, self.field.zero())

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


def form_b(s: Multivector, t: Multivector):
    """b(s,t) = phi(bar(s) wedge t), as a raw field value."""
    return s.bar_involution().wedge(t).phi_functional()


def form_bhat(s: Multivector, t: Multivector):
    """bhat(s,t) = phi(hat(s) wedge t), as a raw field value."""
    return s.hat_involution().wedge(t).phi_functional()
