"""Sign rules of the exterior algebra on l anticommuting generators, and
of the pairing forms used to identify the spin module with its dual.

Basis monomials are bitmasks over the generator set: bit i-1 set means
generator v_i is a factor, factors written in increasing index order, so
a mask is already a normal form and the algebra has dimension 2**l.  An
element is a zero-free {mask: raw} dict, multiplied by wedge_terms.

Two involutions matter here: ``bar`` is the anti-automorphism sending
each generator to its negative, ``hat`` the one fixing each generator.
On a degree-r monomial they act by bar_sign(r) = (-1)^(r(r+1)/2) and
hat_sign(r) = (-1)^(r(r-1)/2).  Composing with the projection phi onto
the top monomial gives the bilinear forms b(s,t) = phi(bar(s) wedge t)
and bhat(s,t) = phi(hat(s) wedge t); a monomial pairs nontrivially only
with its complementary monomial.  form_sign is either form on one pair
of monomials, and complement_form_signs its value on every monomial and
its complement, the array the builders read.
"""

from __future__ import annotations

import numpy as np

from .fields import Field


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
    """form_sign(m, m ^ top, top, hat) for every mask m < 2**l = top + 1, as
    an int64 array: the involution's sign times the wedge sign, whose
    inversions are counted one generator of m at a time."""
    m = np.arange(1 << l, dtype=np.int64)
    t = m ^ ((1 << l) - 1)
    r = np.bitwise_count(m).astype(np.int64)
    odd = r * (r - 1) // 2 if hat else r * (r + 1) // 2
    for i in range(l):
        odd += (m >> i & 1) * np.bitwise_count(t & ((1 << i) - 1))
    return 1 - 2 * (odd & 1)


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
    the Grassmann scalars of kac.ch3."""
    out: dict = {}
    for ma, va in u.items():
        for mb, vb in v.items():
            sg = wedge_sign(ma, mb)
            if sg:
                term = f.mul(va, vb)
                f.add_into(out, ma | mb, term if sg > 0 else f.neg(term))
    return out
