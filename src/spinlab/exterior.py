"""Sign rules of the pairing forms used to identify the spin module, the
exterior algebra on l anticommuting generators, with its dual.

Basis monomials are bitmasks over the generator set: bit i-1 set means
generator v_i is a factor, factors written in increasing index order, so
a mask is already a normal form and the algebra has dimension 2**l.

Two involutions matter here: ``bar`` is the anti-automorphism sending
each generator to its negative, ``hat`` the one fixing each generator.
On a degree-r monomial they act by the signs (-1)^(r(r+1)/2) and
(-1)^(r(r-1)/2).  Composing with the projection phi onto the top
monomial gives the bilinear forms b(s,t) = phi(bar(s) wedge t) and
bhat(s,t) = phi(hat(s) wedge t); a monomial pairs nontrivially only with
its complementary monomial.  complement_form_signs is either form on
every monomial and its complement, the array the builders read; the
tests check it against the forms evaluated one monomial pair at a time.
"""

from __future__ import annotations

import numpy as np


def complement_form_signs(l: int, hat: bool = False):
    """b (or bhat, for hat) on each monomial m < 2**l and its complement
    m ^ (2**l - 1), as an int64 array of signs: the involution's sign times
    the sign of sorting m wedge its complement, whose inversions are
    counted one generator of m at a time."""
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

