"""Sign rules of the exterior algebra on l anticommuting generators, one
pair of monomials at a time: the reference that the tests check the
package's whole-array signs (exterior.complement_form_signs) against,
and the exterior product of the Grassmann scalars of
envelope_reference.

Basis monomials are bitmasks over the generator set: bit i-1 set means
generator v_i is a factor, factors written in increasing index order, so
a mask is already a normal form and the algebra has dimension 2**l.  An
element is a zero-free {mask: raw} dict, multiplied by wedge_terms.

On a degree-r monomial the involutions bar and hat act by
bar_sign(r) = (-1)^(r(r+1)/2) and hat_sign(r) = (-1)^(r(r-1)/2), and
form_sign is the form b(s,t) = phi(bar(s) wedge t), or
bhat(s,t) = phi(hat(s) wedge t), on one pair of monomials.
"""

from spinlab.fields import Field


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


def wedge_terms(f: Field, u: dict, v: dict) -> dict:
    """The exterior product u ∧ v of two zero-free {mask: raw} dicts over
    f, as such a dict: the product of the Grassmann scalars of
    envelope_reference.ch3."""
    out: dict = {}
    for ma, va in u.items():
        for mb, vb in v.items():
            sg = wedge_sign(ma, mb)
            if sg:
                term = f.mul(va, vb)
                f.add_into(out, ma | mb, term if sg > 0 else f.neg(term))
    return out
