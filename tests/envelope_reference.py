"""The Grassmann envelope G(J) of the Kac superalgebra, element by
element: the reference that the tests check kac.ch3's polarization array
against.

An element is an even element of G(J) on m Grassmann generators, a
zero-free dict (mask, J index) -> raw over a Field.  Its product reads
J's structure constants from kac._j_tensor and nothing else of the
package's ch3 route; the Grassmann signs come from exterior_reference.
ch3 evaluates the degree-3 Cayley-Hamilton polynomial on one element.
"""

from fractions import Fraction
from functools import lru_cache

from exterior_reference import wedge_sign, wedge_terms
from spinlab.fields import Field, _is_int
from spinlab.kac import J_DIM, J_LABELS, J_PARITY, _j_tensor


class FieldMismatch(TypeError):
    """Two elements over different fields met in one operation."""


@lru_cache(maxsize=None)
def _j_field_table(field: Field):
    """table[i][j] = ((k, raw), ...): the nonzero e_k-coefficients of e_i e_j."""
    return tuple(tuple(tuple((k, v) for k, v in enumerate(cell) if v) for cell in row)
                 for row in _j_tensor(field.p).tolist())



class EnvelopeElement:
    """Even element of the Grassmann envelope G(J) on m generators.

    terms maps (grassmann mask, J basis index) -> raw coefficient, with
    the monomial degree matching the J parity mod 2, so the element is
    even overall and G(J) is an honest commutative Jordan algebra.  A key
    outside range(2**m) x range(10), or m not an int >= 0, is refused.
    """

    __slots__ = ("m", "field", "terms")

    def __init__(self, m: int, field: Field, terms):
        if not _is_int(m) or m < 0:
            raise ValueError(f"m must be a non-negative int, not {m!r}")
        m = int(m)
        clean = {}
        for key, c in dict(terms).items():
            g, j = key
            if not _is_int(g) or not 0 <= g < (1 << m):
                raise ValueError(f"monomial mask of key {key!r} outside "
                                 f"range({1 << m})")
            if not _is_int(j) or not 0 <= j < J_DIM:
                raise ValueError(f"J index of key {key!r} outside range({J_DIM})")
            g, j = int(g), int(j)
            if g.bit_count() & 1 != J_PARITY[j]:
                raise ValueError(
                    f"parity mismatch: mask {g:b} with generator {J_LABELS[j]}")
            c = field.raw(c)
            if c != 0:
                clean[(g, j)] = c
        self.m = m
        self.field = field
        self.terms = clean

    @classmethod
    def unit(cls, m: int, field: Field) -> "EnvelopeElement":
        return cls(m, field, {(0, 0): field.of_int(1)})

    def _like(self, terms: dict) -> "EnvelopeElement":
        """An element on the generators and field of self, terms being a
        zero-free dict of checked keys and raw values that it takes as is."""
        out = EnvelopeElement.__new__(EnvelopeElement)
        out.m, out.field, out.terms = self.m, self.field, terms
        return out

    def _compat(self, other):
        if self.m != other.m:
            raise ValueError("generator counts differ")
        if self.field != other.field:
            raise FieldMismatch(f"{self.field} vs {other.field}")

    def __add__(self, other):
        self._compat(other)
        f = self.field
        out = dict(self.terms)
        for key, c in other.terms.items():
            f.add_into(out, key, c)
        return self._like(out)

    def lam_scale(self, lam: dict) -> "EnvelopeElement":
        """Multiply by an even Grassmann scalar {mask: raw}."""
        f = self.field
        out = {}
        for gm, c in lam.items():
            if gm.bit_count() & 1:
                raise ValueError("Grassmann scalar must be even")
            for (g, j), v in self.terms.items():
                s = wedge_sign(gm, g)
                if not s:
                    continue
                w = f.mul(c, v)
                f.add_into(out, (gm | g, j), w if s > 0 else f.neg(w))
        return self._like(out)

    def __mul__(self, other):
        if not isinstance(other, EnvelopeElement):
            return NotImplemented
        self._compat(other)
        # (u (x) a)(v (x) b) = (-1)^{|a||v|} uv (x) ab
        f = self.field
        tab = _j_field_table(f)
        out = {}
        for (ga, ja), ca in self.terms.items():
            pj = J_PARITY[ja]
            for (gb, jb), cb in other.terms.items():
                ws = wedge_sign(ga, gb)
                if not ws:
                    continue
                if pj and gb.bit_count() & 1:
                    ws = -ws
                c = f.mul(ca, cb)
                c = c if ws > 0 else f.neg(c)
                for k, v in tab[ja][jb]:
                    f.add_into(out, (ga | gb, k), f.mul(c, v))
        return self._like(out)

    def lambda_trace(self) -> dict:
        """The normalized trace extended Lambda-linearly: {mask: raw}.  The
        unit 1 = J_0 is the only basis element of trace 1, so this is the
        J_0 part of the terms, each mask once and each value nonzero."""
        return {g: c for (g, j), c in self.terms.items() if j == 0}

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        if not isinstance(other, EnvelopeElement):
            return NotImplemented
        return (self.m, self.field, self.terms) == (other.m, other.field, other.terms)

    def support(self) -> list:
        """Sorted [(mask, j, coeff string), ...] for reports."""
        f = self.field
        return [[g, j, f.to_str(c)] for (g, j), c in sorted(self.terms.items())]

    def __repr__(self):
        f = self.field
        bits = []
        for (g, j), c in sorted(self.terms.items()):
            mono = "".join(f"q{i+1}" for i in range(self.m) if g >> i & 1) or "1"
            bits.append(f"{f.to_str(c)}*{mono}*{J_LABELS[j]}")
        return " + ".join(bits) if bits else "0"


def ch3(x: EnvelopeElement) -> EnvelopeElement:
    """The degree-3 Cayley-Hamilton value

        x^3 - 3 t(x) x^2 + ((9/2) t(x)^2 - (3/2) t(x^2)) x
            - (t(x^3) - (9/2) t(x^2) t(x) + (9/2) t(x)^3) 1,

    with t extended Lambda-linearly; identically zero on G(J) exactly in
    characteristic 5.  The traces are even Grassmann scalars, zero-free
    {mask: raw} dicts, multiplied by exterior_reference.wedge_terms.
    """
    f = x.field
    x2 = x * x
    x3 = x2 * x
    t1 = x.lambda_trace()
    t2 = x2.lambda_trace()
    t3 = x3.lambda_trace()
    nine_half = f.raw(Fraction(9, 2))
    three_half = f.raw(Fraction(3, 2))
    t1t1 = wedge_terms(f, t1, t1)
    t1t1t1 = wedge_terms(f, t1t1, t1)
    t2t1 = wedge_terms(f, t2, t1)

    def lam_comb(*pairs):
        acc = {}
        for coeff, lam in pairs:
            for g, c in lam.items():
                f.add_into(acc, g, f.mul(coeff, c))
        return acc

    out = x3
    out = out + x2.lam_scale(lam_comb((f.of_int(-3), t1)))
    out = out + x.lam_scale(lam_comb((nine_half, t1t1), (f.neg(three_half), t2)))
    const = lam_comb((f.of_int(-1), t3), (nine_half, t2t1),
                     (f.neg(nine_half), t1t1t1))
    out = out + EnvelopeElement.unit(x.m, f).lam_scale(const)
    return out
