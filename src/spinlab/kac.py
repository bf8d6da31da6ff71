"""The tiny Kaplansky superalgebra K, the 10-dimensional Kac Jordan
superalgebra J = k1 (+) K(x)K, its inner derivations, the Grassmann
envelope G(J), and the degree-3 Cayley-Hamilton check.

K has basis (e | x, y) with e^2 = e, ex = xe = x/2, ey = ye = y/2,
xy = -yx = e, and the supersymmetric form (e|e) = 1/2, (x|y) = 1.
J multiplies through

    (a(x)b)(c(x)d) = (-1)^{bc} (ac (x) bd - (3/4)(a|c)(b|d) 1),

with 1 the unit.  All structure constants are rational with powers of 2
in the denominators, so one Fraction table serves every field of odd
characteristic: _j_tensor reads it as an exact array per characteristic,
and the inner derivations of J and the product of G(J) come from that
array.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .exterior import wedge_sign, wedge_terms
from .fields import Field, FieldMismatch, _is_int
from .linalg import _red, exact_array, pair_products, rref_modp
from .superalgebra import VerificationFailed

K_LABELS = ("e", "x", "y")
K_PARITY = (0, 1, 1)
# K products and the bilinear form, as Fraction coefficient maps
_H = Fraction(1, 2)
K_TABLE = (
    ({0: Fraction(1)}, {1: _H}, {2: _H}),
    ({1: _H}, {}, {0: Fraction(1)}),
    ({2: _H}, {0: Fraction(-1)}, {}),
)
K_FORM = (
    (_H, Fraction(0), Fraction(0)),
    (Fraction(0), Fraction(0), Fraction(1)),
    (Fraction(0), Fraction(-1), Fraction(0)),
)

J_LABELS = ("1",) + tuple(f"{a}(x){b}" for a in K_LABELS for b in K_LABELS)
J_PARITY = (0,) + tuple((K_PARITY[i] + K_PARITY[j]) % 2
                        for i in range(3) for j in range(3))
J_DIM = 10
EVEN_INDICES = tuple(i for i, p in enumerate(J_PARITY) if p == 0)
ODD_INDICES = tuple(i for i, p in enumerate(J_PARITY) if p == 1)


def _tensor_index(i: int, j: int) -> int:
    """J-basis index of K_i (x) K_j."""
    return 1 + 3 * i + j


def _frozen(a: np.ndarray) -> np.ndarray:
    """Mark a cached array read-only, so that no caller can alter the cache."""
    a.flags.writeable = False
    return a


@lru_cache(maxsize=None)
def _j_tensor(p: int) -> np.ndarray:
    """mult[x, y, k], the coefficient of e_k in e_x e_y, as a read-only
    exact array over the field of characteristic p (linalg.exact_array)."""
    return _frozen(exact_array(_j_fractions(), p))


@lru_cache(maxsize=1)
def _j_fractions() -> np.ndarray:
    """The structure constants of J over Q, indexed as in _j_tensor."""
    tab = np.zeros((J_DIM,) * 3, dtype=object)
    tab[0, range(J_DIM), range(J_DIM)] = tab[range(J_DIM), 0, range(J_DIM)] = 1
    for ai, bi, ci, di in itertools.product(range(3), repeat=4):
        row, col = _tensor_index(ai, bi), _tensor_index(ci, di)
        sign = -1 if K_PARITY[bi] and K_PARITY[ci] else 1
        for k1, c1 in K_TABLE[ai][ci].items():
            for k2, c2 in K_TABLE[bi][di].items():
                tab[row, col, _tensor_index(k1, k2)] += sign * c1 * c2
        tab[row, col, 0] += sign * Fraction(-3, 4) * K_FORM[ai][ci] * K_FORM[bi][di]
    return _frozen(tab)


@lru_cache(maxsize=None)
def _j_field_table(field: Field):
    """table[i][j] = ((k, raw), ...): the nonzero e_k-coefficients of e_i e_j."""
    return tuple(tuple(tuple((k, v) for k, v in enumerate(cell) if v) for cell in row)
                 for row in _j_tensor(field.p).tolist())


def _supercommutators(X, odd, p: int) -> np.ndarray:
    """(d, d, n, n) array of [X_a, X_b] = X_a X_b - (-1)^{|a||b|} X_b X_a
    over all pairs of the stack X of n x n exact arrays over the field of
    characteristic p, odd[a] the parity of X_a."""
    prod = pair_products(X, p)
    swapped = prod.transpose(1, 0, 2, 3)
    out = np.where((odd[:, None] & odd[None, :])[:, :, None, None],
                   prod + swapped, prod - swapped)
    return _red(out, p)


@lru_cache(maxsize=None)
def _lmul_brackets(p: int) -> np.ndarray:
    """(10, 10, 9, 9) array: [L_x, L_y] on K(x)K for all basis elements x, y
    of J, over the field of characteristic p.

    The super-commutator L_x L_y - (-1)^{|x||y|} L_y L_x annihilates 1 and
    preserves K(x)K, which is checked before the first row and column are
    dropped.
    """
    L = _j_tensor(p).transpose(0, 2, 1)            # L[x][k, y] = mult[x, y, k]
    full = _supercommutators(L, np.array(J_PARITY, dtype=bool), p)
    if (full[:, :, 0, :] != 0).any() or (full[:, :, :, 0] != 0).any():
        raise VerificationFailed("inner derivation does not annihilate 1 "
                                 "and preserve K(x)K")
    return _frozen(full[:, :, 1:, 1:])


@lru_cache(maxsize=None)
def _inder_basis(p: int):
    """(basis, n_even): inder J = span [L_J0, L_J0] over the field of
    characteristic p as a read-only (10, 9, 9) array, even part first.

    Each part keeps, in order, the [L_x, L_y] (1 <= x <= y <= 9) of its
    parity that are independent of those before them: the pivot columns
    of the reduced echelon form of their transposed stack.
    """
    brackets = _lmul_brackets(p)
    parts = []
    for par in (0, 1):
        stack = np.stack([brackets[x, y].reshape(-1)
                          for x in range(1, J_DIM) for y in range(x, J_DIM)
                          if J_PARITY[x] ^ J_PARITY[y] == par])
        parts.append(stack[rref_modp(stack.T, p)[1]])
    return _frozen(np.concatenate(parts).reshape(-1, 9, 9)), len(parts[0])


# ---------------------------------------------------------------------------
# Grassmann envelope


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
            if not field.is_zero(c):
                clean[(g, j)] = c
        self.m = m
        self.field = field
        self.terms = clean

    @classmethod
    def unit(cls, m: int, field: Field) -> "EnvelopeElement":
        return cls(m, field, {(0, 0): field.one()})

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
    {mask: raw} dicts, multiplied by exterior.wedge_terms.
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
    const = lam_comb((f.neg(f.one()), t3), (nine_half, t2t1),
                     (f.neg(nine_half), t1t1t1))
    out = out + EnvelopeElement.unit(x.m, f).lam_scale(const)
    return out


# ---------------------------------------------------------------------------
# the degree-3 identity


def ch3_scan(field: Field) -> dict:
    """Decide whether ch3 vanishes on G(J) by its full polarization.

    ch3 is homogeneous of degree 3 in x, so on x = u_a (x) a + u_b (x) b
    + u_c (x) c, with u_a, u_b, u_c nilpotent Grassmann monomials on
    disjoint generators, every term repeating a u drops out and

        ch3(x) = +-u_a u_b u_c (x) P(a, b, c),

    P being the super-polarization of ch3.  Each u is one fresh
    generator for an odd basis element of J and a pair for an even one,
    so 6 generators serve all C(12, 3) = 220 multisets {a, b, c} of basis
    elements.  The monomial u_a u_b u_c is nonzero, so a nonzero value
    is a witness.  Conversely ch3(x) = P(x, x, x) / 3! on all of G(J),
    P extended Lambda-linearly, so when 6 is invertible (Q and p >= 5)
    all 220 values vanishing proves the identity: "pass".  For p = 3,
    3! = 0 and vanishing polarizations prove nothing: "inconclusive".
    """
    f, m = field, 6
    checked = 0
    for triple in itertools.combinations_with_replacement(range(J_DIM), 3):
        terms, gen = {}, 0
        for j in triple:
            width = 1 if J_PARITY[j] else 2
            terms[((1 << width) - 1) << gen, j] = f.one()
            gen += width
        x = EnvelopeElement(m, f, terms)
        v = ch3(x)
        checked += 1
        if not v.is_zero():
            return {"verdict": "witness", "checked": checked,
                    "witness": {"x": x.support(), "value": v.support()},
                    "m": m, "field": f.p}
    return {"verdict": "inconclusive" if f.p == 3 else "pass", "witness": None,
            "checked": checked, "m": m, "field": f.p}
