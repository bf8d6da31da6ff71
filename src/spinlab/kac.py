"""The tiny Kaplansky superalgebra K, the 10-dimensional Kac Jordan
superalgebra J = k1 (+) K(x)K, its inner derivations, and the degree-3
Cayley-Hamilton identity on its Grassmann envelope G(J), read off one
integer polarization array.

K has basis (e | x, y) with e^2 = e, ex = xe = x/2, ey = ye = y/2,
xy = -yx = e, and the supersymmetric form (e|e) = 1/2, (x|y) = 1.
J multiplies through

    (a(x)b)(c(x)d) = (-1)^{bc} (ac (x) bd - (3/4)(a|c)(b|d) 1),

with 1 the unit.  All structure constants are rational with powers of 2
in the denominators, so one Fraction table serves every field of odd
characteristic: _j_tensor reads it as an exact array per characteristic,
and the inner derivations of J come from that array; ch3 reads it once,
as integers over the common denominator 16, for every field at once.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .fields import Field, _require_field
from .linalg import _red, common_denominator, exact_array, pair_products, rref_modp
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
# the degree-3 identity

# the multisets {a, b, c} of basis indices, in the order of ch3's rows
_TRIPLES = tuple(itertools.combinations_with_replacement(range(J_DIM), 3))


@lru_cache(maxsize=1)
def ch3():
    """(P, scale): the super-polarization of the degree-3 Cayley-Hamilton
    polynomial of J,

        ch3(x) = x^3 - 3 t(x) x^2 + ((9/2) t(x)^2 - (3/2) t(x^2)) x
                 - (t(x^3) - (9/2) t(x^2) t(x) + (9/2) t(x)^3) 1,

    t the coefficient of 1, as a read-only (220, 10) int64 array P and an
    int scale.  Row n belongs to the n-th multiset {a, b, c} of
    _TRIPLES: for x = u_a (x) a + u_b (x) b + u_c (x) c in the Grassmann
    envelope G(J), each u a Grassmann monomial of the parity of its basis
    element on generators of its own, ch3(x) = u_a u_b u_c (x) P[n] / scale.

    Each term of ch3(x) that survives takes every u once, so ch3(x) is a
    sum over the six orderings (i, j, k) of the three places.  Each
    summand is gathered from the integer tensor N = d J (d = 16,
    linalg.common_denominator of _j_fractions) or from its products
    NN[x, y, z] = d^2 (e_x e_y) e_z, and carries one sign: the Koszul sign
    of bringing u_i u_j u_k to u_a u_b u_c, times (-1)^{|a||v|} for each
    product (u (x) a)(v (x) b) = (-1)^{|a||v|} uv (x) ab.  The trace of
    u (x) e_x is u when e_x is the unit and 0 otherwise, so a trace
    factor keeps a summand only where its places hold the unit.  The
    scale is 2 d^2.

    Bound: |N| <= d = 16, so |NN| <= 10 * 16^2 = 2560, the seven terms of
    one ordering are at most 2 * 2 * 2560 + (6 + 3 + 9) * 16 * 16
    + 2 * 9 * 16^2 = 19456 in absolute value, and every entry of P is
    less than 6 * 19456 < 2^17: no int64 step overflows.
    """
    num, d = common_denominator(_j_fractions())
    N = num.astype(np.int64)
    order = np.array(list(itertools.permutations(range(3))))
    a = [np.array(_TRIPLES)[:, order[:, s]] for s in range(3)]   # (220, 6) each
    odd = [np.array(J_PARITY)[x] for x in a]
    unit = [(x == 0).astype(np.int64) for x in a]                 # t(e_x)
    swaps = sum((order[:, s] > order[:, r]) * odd[s] * odd[r]
                for s, r in ((0, 1), (0, 2), (1, 2)))
    s1 = 1 - 2 * (swaps & 1)                                      # u_i u_j u_k
    s2 = s1 * (1 - 2 * (odd[0] * odd[1] & 1))                     # ... with e_i e_j
    s3 = s2 * (1 - 2 * ((odd[0] + odd[1]) * odd[2] & 1))          # ... with (e_i e_j) e_k
    ij = N[a[0], a[1]]
    NN = sum(N[:, :, m, None, None] * N[m] for m in range(J_DIM))
    ijk = NN[a[0], a[1], a[2]]
    tt = s1 * unit[0] * unit[1]
    vec = (2 * s3[..., None] * ijk
           - 6 * d * (s2 * unit[2])[..., None] * ij
           + (9 * d * d * tt - 3 * d * s2 * ij[..., 0])[..., None]
           * np.eye(J_DIM, dtype=np.int64)[a[2]])
    vec[..., 0] += (-2 * s3 * ijk[..., 0] + 9 * d * s2 * ij[..., 0] * unit[2]
                    - 9 * d * d * tt * unit[2])
    return _frozen(vec.sum(axis=1)), 2 * d * d


def ch3_scan(field: Field) -> dict:
    """Decide whether ch3 vanishes on G(J) by its full polarization.

    ch3 is homogeneous of degree 3 in x, so on x = u_a (x) a + u_b (x) b
    + u_c (x) c, with u_a, u_b, u_c nilpotent Grassmann monomials on
    disjoint generators, every term repeating a u drops out and

        ch3(x) = u_a u_b u_c (x) P(a, b, c),

    P being the super-polarization of ch3, the array of ch3().  Each u is
    one fresh generator for an odd basis element of J and a pair for an
    even one, so 6 generators serve all C(12, 3) = 220 multisets {a, b, c}
    of basis elements.  The monomial u_a u_b u_c is nonzero, so a nonzero
    value is a witness: the first one, with x and the value as sorted
    [mask, j, coefficient] supports.  Conversely ch3(x) = P(x, x, x) / 3!
    on all of G(J), P extended Lambda-linearly, so when 6 is invertible
    (Q and p >= 5) all 220 values vanishing proves the identity: "pass".
    For p = 3, 3! = 0 and vanishing polarizations prove nothing:
    "inconclusive".
    """
    _require_field(field)
    P, scale = ch3()
    p = field.p
    hits = np.flatnonzero((P % p if p else P).any(axis=1))
    if not len(hits):
        return {"verdict": "inconclusive" if p == 3 else "pass", "witness": None,
                "checked": len(P), "m": 6, "field": p}
    n = int(hits[0])
    x, used = [], 0
    for j in _TRIPLES[n]:
        width = 1 if J_PARITY[j] else 2
        x.append([((1 << width) - 1) << used, j, "1"])
        used += width
    row = [field.raw(Fraction(int(v), scale)) for v in P[n]]
    value = [[(1 << used) - 1, k, field.to_str(c)] for k, c in enumerate(row) if c]
    return {"verdict": "witness", "checked": n + 1,
            "witness": {"x": x, "value": value}, "m": 6, "field": p}
