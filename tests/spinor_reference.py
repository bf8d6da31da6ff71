"""An independent model of g = so(V) + S, the paper's algebras, built from
Clifford gamma matrices (Brauer and Weyl, "Spinors in n dimensions",
Amer. J. Math. 57, 1935; Chevalley, The Algebraic Theory of Spinors, 1954).

It shares no table code with spinlab: no bitmask sign rule, no pairing
form, no pair basis.  The gammas are Jordan-Wigner strings of the 2 x 2
matrices X, XZ and Z, one factor per bit of the index of a basis vector
of S = (Q^2)^l, each stored as a signed permutation: M e_j = sign[j] e_perm[j],
so a product costs O(2^l).  Kind B adds Z^l and acts on all of S; kind D
keeps the even-parity half.  The even basis is sigma_ab = g_a g_b for
a < b; the invariant form on S is s^T C t for C the product of the
symmetric gammas; the odd bracket is

    [s, t] = c * sum_k B(sigma_k s, t) sigma_k^-1 / 2^l,

sigma_k^-1 being dual to sigma_k under the trace form on S.  Every
product and relation is computed from the matrices and checked there.
"""

from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from spinlab.fields import Field
from spinlab.superalgebra import SuperAlgebra

I2 = (np.array([0, 1]), np.array([1, 1]))
X = (np.array([1, 0]), np.array([1, 1]))
Z = (np.array([0, 1]), np.array([1, -1]))


def mul(a, b):
    """The product a @ b of two signed permutations (or stacks of them)."""
    pa, sa = a
    pb, sb = b
    return (np.take_along_axis(pa, pb, -1),
            np.take_along_axis(sa, pb, -1) * sb)


def transpose(a):
    """The transpose of a signed permutation, which is its inverse."""
    p, s = a
    pt, st = np.empty_like(p), np.empty_like(s)
    pt[p], st[p] = np.arange(p.size), s
    return pt, st


def equal(a, b, sign=1) -> bool:
    """Whether a = sign * b."""
    return np.array_equal(a[0], b[0]) and np.array_equal(a[1], sign * b[1])


def string(factors):
    """The Kronecker product of 2 x 2 signed permutations, factors[i]
    acting on bit i of the basis index."""
    perm, sign = np.zeros(1, dtype=np.int64), np.ones(1, dtype=np.int64)
    for p, s in reversed(factors):          # most significant bit first
        perm = (perm[:, None] * 2 + p).ravel()
        sign = (sign[:, None] * s).ravel()
    return perm, sign


class Model(NamedTuple):
    l: int
    kind: str
    gammas: list       # signed permutations of S
    sigma: tuple       # (perm, sign) stacks of sigma_ab, a < b, in order
    inverse_sign: np.ndarray    # sigma_k^-1 = inverse_sign[k] * sigma_k
    C: tuple           # the form matrix, a signed permutation
    symmetric: bool    # C^T = C (else C^T = -C)
    masks: np.ndarray  # the basis of the module, in increasing order


@lru_cache(maxsize=None)
def model(l: int, kind: str) -> Model:
    """The gammas of kind B (2l + 1 of them) or D (2l) on S, checked to
    square to +-1 and to anticommute, the sigma basis, and C, checked to
    be symmetric or skew and invariant: g^T C = e C g for one e = +-1 and
    every gamma g, so sigma^T C = -C sigma for every sigma."""
    XZ = mul(X, Z)
    gammas = []
    for i in range(l):
        for op in (X, XZ):
            gammas.append(string([Z] * i + [op] + [I2] * (l - i - 1)))
    if kind == "B":
        gammas.append(string([Z] * l))
    one = string([I2] * l)
    squares = []
    for a, ga in enumerate(gammas):
        sq = mul(ga, ga)
        squares.append(1 if equal(sq, one) else -1)
        if not equal(sq, one, squares[-1]):
            raise ArithmeticError(f"gamma {a} does not square to +-1")
        for gb in gammas[:a]:
            if not equal(mul(ga, gb), mul(gb, ga), -1):
                raise ArithmeticError("two gammas commute")
    pairs = [(a, b) for a in range(len(gammas)) for b in range(a + 1, len(gammas))]
    sigma = [mul(gammas[a], gammas[b]) for a, b in pairs]
    inverse_sign = np.array([-squares[a] * squares[b] for a, b in pairs])
    sym = [g for g in gammas if equal(transpose(g), g)]
    C = one
    for g in sym:
        C = mul(C, g)
    CT = transpose(C)
    symmetric = equal(CT, C)
    if not symmetric and not equal(CT, C, -1):
        raise ArithmeticError("C is neither symmetric nor skew")
    signs = {1 if equal(mul(transpose(g), C), mul(C, g)) else
             -1 if equal(mul(transpose(g), C), mul(C, g), -1) else 0
             for g in gammas}
    if len(signs) != 1 or 0 in signs:
        raise ArithmeticError("C is not invariant: g^T C = +-C g fails")
    masks = np.arange(1 << l)
    if kind == "D":
        masks = masks[np.bitwise_count(masks) % 2 == 0]
    stack = tuple(np.array(x) for x in zip(*sigma))
    for a in (*stack, inverse_sign, *C, masks):     # cached: shared by callers
        a.setflags(write=False)
    return Model(l, kind, gammas, stack, inverse_sign, C, symmetric, masks)


def bracket_dict(m: Model, scale=Fraction(1)) -> dict:
    """The brackets of g as {(i, j): {k: Fraction}}: even indices first
    (sigma_k), then the module masks."""
    perm, sign = m.sigma
    K = len(perm)
    keys = {np.concatenate(x).tobytes(): k for k, x in enumerate(zip(perm, sign))}
    out = {}
    for i in range(K):
        j = np.arange(i + 1, K)
        ij = mul((perm[[i]], sign[[i]]), (perm[j], sign[j]))
        ji = mul((perm[j], sign[j]), (perm[[i]], sign[[i]]))
        anti = (ij[1] == -ji[1]).all(1)
        if not ((ij[0] == ji[0]).all(1) & (anti | (ij[1] == ji[1]).all(1))).all():
            raise ArithmeticError("two sigmas neither commute nor anticommute")
        for t in np.flatnonzero(anti):
            p, s = ij[0][t], ij[1][t]            # [s_i, s_j] = 2 s_i s_j
            k = keys.get(np.concatenate([p, s]).tobytes())
            sg = 1
            if k is None:
                k, sg = keys[np.concatenate([p, -s]).tobytes()], -1
            out[i, j[t]] = {k: Fraction(2 * sg)}
    index = np.full(1 << m.l, -1)
    index[m.masks] = np.arange(m.masks.size)
    y, s = perm[:, m.masks], sign[:, m.masks]        # sigma_k e_x = s e_y
    k, x = np.indices(y.shape)
    unit = {1: Fraction(1), -1: Fraction(-1)}
    for e in zip(k.ravel().tolist(), x.ravel().tolist(),
                 index[y].ravel().tolist(), s.ravel().tolist()):
        out[e[0], K + e[1]] = {K + e[2]: unit[e[3]]}
    # B(sigma_k e_x, e_t) = s (C e_t)[y] is nonzero for t = C^-1 y alone
    csign = m.C[1]
    t = transpose(m.C)[0][y]
    v = s * csign[t] * m.inverse_sign[:, None]
    keep = index[t] >= 0
    odd = {w: Fraction(scale) * w / (1 << m.l) for w in (1, -1)}
    for e in zip(k[keep].tolist(), x[keep].tolist(), index[t][keep].tolist(),
                 v[keep].tolist()):
        out.setdefault((K + e[1], K + e[2]), {})[e[0]] = odd[e[3]]
    return out


def reference_algebra(l: int, kind: str, field: Field, scale=Fraction(1)):
    """g over the field as a SuperAlgebra; the constructor checks that the
    odd bracket, given in both orders, has the symmetry C dictates."""
    m = model(l, kind)
    K = len(m.sigma[0])
    labels = [f"s{k}" for k in range(K)] + [f"e{x}" for x in m.masks]
    return SuperAlgebra(f"reference{kind}_l{l}", field, K, m.masks.size,
                        labels, bracket_dict(m, scale),
                        odd_symmetric=not m.symmetric)
