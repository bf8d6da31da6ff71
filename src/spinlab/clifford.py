"""Quadratic ambient spaces, their orthogonal Lie algebras on the pair
basis {[w_a,w_b]. : a < b}, and the spin action on the exterior algebra.

Ambient basis order is (u,) v_1..v_l, f_1..f_l: kind "B" is the odd,
(2l+1)-dimensional space with q(u) = -1, kind "D" drops u.  The only
nonzero polarized pairings are q(u,u) = -2 and q(v_i,f_j) = delta_ij.

Everything structural here is integer arithmetic independent of the
field: a pair [w_a,w_b]. sends each monomial mask to a single target
mask with coefficient in {+-1,+-2}; its natural matrix on the ambient
space has two nonzero rows; and the Gram matrix of the trace form
(1/2)tr(XY) on the pair basis is monomial -- one nonzero per row, with
values in {4, 8, -4}.  The cached integer tables below exploit all of
this; no field arithmetic happens here.  Each cache refuses an argument
with no basis before it is looked up (_checked_cache).  The adjoint rule
of so(q), q any integer symmetric Gram matrix, lives in two kernels
only: natural_matrices(q) and so_constants(q).  The tests check the
tables against an independent model of the spin module built from
gamma matrices (tests/spinor_reference.py).
"""

from __future__ import annotations

from functools import lru_cache, wraps
from typing import NamedTuple

import numpy as np

from .fields import _is_int
from .superalgebra import VerificationFailed


class DegenerateForm(ArithmeticError):
    """A quadratic form is singular over the requested field."""


# ---------------------------------------------------------------------------
# ambient space bookkeeping


class AmbientSpace(NamedTuple):
    l: int
    kind: str
    dim: int
    labels: tuple          # index -> "u" / "v3" / "f1"
    partner: tuple         # index of the unique q-partner
    index: dict            # label -> index


def _check_kind(kind: str):
    if kind not in ("B", "D"):
        raise ValueError(f"kind must be 'B' or 'D', got {kind!r}")


def _check_rank(l) -> int:
    """l as an int; ValueError unless l is an integer >= 1 (a bool or 2.0
    is no rank, though it hashes as one)."""
    if not _is_int(l):
        raise ValueError(f"l must be an integer, got {l!r}")
    if l < 1:
        raise ValueError("need l >= 1")
    return int(l)


def _check_space(l, kind: str) -> tuple:
    """(l, kind) with l an int; ValueError unless (l, kind) has an ambient
    space."""
    _check_kind(kind)
    return _check_rank(l), kind


def _check_pairs(l, kind: str) -> tuple:
    """(l, kind) with l an int; ValueError unless (l, kind) has a pair
    basis: l >= 1, and l >= 2 for kind D."""
    l, kind = _check_space(l, kind)
    if kind == "D" and l < 2:
        raise ValueError("kind D needs l >= 2")
    return l, kind


def _checked_cache(check):
    """An unbounded lru_cache behind check(*args), which refuses bad
    arguments and returns them normalized: True or 2.0 hash as 1 or 2, and
    a list hashes not at all, so a cache looked up first would answer for
    the one and refuse the other with a TypeError that names no argument."""
    def decorate(fn):
        cached = lru_cache(maxsize=None)(fn)

        @wraps(fn)
        def call(*args):
            return cached(*check(*args))

        call.cache_clear, call.cache_info = cached.cache_clear, cached.cache_info
        return call
    return decorate


@_checked_cache(_check_space)
def ambient_space(l: int, kind: str) -> AmbientSpace:
    off = 1 if kind == "B" else 0
    labels = (("u",) if off else ()) + \
        tuple(f"v{i}" for i in range(1, l + 1)) + \
        tuple(f"f{i}" for i in range(1, l + 1))
    # u is self-paired; v_i pairs with f_i
    partner = ((0,) if off else ()) + \
        tuple(off + l + i for i in range(l)) + \
        tuple(off + i for i in range(l))
    return AmbientSpace(l, kind, 2 * l + off, labels, partner,
                        {s: i for i, s in enumerate(labels)})


def qpair(space: AmbientSpace, a: int, b: int) -> int:
    """Polarized form on ambient basis indices, as an integer; ValueError
    for an index outside range(space.dim)."""
    for x in (a, b):
        if not 0 <= x < space.dim:
            raise ValueError(f"ambient index {x!r} outside range({space.dim})")
    if space.kind == "B" and a == 0 and b == 0:
        return -2
    return 1 if a != b and space.partner[a] == b else 0


def _tag(space: AmbientSpace, idx: int):
    """('u', 0) or ('v', bit) or ('f', bit) with bit = 1 << (i-1)."""
    lab = space.labels[idx]
    if lab == "u":
        return ("u", 0)
    return (lab[0], 1 << (int(lab[1:]) - 1))


# ---------------------------------------------------------------------------
# pair basis of so = [W,W].


class PairBasis(NamedTuple):
    l: int
    kind: str
    pairs: tuple           # k -> (a, b) ambient indices, a < b
    labels: tuple          # k -> "[v1,f2]"
    index: dict            # (a, b) -> k
    cartan: tuple          # indices k of the pairs [v_i,f_i]


@_checked_cache(_check_pairs)
def pair_basis(l: int, kind: str) -> PairBasis:
    space = ambient_space(l, kind)
    pairs = []
    for a in range(space.dim):
        for b in range(a + 1, space.dim):
            pairs.append((a, b))
    labels = tuple(f"[{space.labels[a]},{space.labels[b]}]" for a, b in pairs)
    index = {ab: k for k, ab in enumerate(pairs)}
    off = 1 if kind == "B" else 0
    cartan = tuple(index[(off + i, off + l + i)] for i in range(l))
    return PairBasis(l, kind, tuple(pairs), labels, index, cartan)


def so_dim(l: int, kind: str) -> int:
    l, kind = _check_pairs(l, kind)
    return l * (2 * l + 1) if kind == "B" else l * (2 * l - 1)


# ---------------------------------------------------------------------------
# integer action tables


@_checked_cache(_check_pairs)
def rho_tables(l: int, kind: str):
    """Integer spin-action tables (tgt, cof), each of shape (npairs, 2**l).

    Row k gives the action of the k-th basis pair on every monomial
    mask m: the image is cof[k,m] * monomial(tgt[k,m]).  Computed on the
    array of all masks at once.  A pair [w_a,w_b]. off the diagonal acts
    as 2 g_a g_b, g_u being the identity, g_v a left wedge and g_f a
    contraction by one generator (sign: the parity of the generators below
    it); [v_i,f_i]. acts as +1 on monomials containing v_i and -1 on the
    rest.
    """
    space = ambient_space(l, kind)
    tags = [_tag(space, x) for x in range(space.dim)]
    pairs = np.array(pair_basis(l, kind).pairs, dtype=np.int64).reshape(-1, 2)
    bit = np.array([x for _, x in tags], dtype=np.int64)
    is_f = np.array([t == "f" for t, _ in tags])
    masks = m = np.arange(1 << l, dtype=np.int64)
    ok = np.ones((len(pairs), masks.size), dtype=bool)
    odd = np.zeros(ok.shape, dtype=np.int64)
    for col in (1, 0):                  # g_b first, then g_a
        x, f = bit[pairs[:, col], None], is_f[pairs[:, col], None]
        ok &= (m & x != 0) == f
        odd += np.bitwise_count(m & np.maximum(x - 1, 0))
        m = m ^ x
    cof = np.where(ok, 2 - 4 * (odd & 1), 0)
    tgt = np.where(ok, m, masks)
    diag = bit[pairs[:, 0]] == bit[pairs[:, 1]]      # [v_i,f_i].
    cof[diag] = np.where(masks & bit[pairs[diag, 0], None], 1, -1)
    tgt, cof = tgt.astype(np.int32), cof.astype(np.int8)
    tgt.setflags(write=False)
    cof.setflags(write=False)
    return tgt, cof


@_checked_cache(_check_pairs)
def gram_pairing(l: int, kind: str):
    """Monomial structure of the trace-form Gram matrix on the pair basis.

    Returns (perm, coef) with G[k, perm[k]] = coef[k] = (1/2)tr(N_k
    N_perm[k]) the only nonzero entry of row k, N the natural_matrices of
    the Gram matrix of qpair: pair (a,b) traces to zero against all but
    sorted(partner(a), partner(b)).  VerificationFailed unless perm
    permutes N, each trace is a nonzero even integer and each coefficient
    divides 8.
    """
    space, pb = ambient_space(l, kind), pair_basis(l, kind)
    N = natural_matrices(ambient_gram(l, kind))
    perm = np.array([pb.index[tuple(sorted((space.partner[a], space.partner[b])))]
                     for a, b in pb.pairs], dtype=np.int64)
    if not np.array_equal(np.sort(perm), np.arange(len(N))):
        raise VerificationFailed("trace-form partner pairs are not a permutation")
    tr = (N * N[perm].transpose(0, 2, 1)).sum(axis=(1, 2))
    bad = np.flatnonzero((tr % 2 != 0) | (tr == 0))
    if bad.size:
        k = int(bad[0])
        raise VerificationFailed(f"trace pairing of pair {k} is {tr[k]}, "
                                 "not a nonzero even integer")
    coef = tr // 2
    if (8 % coef).any():
        raise VerificationFailed("a trace-form coefficient does not divide 8")
    perm.setflags(write=False)
    coef.setflags(write=False)
    return perm, coef


def _checked_gram(q) -> np.ndarray:
    """q as an int64 array; ValueError unless q is a square symmetric
    integer matrix."""
    q = np.asarray(q)
    if q.dtype.kind not in "iu" or q.ndim != 2 or not np.array_equal(q, q.T):
        raise ValueError(f"not a square symmetric integer matrix: {q.dtype}{q.shape}")
    return q.astype(np.int64)


def natural_matrices(q) -> np.ndarray:
    """The pairs [w_a,w_b]., a < b in index order, acting on the ambient
    space of q by [[w_a,w_b]., w_c] = 2 q(b,c) w_a - 2 q(a,c) w_b: an
    (npairs, dim, dim) int64 stack, output rows, N_ab = 2(e_a e_b^T -
    e_b e_a^T)·q.  ValueError unless q is a square symmetric integer
    matrix."""
    q = _checked_gram(q)
    a, b = np.triu_indices(len(q), 1)
    N = np.zeros((a.size, len(q), len(q)), dtype=np.int64)
    N[np.arange(a.size), a] = 2 * q[b]
    N[np.arange(a.size), b] = -2 * q[a]
    return N


def so_constants(q):
    """Structure constants of so(q), q an integer symmetric Gram matrix, on
    the pair basis {[w_a,w_b]. : a < b} in index order.

    [[w_a,w_b].,[w_c,w_d].] expands by the adjoint rule applied twice:
    2 q(b,c)[w_a,w_d]. - 2 q(a,c)[w_b,w_d]. + 2 q(b,d)[w_c,w_a].
    - 2 q(a,d)[w_c,w_b].  Returns int64 COO arrays (k1, k2, k3, c), sorted
    and with no zero c: [B_k1, B_k2] has coefficient c at B_k3, mod p over
    GF(p).  ValueError unless q is a square symmetric integer matrix.
    """
    q = _checked_gram(q)
    dim = len(q)
    a, b = np.triu_indices(dim, 1)
    npairs = a.size
    idx = np.zeros((dim, dim), dtype=np.int64)        # [w_x,w_y]. = sg * B_idx
    idx[a, b] = idx[b, a] = np.arange(npairs)
    sg = np.sign(np.arange(dim) - np.arange(dim)[:, None])    # x < y: +1
    a, b = a[:, None], b[:, None]
    c, d = a.T, b.T
    k1, k2 = np.indices((npairs, npairs))
    terms = ((2 * q[b, c], a, d), (-2 * q[a, c], b, d),
             (2 * q[b, d], c, a), (-2 * q[a, d], c, b))
    key = np.concatenate([((k1 * npairs + k2) * npairs + idx[x, y]).ravel()
                          for _, x, y in terms])
    coeff = np.concatenate([(w * sg[x, y]).ravel() for w, x, y in terms])
    key, coeff = key[coeff != 0], coeff[coeff != 0]
    key, at = np.unique(key, return_inverse=True)
    total = np.zeros(key.size, dtype=np.int64)
    np.add.at(total, at, coeff)
    key, total = key[total != 0], total[total != 0]
    return key // npairs // npairs, key // npairs % npairs, key % npairs, total


def ambient_gram(l: int, kind: str) -> np.ndarray:
    """The polarized form q on the ambient basis, as an int64 matrix."""
    space = ambient_space(l, kind)
    return np.array([[qpair(space, x, y) for y in range(space.dim)]
                     for x in range(space.dim)], dtype=np.int64)


@_checked_cache(_check_pairs)
def so_bracket_table(l: int, kind: str):
    """so_constants of the Gram matrix of ambient_space(l, kind), read-only."""
    out = so_constants(ambient_gram(l, kind))
    for arr in out:
        arr.setflags(write=False)
    return out


def half_spin_masks(l: int, parity: int = 0) -> tuple:
    """Monomial masks of the given popcount parity, in increasing order."""
    l = _check_rank(l)
    if not _is_int(parity) or parity not in (0, 1):
        raise ValueError(f"parity must be 0 or 1, got {parity!r}")
    return tuple(m for m in range(1 << l) if m.bit_count() & 1 == parity)
