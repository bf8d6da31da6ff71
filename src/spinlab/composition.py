"""Split composition algebras over exact fields.

Four split models share one integer multiplication table: the base
field k, the binarions k x k, the 2x2 matrix algebra, and the split
octonions in the paired basis (E1, E2, u1..u3, w1..w3) with

    E1 u_i = u_i = u_i E2,   w_i E1 = w_i = E2 w_i,
    u_i u_j = eps_ijk w_k,   w_i w_j = -eps_ijk u_k,
    u_i w_j = delta_ij E1,   w_i u_j = delta_ij E2,

norm n(alpha E1 + beta E2 + sum a_i u_i + sum b_i w_i) = alpha beta - a.b,
and unit 1 = E1 + E2.  The octonion table ships as checked-in JSON with
a pinned hash; the smaller algebras are its restrictions to the basis
selections of _SUBSEL (the base field uses the unit alone).  The trace-zero subspace C0 is spanned
by (E1 - E2, u1..u3, w1..w3) in that order.

Each model has one form, the read-only int64 arrays of _int_tables(kind),
which every function here reads over the field of the CompositionAlgebra
handle it is given; no element of C is multiplied one at a time.  The
tests check the tables against Zorn's vector-matrix model.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from collections import namedtuple
from functools import lru_cache
from importlib import resources

import numpy as np

from .fields import Field, _require_field
from .linalg import (_red, combine, exact_array, matmul_modp, nullspace_modp,
                     rank_int, rank_modp)
from .superalgebra import VerificationFailed

OCTONION_TABLE_SHA256 = "7f0bb944c59a397e3be78872ba0a7003f3550a231f507e0a8795fafa6bb27990"

KINDS = ("unit", "binarion", "quaternion", "octonion")
# sub-model basis selections from the octonion table (closed under product)
_SUBSEL = {"binarion": (0, 1), "quaternion": (0, 1, 2, 5),
           "octonion": tuple(range(8))}


# b_i b_j = sum_k mult[i, j, k] b_k, gram[i, j] = n(b_i, b_j), unit = 1
_Tables = namedtuple("_Tables", "mult gram unit labels")


@lru_cache(maxsize=None)
def _int_tables(kind: str) -> _Tables:
    """The split model of the kind as read-only int64 arrays, read from
    the octonion table (RuntimeError unless it has the pinned hash) at the
    kind's basis selection; a product of two selected basis elements that
    leaves the selection raises VerificationFailed.  The base field is the
    unit alone, n(1, 1) = 2."""
    if kind == "unit":
        labels = ("1",)
        arrays = (np.ones((1, 1, 1), dtype=np.int64),
                  np.full((1, 1), 2, dtype=np.int64), np.ones(1, dtype=np.int64))
    else:
        blob = resources.files("spinlab.data").joinpath("octonion_table.json").read_bytes()
        digest = hashlib.sha256(blob).hexdigest()
        if digest != OCTONION_TABLE_SHA256:
            raise RuntimeError(
                f"octonion table checksum mismatch: {digest} != {OCTONION_TABLE_SHA256}")
        data = json.loads(blob)
        sel = _SUBSEL[kind]
        pos = {old: new for new, old in enumerate(sel)}
        mult = np.zeros((len(sel),) * 3, dtype=np.int64)
        for (a, i), (b, j) in itertools.product(enumerate(sel), repeat=2):
            for k, c in data["table"][i][j]:
                if k not in pos:
                    raise VerificationFailed(
                        f"{kind}: product of basis elements {i}, {j} leaves the selection")
                mult[a, b, pos[k]] += c
        labels = tuple(data["labels"][i] for i in sel)
        arrays = (mult, np.array(data["norm_gram"], dtype=np.int64)[np.ix_(sel, sel)],
                  np.array(data["unit"], dtype=np.int64)[list(sel)])
    for a in arrays:
        a.flags.writeable = False
    return _Tables(*arrays, labels)


class CompositionAlgebra:
    """The handle of a split composition algebra over an exact field that
    the functions below take: kind, field, dimension, basis labels and the
    unit as raw values, all read off _int_tables(kind), which holds its
    structure.  Refuses an unknown kind (ValueError) and a field that is
    not a Field (TypeError)."""

    __slots__ = ("kind", "field", "dim", "labels", "unit")

    def __init__(self, kind: str, field: Field):
        if kind not in KINDS:
            raise ValueError(f"unknown composition kind {kind!r}")
        _require_field(field)
        tables = _int_tables(kind)
        self.kind = kind
        self.field = field
        self.labels = tables.labels
        self.dim = len(self.labels)
        self.unit = tuple(field.of_int(int(u)) for u in tables.unit)

    def __repr__(self):
        return f"CompositionAlgebra({self.kind!r}, {self.field!r})"


def make_composition(kind: str, field: Field) -> CompositionAlgebra:
    """Split composition algebra of the given kind over the field."""
    return CompositionAlgebra(kind, field)


def _algebra(C) -> "CompositionAlgebra":
    """C itself; TypeError naming C unless it is a CompositionAlgebra."""
    if not isinstance(C, CompositionAlgebra):
        raise TypeError(f"C must be a CompositionAlgebra, not {C!r}")
    return C


# No package code calls inner_derivation or ad_matrix; they stay while the
# benchmark marks laps at them.  A C that is no CompositionAlgebra, and a
# vector argument of a length other than C.dim or with a float or bool
# entry, are refused with an error that names the argument.
def inner_derivation(C: CompositionAlgebra, a, b) -> list:
    """D_{a,b} = ad_[a,b] - 3 (a, b, .) as a matrix on C (rows = outputs),
    the associator (a, b, .) being L_ab - L_a L_b."""
    p = _algebra(C).field.p
    vecs = []
    for name, v in (("a", a), ("b", b)):
        if any(isinstance(x, (bool, np.bool_)) for x in np.asarray(v, dtype=object).flat):
            raise TypeError(f"{name}: a bool is not a coordinate")
        try:
            v = exact_array(v, p)
        except TypeError as e:
            raise TypeError(f"{name}: {e}") from None
        if v.shape != (C.dim,):
            raise ValueError(f"{name} must be a vector of length {C.dim}, "
                             f"not of shape {v.shape}")
        vecs.append(v)
    L = exact_array(_int_tables(C.kind).mult, p).transpose(0, 2, 1)  # x -> b_t x
    La, Lb = combine(np.stack(vecs), L, p)
    ab, ba = (matmul_modp(X, v.reshape(-1, 1), p)[:, 0]
              for X, v in ((La, vecs[1]), (Lb, vecs[0])))
    D = (exact_array(ad_matrix(C, ab - ba), p)
         - 3 * combine(ab.reshape(1, -1), L, p)[0] + 3 * matmul_modp(La, Lb, p))
    return _red(D, p).tolist()


def ad_matrix(C: CompositionAlgebra, a) -> list:
    """x -> [a, x] = ax - xa as a matrix on C (rows = outputs)."""
    p = _algebra(C).field.p
    if any(isinstance(x, (bool, np.bool_)) for x in np.asarray(a, dtype=object).flat):
        raise TypeError("a: a bool is not a coordinate")
    try:
        a = exact_array(a, p)
    except TypeError as e:
        raise TypeError(f"a: {e}") from None
    if a.shape != (C.dim,):
        raise ValueError(f"a must be a vector of length {C.dim}, not of shape {a.shape}")
    mult = exact_array(_int_tables(C.kind).mult, p)
    ad = mult.transpose(0, 2, 1) - mult.transpose(1, 2, 0)   # x -> b_t x - x b_t
    return _red(combine(a.reshape(1, -1), ad, p)[0], p).tolist()


def _derivation_constraints(mult: np.ndarray) -> np.ndarray:
    """Integer rows of D(b_p b_q) - D(b_p) b_q - b_p D(b_q) = 0, one per
    (p, q, r-th component), over the unknowns D[x][y] flattened x*n + y."""
    n = len(mult)
    eye = np.eye(n, dtype=np.int64)
    rows = (np.einsum("rx,pqy->pqrxy", eye, mult)         # D(b_p b_q)
            - np.einsum("yp,xqr->pqrxy", eye, mult)       # D(b_p) b_q
            - np.einsum("yq,pxr->pqrxy", eye, mult))      # b_p D(b_q)
    return rows.reshape(n ** 3, n * n)


def derivation_algebra(C: CompositionAlgebra) -> list:
    """Reduced basis of der C = {D : D(xy) = D(x)y + x D(y)}, as matrices;
    TypeError unless C is a CompositionAlgebra."""
    f = _algebra(C).field
    n = C.dim
    rows = _derivation_constraints(_int_tables(C.kind).mult)
    rows = rows[rows.any(axis=1)]
    null = nullspace_modp(rows, f.p).tolist()
    return [[list(nr[i * n:(i + 1) * n]) for i in range(n)] for nr in null]


def _czero_maps(n: int = 8):
    """(P, Z) for the paired basis of an n-dim model: the rows of Z are the
    C0 basis (b_0 - b_1, b_2, ...) and P reads C0 coordinates off a
    trace-zero vector, so P·D·Zᵀ is D restricted to C0."""
    P = np.delete(np.eye(n, dtype=np.int64), 1, axis=0)
    Z = P.copy()
    Z[0, 1] = -1
    return P, Z


def lemma_c_identities(mult, gram, p: int = 0) -> dict:
    """check_lemma_C for the 8-dim algebra with integer structure tensor
    mult and polar norm gram in the paired basis, over Q (p = 0) or GF(p).

    (ii) and (iii), the latter scaled by 2, are integer tensor identities,
    read mod p over GF(p).  In (i) each dimension is a rank (rank_int over
    Q) of integer blocks: Dc the derivation constraints on D in End C, Sc
    those of so(C0, n), Res the restriction of D to C0 and Ad0 the
    restricted ad_a.  so_dim = 49 - rk Sc, der_dim = rk[Dc; Res] - rk Dc,
    joint = rk[[Dc, 0], [Res, Ad0]] - rk Dc, and so(C0, n) lies in the
    joint span iff that rank exceeds rk[[Dc, 0], [Sc Res, Sc Ad0]] by
    so_dim.  A table not of an integer dtype is read by exact_array (a
    float raises TypeError).  The tables must hold integers below 2^12 in
    magnitude: every int64 entry below is then a signed sum of fewer than
    2^12 products of at most two of them (the basis maps hold 0, ±1), so
    it stays under 2^36.
    """
    mult, gram = (x if x.dtype.kind in "iu" else exact_array(x, 0)
                  for x in (np.asarray(mult), np.asarray(gram)))
    if mult.shape != (8, 8, 8) or gram.shape != (8, 8):
        raise ValueError("the lemma concerns an 8-dim algebra")
    if any(v.denominator != 1 for v in (*mult.flat, *gram.flat)):
        raise ValueError("the structure constants must be integers")
    if max(np.abs(mult).max(), np.abs(gram).max()) >= 1 << 12:
        raise ValueError("structure constants too large for the int64 route")
    mult, gram = mult.astype(np.int64), gram.astype(np.int64)
    n, m = 8, 7
    P, Z = _czero_maps(n)
    ad = mult.transpose(0, 2, 1) - mult.transpose(1, 2, 0)  # ad[t] = ad_{b_t}

    def vanishes(x):
        return not _red(x, p).any()

    def rank(x):
        return rank_modp(x, p) if p else rank_int(x)

    # (ii) [ad_a, ad_b] = 2 D_{a,b} - ad_{[a,b]} and
    # (iii) 2 D_{a,b} + ad_{[a,b]} = 6 (n(a, .) b - n(b, .) a), with
    # D_{a,b} = ad_{[a,b]} - 3 (a, b, .), on all pairs of C0 basis elements
    ad0 = np.einsum("at,tkj->akj", Z, ad)
    lhs = np.einsum("akl,blj->abkj", ad0, ad0)
    lhs = lhs - lhs.transpose(1, 0, 2, 3)
    comm = np.einsum("ax,by,xyk->abk", Z, Z, mult - mult.transpose(1, 0, 2))
    ad_ab = np.einsum("abt,tkj->abkj", comm, ad)
    assoc = (np.einsum("xyw,wzk->xyzk", mult, mult)
             - np.einsum("yzw,xwk->xyzk", mult, mult))
    assoc = np.einsum("ax,by,xyjk->abkj", Z, Z, assoc)       # (a, b, b_j)_k
    nz = Z @ gram                                             # n(a, b_j)
    form = (np.einsum("bk,aj->abkj", Z, nz) - np.einsum("ak,bj->abkj", Z, nz))
    ok_ii = vanishes(lhs - ad_ab + 6 * assoc)
    ok_iii = vanishes(3 * ad_ab - 6 * assoc - 6 * form)

    # (i) so(C0, n) = der C (+) ad_{C0}, from ranks
    eye = np.eye(m, dtype=np.int64)
    g0 = Z @ gram @ Z.T
    sc = (np.einsum("rk,js->rskj", g0, eye)
          + np.einsum("sk,jr->rskj", g0, eye)).reshape(m * m, m * m)
    dc = _derivation_constraints(mult)
    res = np.einsum("ix,jy->ijxy", P, Z).reshape(m * m, n * n)
    ad_res = np.einsum("ix,at,txy,jy->ija", P, Z, ad, Z).reshape(m * m, m)
    top = np.hstack([dc, np.zeros((len(dc), m), dtype=np.int64)])
    rk_dc = rank(dc)
    rk_joint = rank(np.vstack([top, np.hstack([res, ad_res])]))
    rk_so = rank(np.vstack([top, np.hstack([sc @ res, sc @ ad_res])]))
    so_dim = m * m - rank(sc)
    der_dim = rank(np.vstack([dc, res])) - rk_dc
    joint_dim = rk_joint - rk_dc
    contains_so = rk_joint - rk_so == so_dim
    ok_i = (so_dim == 21 and der_dim == 14 and joint_dim == 21 and contains_so)
    return {
        "so_dim": so_dim,
        "der_dim": der_dim,
        "ad_dim": joint_dim - der_dim,
        "decomposition": ok_i,
        "bracket_identity": ok_ii,
        "sigma_identity": ok_iii,
        "pass": bool(ok_i and ok_ii and ok_iii),
    }


def check_lemma_C(C: CompositionAlgebra) -> dict:
    """The three structure identities of the split Cayley algebra.

    (i)   so(C0, n) = der C (+) ad_{C0} (dimensions 21 = 14 + 7);
    (ii)  [ad_a, ad_b] = 2 D_{a,b} - ad_{[a,b]} on all basis pairs;
    (iii) D_{a,b} + (1/2) ad_{[a,b]} = 3 (n(a,.) b - n(b,.) a) on C.

    Decided on the integer tables by lemma_c_identities.  TypeError unless
    C is a CompositionAlgebra, ValueError unless it is the octonions.
    """
    if _algebra(C).kind != "octonion":
        raise ValueError("the lemma concerns the split octonions")
    return lemma_c_identities(*_int_tables(C.kind)[:2], C.field.p)
