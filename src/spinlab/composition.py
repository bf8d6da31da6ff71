"""Split composition algebras over exact fields.

Four split models share one integer multiplication table: the base
field k, the binarions k x k, the 2x2 matrix algebra, and the split
octonions in the paired basis (E1, E2, u1..u3, w1..w3) with

    E1 u_i = u_i = u_i E2,   w_i E1 = w_i = E2 w_i,
    u_i u_j = eps_ijk w_k,   w_i w_j = -eps_ijk u_k,
    u_i w_j = delta_ij E1,   w_i u_j = delta_ij E2,

norm n(alpha E1 + beta E2 + sum a_i u_i + sum b_i w_i) = alpha beta - a.b,
and unit 1 = E1 + E2.  The octonion table ships as checked-in JSON with
a pinned hash; the smaller algebras are its upper-left corners (the
base field uses the unit alone).  The trace-zero subspace C0 is spanned
by (E1 - E2, u1..u3, w1..w3) in that order.
"""

from __future__ import annotations

import hashlib
import json
from functools import lru_cache
from importlib import resources

import numpy as np

from .fields import Field
from .linalg import _red, exact_array, nullspace_modp, rank_int, rank_modp
from .superalgebra import VerificationFailed

OCTONION_TABLE_SHA256 = "7f0bb944c59a397e3be78872ba0a7003f3550a231f507e0a8795fafa6bb27990"

KINDS = ("unit", "binarion", "quaternion", "octonion")
# sub-model basis selections from the octonion table (closed under product)
_SUBSEL = {"binarion": (0, 1), "quaternion": (0, 1, 2, 5),
           "octonion": tuple(range(8))}


def _load_octonion_table() -> dict:
    blob = resources.files("spinlab.data").joinpath("octonion_table.json").read_bytes()
    digest = hashlib.sha256(blob).hexdigest()
    if digest != OCTONION_TABLE_SHA256:
        raise RuntimeError(
            f"octonion table checksum mismatch: {digest} != {OCTONION_TABLE_SHA256}")
    return json.loads(blob)


class CompositionAlgebra:
    """A split composition algebra with its norm, over an exact field."""

    __slots__ = ("kind", "field", "dim", "labels", "unit", "table", "gram")

    def __init__(self, kind, field, labels, unit, table, gram):
        self.kind = kind
        self.field = field
        self.dim = len(labels)
        self.labels = tuple(labels)
        self.unit = tuple(unit)
        self.table = table        # table[i][j] = ((k, raw), ...)
        self.gram = gram          # polarized norm n(b_i, b_j), raw

    def zero(self) -> list:
        return [self.field.zero()] * self.dim

    def multiply(self, x, y) -> list:
        f = self.field
        out = self.zero()
        for i, xi in enumerate(x):
            if f.is_zero(xi):
                continue
            row = self.table[i]
            for j, yj in enumerate(y):
                if f.is_zero(yj):
                    continue
                c = f.mul(xi, yj)
                for k, v in row[j]:
                    out[k] = f.add(out[k], f.mul(c, v))
        return out

    def norm_polar(self, x, y):
        """n(x, y) = n(x + y) - n(x) - n(y)."""
        f = self.field
        acc = f.zero()
        for i, xi in enumerate(x):
            if f.is_zero(xi):
                continue
            for j, yj in enumerate(y):
                g = self.gram[i][j]
                if not f.is_zero(g) and not f.is_zero(yj):
                    acc = f.add(acc, f.mul(f.mul(xi, yj), g))
        return acc

    def norm(self, x):
        f = self.field
        return f.div(self.norm_polar(x, x), f.of_int(2))

    def conjugate(self, x) -> list:
        f = self.field
        t = self.norm_polar(self.unit, x)
        return [f.sub(f.mul(t, u), xi) for u, xi in zip(self.unit, x)]

    def commutator(self, x, y) -> list:
        f = self.field
        return [f.sub(a, b) for a, b in
                zip(self.multiply(x, y), self.multiply(y, x))]

    def associator(self, x, y, z) -> list:
        f = self.field
        left = self.multiply(self.multiply(x, y), z)
        right = self.multiply(x, self.multiply(y, z))
        return [f.sub(a, b) for a, b in zip(left, right)]

    def czero_basis(self) -> list:
        """Basis of the trace-zero subspace: E1 - E2 first, then the u's
        and w's present in the model.  Empty for the base field."""
        f = self.field
        if self.kind == "unit":
            return []
        out = []
        h = self.zero()
        h[0], h[1] = f.one(), f.neg(f.one())
        out.append(h)
        for i in range(2, self.dim):
            v = self.zero()
            v[i] = f.one()
            out.append(v)
        return out

    def __repr__(self):
        return f"CompositionAlgebra({self.kind!r}, {self.field!r})"


def make_composition(kind: str, field: Field) -> CompositionAlgebra:
    """Split composition algebra of the given kind over the field."""
    if kind not in KINDS:
        raise ValueError(f"unknown composition kind {kind!r}")
    f = field
    if kind == "unit":
        one = f.one()
        return CompositionAlgebra(
            kind, f, ["1"], [one],
            (((  (0, one),),),),
            [[f.of_int(2)]])
    data = _load_octonion_table()
    sel = _SUBSEL[kind]
    remap = {old: new for new, old in enumerate(sel)}
    labels = [data["labels"][i] for i in sel]
    table = []
    for i in sel:
        row = []
        for j in sel:
            cell = data["table"][i][j]
            # the selection must be closed under the product
            if any(k not in remap for k, _ in cell):
                raise VerificationFailed(
                    f"{kind}: product of basis elements {i}, {j} leaves the selection")
            row.append(tuple((remap[k], f.of_int(c)) for k, c in cell))
        table.append(tuple(row))
    gram = [[f.of_int(data["norm_gram"][i][j]) for j in sel] for i in sel]
    unit = [f.of_int(data["unit"][i]) for i in sel]
    return CompositionAlgebra(kind, f, labels, unit, tuple(table), gram)


@lru_cache(maxsize=None)
def _int_tables(kind: str):
    """(mult, gram) of a split model as read-only int64 arrays, from its
    table over Q: b_i b_j = sum_k mult[i, j, k] b_k, gram[i, j] = n(b_i, b_j)."""
    C = make_composition(kind, Field(0))
    mult = np.zeros((C.dim,) * 3, dtype=np.int64)
    for i, row in enumerate(C.table):
        for j, cell in enumerate(row):
            for k, v in cell:
                mult[i, j, k] += int(v)
    gram = np.array([[int(g) for g in row] for row in C.gram], dtype=np.int64)
    mult.flags.writeable = gram.flags.writeable = False
    return mult, gram


def inner_derivation(C: CompositionAlgebra, a, b) -> list:
    """D_{a,b} = ad_[a,b] - 3 (a, b, .) as a matrix on C (rows = outputs)."""
    f = C.field
    n = C.dim
    ab = C.commutator(a, b)
    three = f.of_int(3)
    cols = []
    for j in range(n):
        ej = C.zero()
        ej[j] = f.one()
        com = C.commutator(ab, ej)
        ass = C.associator(a, b, ej)
        cols.append([f.sub(com[i], f.mul(three, ass[i])) for i in range(n)])
    return [[cols[j][i] for j in range(n)] for i in range(n)]


# No package code calls this; it stays while the benchmark marks laps at
# it, and goes with that lap point.
def ad_matrix(C: CompositionAlgebra, a) -> list:
    """x -> [a, x] = ax - xa as a matrix on C."""
    f = C.field
    n = C.dim
    rows = [[f.zero()] * n for _ in range(n)]
    for j in range(n):
        ej = C.zero()
        ej[j] = f.one()
        col = C.commutator(a, ej)
        for i in range(n):
            rows[i][j] = col[i]
    return rows


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
    """Reduced basis of der C = {D : D(xy) = D(x)y + x D(y)}, as matrices."""
    f = C.field
    n = C.dim
    rows = _derivation_constraints(_int_tables(C.kind)[0])
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

    Decided on the integer tables by lemma_c_identities.
    """
    if C.kind != "octonion":
        raise ValueError("the lemma concerns the split octonions")
    return lemma_c_identities(*_int_tables(C.kind), C.field.p)
