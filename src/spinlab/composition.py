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
from importlib import resources

from .fields import Field
from .linalg import RowSpace, nullspace_field, nullspace_modp
from .superalgebra import VerificationFailed
import numpy as np

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

    def coords_in_czero(self, x) -> list:
        """Coordinates of x over czero_basis; x must be trace-zero."""
        f = self.field
        if not f.is_zero(self.norm_polar(self.unit, x)):
            raise ValueError("element is not trace-zero")
        # basis is (E1-E2, b_2, ..): coordinates read off directly
        return [x[0]] + list(x[2:])

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


def derivation_algebra(C: CompositionAlgebra) -> list:
    """Reduced basis of der C = {D : D(xy) = D(x)y + x D(y)}, as matrices."""
    f = C.field
    n = C.dim
    # unknowns D[r][k] flattened r*n + k; one constraint row per (p, q, r)
    rows = []
    for p in range(n):
        ep = C.zero()
        ep[p] = f.one()
        for q in range(n):
            eq = C.zero()
            eq[q] = f.one()
            prod = C.table[p][q]
            for r in range(n):
                row = [f.zero()] * (n * n)
                for k, c in prod:
                    row[r * n + k] = f.add(row[r * n + k], c)
                # - D(b_p) b_q:   D[i][p] * (b_i b_q)_r
                for i in range(n):
                    c = next((v for k, v in C.table[i][q] if k == r), None)
                    if c is not None:
                        row[i * n + p] = f.sub(row[i * n + p], c)
                # - b_p D(b_q):   D[j][q] * (b_p b_j)_r
                for j in range(n):
                    c = next((v for k, v in C.table[p][j] if k == r), None)
                    if c is not None:
                        row[j * n + q] = f.sub(row[j * n + q], c)
                if any(not f.is_zero(x) for x in row):
                    rows.append(row)
    if f.p:
        mat = np.array([[int(x) % f.p for x in r] for r in rows], dtype=np.int64)
        null = [[f.of_int(int(x)) for x in nr] for nr in nullspace_modp(mat, f.p)]
    else:
        null = nullspace_field(rows, f)
    return [[list(nr[i * n:(i + 1) * n]) for i in range(n)] for nr in null]


def _restrict_to_czero(C: CompositionAlgebra, mat) -> list:
    """Matrix of an endomorphism on the czero basis (must preserve it)."""
    f = C.field
    basis = C.czero_basis()
    cols = []
    for v in basis:
        img = [sum_row(f, mat[i], v) for i in range(C.dim)]
        cols.append(C.coords_in_czero(img))
    m = len(basis)
    return [[cols[j][i] for j in range(m)] for i in range(m)]


def sum_row(f: Field, row, v):
    acc = f.zero()
    for c, x in zip(row, v):
        if not f.is_zero(c) and not f.is_zero(x):
            acc = f.add(acc, f.mul(c, x))
    return acc


def check_lemma_C(C: CompositionAlgebra) -> dict:
    """The three structure identities of the split Cayley algebra.

    (i)   so(C0, n) = der C (+) ad_{C0} (dimensions 21 = 14 + 7);
    (ii)  [ad_a, ad_b] = 2 D_{a,b} - ad_{[a,b]} on all basis pairs;
    (iii) D_{a,b} + (1/2) ad_{[a,b]} = 3 (n(a,.) b - n(b,.) a) on C.
    """
    if C.kind != "octonion":
        raise ValueError("the lemma concerns the split octonions")
    f = C.field
    n = C.dim
    basis0 = C.czero_basis()
    m = len(basis0)
    g0 = [[C.norm_polar(x, y) for y in basis0] for x in basis0]
    # so(C0, n): A with  G A + A^T G = 0
    rows = []
    for r in range(m):
        for s in range(m):
            row = [f.zero()] * (m * m)
            for k in range(m):
                row[k * m + s] = f.add(row[k * m + s], g0[r][k])
                row[k * m + r] = f.add(row[k * m + r], g0[s][k])
            rows.append(row)
    if f.p:
        mat = np.array([[int(x) % f.p for x in r] for r in rows], dtype=np.int64)
        so_rows = nullspace_modp(mat, f.p).tolist()
        so_dim = len(so_rows)
    else:
        so_rows = nullspace_field(rows, f)
        so_dim = len(so_rows)
    ders = derivation_algebra(C)
    ads = [ad_matrix(C, a) for a in basis0]
    span = RowSpace(f, m * m)
    der0 = [_restrict_to_czero(C, D) for D in ders]
    ad0 = [_restrict_to_czero(C, A) for A in ads]
    der_dim = span.insert([[x for row in D for x in row] for D in der0])
    joint_dim = der_dim + span.insert([[x for row in A for x in row] for A in ad0])
    contains_so = all(span.contains(row) for row in so_rows)
    ok_i = (so_dim == 21 and der_dim == 14 and joint_dim == 21 and contains_so)

    def mat_eq(A, B):
        return all(a == b for ra, rb in zip(A, B) for a, b in zip(ra, rb))

    def mat_mul(A, B):
        return [[sum_row(f, Ar, [B[k][j] for k in range(n)]) for j in range(n)]
                for Ar in A]

    ok_ii = ok_iii = True
    half = f.inv(f.of_int(2))
    for a in basis0:
        ada = ad_matrix(C, a)
        for b in basis0:
            adb = ad_matrix(C, b)
            dab = inner_derivation(C, a, b)
            adab = ad_matrix(C, C.commutator(a, b))
            lhs = [[f.sub(x, y) for x, y in zip(r1, r2)]
                   for r1, r2 in zip(mat_mul(ada, adb), mat_mul(adb, ada))]
            rhs = [[f.sub(f.mul(f.of_int(2), dab[i][j]), adab[i][j])
                    for j in range(n)] for i in range(n)]
            ok_ii = ok_ii and mat_eq(lhs, rhs)
            lhs3 = [[f.add(dab[i][j], f.mul(half, adab[i][j])) for j in range(n)]
                    for i in range(n)]
            rhs3 = [[f.zero()] * n for _ in range(n)]
            for j in range(n):
                ej = C.zero()
                ej[j] = f.one()
                na, nb = C.norm_polar(a, ej), C.norm_polar(b, ej)
                for i in range(n):
                    rhs3[i][j] = f.mul(f.of_int(3),
                                       f.sub(f.mul(na, b[i]), f.mul(nb, a[i])))
            ok_iii = ok_iii and mat_eq(lhs3, rhs3)
    return {
        "so_dim": so_dim,
        "der_dim": der_dim,
        "ad_dim": joint_dim - der_dim,
        "decomposition": ok_i,
        "bracket_identity": ok_ii,
        "sigma_identity": ok_iii,
        "pass": bool(ok_i and ok_ii and ok_iii),
    }
