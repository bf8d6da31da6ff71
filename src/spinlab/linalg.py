"""Exact linear algebra: field-generic Gaussian elimination plus fast
numpy kernels for matrices over GF(p).

The field-generic routines work on lists of raw field values and are used
wherever Fractions are in play.  The *_modp kernels keep everything in
int64 numpy arrays; products are computed through float64 BLAS when the
magnitudes provably fit in the 53-bit mantissa, falling back to chunking
otherwise, so every result is exact.  The *_exact routines take arrays
over either field, by characteristic p: int64 residues over GF(p), which
they hand to the *_modp kernels, and object arrays of Fractions over Q.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .fields import Field, _is_prime

# ---------------------------------------------------------------------------
# field-generic routines (raw values, lists of lists)


def rref_field(mat, field: Field):
    """Reduced row echelon form.  Returns (rows, pivot_cols); zero rows dropped."""
    rows = [list(r) for r in mat]
    if not rows:
        return [], []
    ncols = len(rows[0])
    pivots = []
    r = 0
    for c in range(ncols):
        if r == len(rows):
            break
        pr = next((i for i in range(r, len(rows)) if not field.is_zero(rows[i][c])), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = field.inv(rows[r][c])
        rows[r] = [field.mul(inv, x) for x in rows[r]]
        for i in range(len(rows)):
            if i != r and not field.is_zero(rows[i][c]):
                f = rows[i][c]
                rows[i] = [field.sub(x, field.mul(f, y)) for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return rows[:r], pivots


def rank_field(mat, field: Field) -> int:
    return len(rref_field(mat, field)[1])


def nullspace_field(mat, field: Field):
    """Basis of the right nullspace, one row per basis vector."""
    rows, pivots = rref_field(mat, field)
    ncols = len(mat[0]) if mat else 0
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        v = [field.zero()] * ncols
        v[f] = field.one()
        for i, pc in enumerate(pivots):
            v[pc] = field.neg(rows[i][f])
        basis.append(v)
    return basis


# ---------------------------------------------------------------------------
# GF(p) kernels on int64 arrays; all entries normalized to [0, p)

_MANTISSA = 1 << 53


def matmul_modp(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """Exact (a @ b) % p.  float64 BLAS when k*(p-1)^2 fits the mantissa."""
    a = np.ascontiguousarray(a, dtype=np.int64)
    b = np.ascontiguousarray(b, dtype=np.int64)
    k = a.shape[1]
    if k == 0:
        return np.zeros((a.shape[0], b.shape[1]), dtype=np.int64)
    step = max(1, _MANTISSA // max((p - 1) * (p - 1), 1))
    if k <= step:
        prod = a.astype(np.float64) @ b.astype(np.float64)
        return (prod.astype(np.int64)) % p
    acc = np.zeros((a.shape[0], b.shape[1]), dtype=np.int64)
    for s in range(0, k, step):
        e = min(k, s + step)
        acc = (acc + (a[:, s:e].astype(np.float64) @ b[s:e].astype(np.float64)).astype(np.int64)) % p
    return acc


def exact_array(values, p: int) -> np.ndarray:
    """Integers and Fractions as an array over the field of characteristic
    p: int64 residues over GF(p), an object array of Fractions over Q."""
    vals = np.asarray(values)
    if p and vals.dtype.kind in "iu":
        return vals.astype(np.int64) % p
    vals = np.asarray(values, dtype=object)
    flat = [Fraction(v) for v in vals.flat]
    if p:
        flat = [v.numerator * pow(v.denominator, -1, p) % p for v in flat]
    return np.array(flat, dtype=np.int64 if p else object).reshape(vals.shape)


def common_denominator(a: np.ndarray):
    """(N, d): a = N / d with N an object array of Python ints, d the lcm
    of the denominators of the entries of a."""
    vals = [Fraction(v) for v in np.asarray(a, dtype=object).flat]
    d = math.lcm(*(v.denominator for v in vals))
    num = [v.numerator * (d // v.denominator) for v in vals]
    return np.array(num, dtype=object).reshape(np.shape(a)), d


def matmul_exact(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """Exact a @ b over GF(p) through matmul_modp, or over Q (p = 0) as a
    product of Python integers over a common denominator."""
    if p:
        return matmul_modp(a, b, p)
    (na, da), (nb, db) = common_denominator(a), common_denominator(b)
    d = da * db
    out = [Fraction(v, d) for v in (na @ nb).flat]
    return np.array(out, dtype=object).reshape(np.shape(a)[0], np.shape(b)[1])


def rref_modp(a: np.ndarray, p: int):
    """Reduced row echelon form mod p.  Returns (R, pivot_cols); R keeps its
    original row count, zero rows at the bottom."""
    a = np.array(a, dtype=np.int64) % p
    m, n = a.shape
    pivots = []
    r = 0
    for c in range(n):
        if r == m:
            break
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        pr = r + int(nz[0])
        if pr != r:
            a[[r, pr]] = a[[pr, r]]
        inv = pow(int(a[r, c]), p - 2, p)
        a[r] = a[r] * inv % p
        coefs = a[:, c].copy()
        coefs[r] = 0
        hot = np.nonzero(coefs)[0]
        if hot.size:
            a[hot] = (a[hot] - coefs[hot, None] * a[r]) % p
        pivots.append(c)
        r += 1
    return a, pivots


def rank_modp(a: np.ndarray, p: int) -> int:
    return len(rref_modp(a, p)[1])


def nullspace_modp(a: np.ndarray, p: int) -> np.ndarray:
    """Right-nullspace basis as rows of an (dim, ncols) int64 array."""
    r, pivots = rref_modp(a, p)
    n = a.shape[1]
    free = np.setdiff1d(np.arange(n), pivots)
    basis = np.zeros((free.size, n), dtype=np.int64)
    basis[np.arange(free.size), free] = 1
    basis[:, pivots] = (-r[:len(pivots), free].T) % p
    return basis


@lru_cache(maxsize=None)
def _rank_primes() -> tuple:
    """The 16 primes just below 2^25, each checked by Field; their product
    exceeds 2^399."""
    return tuple(Field(q).p for q in range(2**25 - 1, 2**25 - 296, -2)
                 if _is_prime(q))


def rank_int(a) -> int:
    """Exact rank over Q of an integer matrix, from its ranks mod the fixed
    primes q in turn.  The rank mod q never exceeds the rank over Q, so the
    largest rank r seen is a lower bound.  Every (r+1)-minor vanishes mod
    each q used; once the product of those q, squared, exceeds the product
    of the r+1 largest squared row norms (Hadamard's bound on the square of
    such a minor), a nonzero one cannot exist, and r is the rank.  Raises
    ValueError when the primes run out first."""
    a = np.asarray(a, dtype=np.int64)
    rows = a.tolist()
    bound = sorted((sum(x * x for x in row) for row in rows), reverse=True)
    r, modulus = 0, 1
    for q in _rank_primes():
        r = max(r, rank_modp(a % q, q))
        modulus *= q
        if r == min(a.shape) or modulus * modulus > math.prod(bound[:r + 1]):
            return r
    raise ValueError("rank over Q not certified: the Hadamard bound of the "
                     "matrix outruns the product of the fixed primes")


def inv_modp(a: np.ndarray, p: int) -> np.ndarray:
    a = np.asarray(a, dtype=np.int64)
    n = a.shape[0]
    aug = np.hstack([a % p, np.eye(n, dtype=np.int64)])
    r, pivots = rref_modp(aug, p)
    if pivots[:n] != list(range(n)):
        raise ValueError("matrix is singular mod %d" % p)
    return r[:n, n:]


class RowSpaceModP:
    """Incrementally built row space over GF(p), kept in reduced echelon form.

    insert() takes a whole batch of rows at once: the batch is reduced
    against the current basis with one BLAS-backed multiply, the remainder
    is row-reduced, and the new pivots are eliminated from the old basis.
    """

    def __init__(self, p: int, width: int):
        self.p = p
        self.width = width
        self.basis = np.zeros((0, width), dtype=np.int64)
        self.pivots: list[int] = []

    @property
    def dim(self) -> int:
        return len(self.pivots)

    def _reduce(self, rows: np.ndarray) -> np.ndarray:
        if self.basis.shape[0] == 0:
            return rows % self.p
        coef = rows[:, self.pivots] % self.p
        return (rows - matmul_modp(coef, self.basis, self.p)) % self.p

    def insert(self, rows) -> int:
        """Add rows to the span; returns how many were independent."""
        rows = np.asarray(rows, dtype=np.int64)
        if rows.size == 0:          # no rows, or rows of width 0
            return 0
        rows = rows.reshape(-1, self.width)
        red = self._reduce(rows)
        r, new_pivots = rref_modp(red, self.p)
        if not new_pivots:
            return 0
        r = r[: len(new_pivots)]
        if self.basis.shape[0]:
            coef = self.basis[:, new_pivots]
            if coef.any():
                self.basis = (self.basis - matmul_modp(coef, r, self.p)) % self.p
        merged = np.vstack([self.basis, r])
        allp = self.pivots + new_pivots
        order = np.argsort(allp, kind="stable")
        self.basis = merged[order]
        self.pivots = [allp[i] for i in order]
        return len(new_pivots)

    def contains(self, row) -> bool:
        red = self._reduce(np.asarray(row, dtype=np.int64).reshape(1, -1))
        return not red.any()


class RowSpace:
    """Incrementally grown row space over any exact field.

    Over GF(p) this wraps RowSpaceModP (numpy); over Q it keeps the
    reduced echelon basis that rref_field returns, and insert() runs
    rref_field on the basis and the new rows together.  insert() returns
    how many of the offered rows were independent.  Rows over GF(p) are
    integer sequences or arrays; any integer is read mod p.
    """

    def __init__(self, field: Field, width: int):
        self.field = field
        self.width = width
        if field.p:
            self._modp = RowSpaceModP(field.p, width)
        else:
            self._rows = []          # rref_field rows (raw values)
            self._pivots = []

    @property
    def dim(self) -> int:
        return self._modp.dim if self.field.p else len(self._rows)

    @property
    def pivots(self) -> list:
        """Pivot column of each basis row, in the order of basis()."""
        return list(self._modp.pivots if self.field.p else self._pivots)

    def _as_modp(self, rows) -> np.ndarray:
        return np.asarray(rows, dtype=np.int64) % self.field.p

    def insert(self, rows) -> int:
        if self.field.p:
            return self._modp.insert(self._as_modp(rows))
        f = self.field
        rows = [[f.raw(x) for x in row] for row in rows]
        before = len(self._rows)
        if rows:
            self._rows, self._pivots = rref_field(self._rows + rows, f)
        return len(self._rows) - before

    def _reduce_one(self, row) -> list:
        f = self.field
        row = [f.raw(x) for x in row]
        for pc, er in zip(self._pivots, self._rows):
            if not f.is_zero(row[pc]):
                c = row[pc]
                row = [f.sub(x, f.mul(c, y)) for x, y in zip(row, er)]
        return row

    def contains(self, row) -> bool:
        if self.field.p:
            return self._modp.contains(self._as_modp(row))
        return all(self.field.is_zero(x) for x in self._reduce_one(row))

    def reduce(self, rows) -> list:
        """Each row reduced modulo the span, as raw values: the row minus the
        combination of basis rows that clears its pivot columns."""
        if self.field.p:
            rows = self._as_modp(rows).reshape(len(rows), self.width)
            return self._modp._reduce(rows).tolist()
        return [self._reduce_one(row) for row in rows]

    def basis(self) -> list:
        """Reduced echelon basis rows as raw field values."""
        if self.field.p:
            return self._modp.basis.tolist()
        return [list(r) for r in self._rows]


class SpanSolver:
    """Spanning list with coordinate recovery.

    Built from an ordered list of (possibly dependent) rows; coords(v)
    returns coefficients c with sum(c[i]*rows[i]) == v, or None when v
    lies outside the span.  Dependent rows simply get zero coefficients.
    """

    __slots__ = ("field", "nrows", "width", "_red", "_tr", "_pivots")

    def __init__(self, field: Field, rows):
        f = field
        rows = [[f.raw(x) for x in r] for r in rows]
        self.field = f
        self.nrows = len(rows)
        self.width = len(rows[0]) if rows else 0
        one, zero = f.one(), f.zero()
        aug = [r + [one if j == i else zero for j in range(self.nrows)]
               for i, r in enumerate(rows)]
        red, pivots = rref_field(aug, f)
        self._red, self._tr, self._pivots = [], [], []
        for row, p in zip(red, pivots):
            if p < self.width:       # pivot in the span part, not a relation
                self._red.append(row[:self.width])
                self._tr.append(row[self.width:])
                self._pivots.append(p)

    @property
    def rank(self) -> int:
        return len(self._pivots)

    def coords(self, vec):
        f = self.field
        v = [f.raw(x) for x in vec]
        out = [f.zero()] * self.nrows
        for red, tr, p in zip(self._red, self._tr, self._pivots):
            c = v[p]
            if f.is_zero(c):
                continue
            v = [f.sub(x, f.mul(c, y)) for x, y in zip(v, red)]
            out = [f.add(o, f.mul(c, t)) for o, t in zip(out, tr)]
        if any(not f.is_zero(x) for x in v):
            return None
        return out
