"""Exact linear algebra over GF(p) and over Q.

One elimination serves both fields.  rref_modp, rank_modp, nullspace_modp
and RowSpaceModP take the characteristic p, and p = 0 means Q: over GF(p)
they work on int64 residues in [0, p), over Q on object arrays of
Fractions, and exact_array reads their input into that form either way.
RowSpace and SpanSolver are built on the same kernel and take a Field.

One product serves both fields too.  Over GF(p) matmul_modp reads any
integer operands mod p and multiplies the residues through float64 BLAS
when the magnitudes provably fit in the 53-bit mantissa, falling back to
chunking otherwise, so every result is exact; over Q it multiplies
Python integers over a common denominator.  combine and pair_products
are the stack products built on it.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .fields import DivideByZero, Field, _is_prime


def _red(a, p):
    """a reduced mod p over GF(p); over Q (p = 0) a itself."""
    return a % p if p else a


# ---------------------------------------------------------------------------
# products and exact arrays

_MANTISSA = 1 << 53


def matmul_modp(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """Exact a @ b over the field of characteristic p.  Over GF(p) it is
    (a @ b) % p of integer matrices, whose entries are read mod p: a
    signed integer operand is used as it is, any other is read by
    exact_array, and float64 BLAS runs on the residues when k*(p-1)^2
    fits the mantissa.  Over Q (p = 0) it is an object array of
    Fractions, the product of Python integers over a common denominator.
    A float raises TypeError either way."""
    if not p:
        (na, da), (nb, db) = common_denominator(a), common_denominator(b)
        d = da * db
        out = [Fraction(v, d) for v in (na @ nb).flat]
        return np.array(out, dtype=object).reshape(len(na), nb.shape[1])
    a, b = (np.ascontiguousarray(x if x.dtype.kind in "ib" else exact_array(x, p),
                                 dtype=np.int64)
            for x in (np.asarray(a), np.asarray(b)))
    # an operand is reduced only when needed; read as unsigned, a negative
    # entry lies above p too
    a, b = (x % p if x.size and x.view(np.uint64).max() >= p else x for x in (a, b))
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


def combine(coef, X, p: int) -> np.ndarray:
    """Σ_k coef[a, k]·X[k] for every row a of coef, X a stack of exact
    arrays over the field of characteristic p, as one product."""
    out = matmul_modp(coef, X.reshape(len(X), math.prod(X.shape[1:])), p)
    return out.reshape((len(coef),) + X.shape[1:])


def pair_products(X, p: int) -> np.ndarray:
    """(d, d, n, n) array of X[a]·X[b] over all pairs of the stack X of
    n x n exact arrays over the field of characteristic p, as one product."""
    d, n, _ = X.shape
    return matmul_modp(X.reshape(d * n, n), X.transpose(1, 0, 2).reshape(n, d * n),
                       p).reshape(d, n, d, n).transpose(0, 2, 1, 3)


def exact_array(values, p: int) -> np.ndarray:
    """Integers and Fractions as an array over the field of characteristic
    p: int64 residues over GF(p), an object array of Fractions over Q.
    The result is always a new array.  A float or complex entry raises
    TypeError, since its binary value is not the number meant, and a
    Fraction whose denominator p divides raises DivideByZero, as
    Field.raw does; empty input of any dtype is accepted."""
    vals = np.asarray(values)
    if p and vals.dtype.kind in "iu":
        if vals.dtype == np.uint64:         # past 2^63 an int64 cast wraps
            vals = vals % np.uint64(p)
        return vals.astype(np.int64, copy=False) % p
    vals = np.asarray(values, dtype=object)
    for v in vals.flat:
        if isinstance(v, (float, complex, np.inexact)):
            raise TypeError(f"exact arithmetic refuses the inexact value "
                            f"{v!r}: give integers or Fractions")
    flat = [v if type(v) is Fraction else Fraction(v) for v in vals.flat]
    if p:
        for v in flat:
            if not v.denominator % p:
                raise DivideByZero(f"denominator of {v} vanishes in GF({p})")
        flat = [v.numerator * pow(v.denominator, -1, p) % p for v in flat]
    return np.array(flat, dtype=np.int64 if p else object).reshape(vals.shape)


def common_denominator(a):
    """(N, d): a = N / d with N an object array of Python ints, d the lcm
    of the denominators of the entries of a, read by exact_array (a float
    raises TypeError)."""
    a = exact_array(a, 0)
    d = math.lcm(*(v.denominator for v in a.flat))
    num = [v.numerator * (d // v.denominator) for v in a.flat]
    return np.array(num, dtype=object).reshape(a.shape), d


def rref_modp(a, p: int):
    """Reduced row echelon form over GF(p), or over Q when p = 0.  Returns
    (R, pivot_cols); R keeps its original row count, zero rows at the
    bottom."""
    a = exact_array(a, p)
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
        inv = pow(int(a[r, c]), p - 2, p) if p else 1 / a[r, c]
        # over Q each entry costs a Fraction operation, so only the nonzero
        # columns of the pivot row are scaled and subtracted; over GF(p)
        # whole int64 rows cost less than picking the columns out
        cols = slice(None) if p else np.flatnonzero(a[r])
        a[r, cols] = _red(a[r, cols] * inv, p)
        coefs = a[:, c].copy()
        coefs[r] = 0
        hot = np.nonzero(coefs)[0]
        if hot.size:
            at = (hot, cols) if p else np.ix_(hot, cols)
            a[at] = _red(a[at] - coefs[hot, None] * a[r, cols], p)
        pivots.append(c)
        r += 1
    return a, pivots


def rank_modp(a, p: int) -> int:
    return len(rref_modp(a, p)[1])


def nullspace_modp(a, p: int) -> np.ndarray:
    """Right-nullspace basis as the rows of a (dim, ncols) array: int64
    residues over GF(p), Fractions over Q (p = 0), one row per free column
    in increasing order."""
    r, pivots = rref_modp(a, p)
    n = r.shape[1]
    # a mask, not np.setdiff1d: that calls np.unique, which imports numpy.ma
    free = np.ones(n, dtype=bool)
    free[pivots] = False
    free = np.flatnonzero(free)
    if p:
        basis = np.zeros((free.size, n), dtype=np.int64)
    else:
        basis = np.full((free.size, n), Fraction(0), dtype=object)
    basis[np.arange(free.size), free] = 1 if p else Fraction(1)
    basis[:, pivots] = _red(-r[:len(pivots), free].T, p)
    return basis


@lru_cache(maxsize=None)
def _rank_primes() -> tuple:
    """The 16 primes just below 2^25, each checked by Field; their product
    exceeds 2^399."""
    return tuple(Field(q).p for q in range(2**25 - 1, 2**25 - 296, -2)
                 if _is_prime(q))


def rank_int(a) -> int:
    """Exact rank over Q of a matrix of integers of any size (or Fractions,
    read by exact_array: a float raises TypeError), from the ranks mod the
    fixed primes q in turn of its numerators over a common denominator.
    The rank mod q never exceeds the rank over Q, so the largest rank r
    seen is a lower bound.  Every (r+1)-minor vanishes mod each q used;
    once the product of those q, squared, exceeds the product of the r+1
    largest squared row norms (Hadamard's bound on the square of such a
    minor), a nonzero one cannot exist, and r is the rank.  Raises
    ValueError when the primes run out first."""
    a = np.asarray(a)
    if a.dtype.kind not in "iu":
        a = common_denominator(a)[0]
    rows = a.tolist()
    bound = sorted((sum(x * x for x in row) for row in rows), reverse=True)
    r, modulus = 0, 1
    for q in _rank_primes():
        r = max(r, rank_modp((a % q).astype(np.int64, copy=False), q))
        modulus *= q
        if r == min(a.shape) or modulus * modulus > math.prod(bound[:r + 1]):
            return r
    raise ValueError("rank over Q not certified: the Hadamard bound of the "
                     "matrix outruns the product of the fixed primes")


def inv_modp(a: np.ndarray, p: int) -> np.ndarray:
    """The inverse over GF(p), or over Q when p = 0, of a square matrix
    read by exact_array (a float raises TypeError); ValueError when it is
    not square or singular."""
    a = exact_array(a, p)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"only a square matrix has an inverse, not shape {a.shape}")
    n = a.shape[0]
    aug = np.hstack([a, np.eye(n, dtype=np.int64)])
    r, pivots = rref_modp(aug, p)
    if pivots[:n] != list(range(n)):
        raise ValueError("matrix is singular " + (f"mod {p}" if p else "over Q"))
    return r[:n, n:]


class RowSpaceModP:
    """Incrementally built row space over GF(p), or over Q when p = 0, kept
    in reduced echelon form.

    Rows are read by exact_array: any integer is read mod p, a Fraction
    over Q as itself.  insert() takes a whole batch of rows at once: the
    batch is reduced against the current basis with one multiply, the
    nonzero rows left are row-reduced, and the new pivots are eliminated
    from the old basis.  basis holds the reduced rows, ordered by pivot.
    """

    def __init__(self, p: int, width: int):
        self.p = p
        self.width = width
        self.basis = exact_array(np.zeros((0, width), dtype=np.int64), p)
        self.pivots: list[int] = []

    @property
    def dim(self) -> int:
        return len(self.pivots)

    def _reduce(self, rows: np.ndarray) -> np.ndarray:
        if not self.pivots:
            return rows
        coef = rows[:, self.pivots]
        return _red(rows - matmul_modp(coef, self.basis, self.p), self.p)

    def insert(self, rows) -> int:
        """Add rows to the span; returns how many were independent."""
        rows = exact_array(rows, self.p)
        if rows.size == 0:          # no rows, or rows of width 0
            return 0
        red = self._reduce(rows.reshape(-1, self.width))
        red = red[red.any(axis=1)]          # a zero row adds nothing
        if not len(red):
            return 0
        r, new_pivots = rref_modp(red, self.p)
        r = r[: len(new_pivots)]
        if self.basis.shape[0]:
            coef = self.basis[:, new_pivots]
            if coef.any():
                self.basis = _red(self.basis - matmul_modp(coef, r, self.p), self.p)
        merged = np.vstack([self.basis, r])
        allp = self.pivots + new_pivots
        order = np.argsort(allp, kind="stable")
        self.basis = merged[order]
        self.pivots = [allp[i] for i in order]
        return len(new_pivots)

    def reduce(self, rows) -> np.ndarray:
        """Each row reduced modulo the span, as an array: the row minus the
        combination of basis rows that clears its pivot columns."""
        return self._reduce(exact_array(rows, self.p).reshape(len(rows), self.width))


class RowSpace(RowSpaceModP):
    """RowSpaceModP over a Field: GF(p), or Q as p = 0."""

    def __init__(self, field: Field, width: int):
        super().__init__(field.p, width)
        self.field = field


class SpanSolver:
    """Spanning list with coordinate recovery.

    Built from an ordered list of (possibly dependent) rows; coords(v)
    returns coefficients c with sum(c[i]*rows[i]) == v, or None when v
    lies outside the span.  Dependent rows simply get zero coefficients.
    The reduced echelon form of [rows | 1] gives, for each pivot of the
    span part, its basis row and that row as a combination of the rows.
    """

    __slots__ = ("field", "nrows", "width", "_rows", "_tr", "_pivots")

    def __init__(self, field: Field, rows):
        p = field.p
        rows = exact_array(rows, p)
        self.field = field
        self.nrows = len(rows)
        self.width = rows.shape[1] if rows.ndim == 2 else 0
        eye = exact_array(np.eye(self.nrows, dtype=np.int64), p)
        red, pivots = rref_modp(np.hstack([rows.reshape(self.nrows, self.width), eye]), p)
        rank = sum(c < self.width for c in pivots)   # the rest are relations
        self._rows, self._tr = red[:rank, :self.width], red[:rank, self.width:]
        self._pivots = pivots[:rank]

    def coords(self, vec):
        p = self.field.p
        v = exact_array(vec, p).reshape(1, self.width)
        c = v[:, self._pivots]
        if _red(v - matmul_modp(c, self._rows, p), p).any():
            return None
        return matmul_modp(c, self._tr, p)[0].tolist()
