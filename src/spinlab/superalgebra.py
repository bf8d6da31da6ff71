"""Z2-graded algebras with exact structure constants, and the verification
toolkit around them: graded Jacobi scanning, ideal and derived-algebra
computations, an absolute-irreducibility certificate from one kernel line,
the solver for spaces of equivariant bilinear maps, and isomorphism checking.

Bracket conventions.  Swapping two odd arguments costs no sign when the
algebra is odd_symmetric, and every other swap costs one.  A SuperAlgebra
stores its structure constants once, as read-only COO arrays coo = (I, J,
K, V, scale) holding both bracket orders: [e_I, e_J] has coefficient
V / scale at e_K.  Over GF(p), V holds residues and scale is 1; over Q,
V holds the exact numerators over the lcm of the denominators (int64 when
they fit, Python ints in an object array otherwise).  Grading and the
[x,x] rule are checked on these arrays when the algebra is made.
bracket_terms reads the stored row of a pair by binary search, and
_brackets_into every [e_a, x] of a coordinate vector x, for both fields.  The
mapping table, (i, j) -> {k: value} for i <= j (plus odd diagonals), is
a read-only view of the arrays, built on first use; serialization and
equality read it.
The graded Jacobi identity is taken in the form

    J(x,y,z) = [[x,y],z] + eps(x,y) [y,[x,z]] - [x,[y,z]],

with eps(x,y) = -1 exactly when the algebra is odd_symmetric and both
x, y are odd, so that for three odd elements J reduces to the cyclic
sum rho([s1,s2])(s3) + rho([s2,s3])(s1) + rho([s3,s1])(s2).

The full-mode scanner works on the COO data held in three sorted index
orders.  Because the table is graded-skew,
J is graded-alternating: J(y,x,z) = -eps(x,y) J(x,y,z), and likewise in
the last two slots.  So for each first index i the scanner evaluates only
the canonical triples i <= j <= z, gathering the terms of [[i,j],z],
[i,[j,z]] and [j,[i,z]] from the entries of row i by binary search in
the sorted orders, at a cost that follows the number of terms.  The
terms are summed exactly in one value array: over GF(p) in int64, every
product reduced mod p first; over Q the numerators as they are, in int64
while 3*n*max|V|^2 < 2^63, which bounds each sum of at most 3n products,
and as Python ints past that bound.  Each row is kept with the content
of each triple (the gcd of its sums) in a row store, and the algebras
build_superalgebra returns for one (kind, l) share the store of its Q
table: the content decides the identity in every odd characteristic at
once (check_jacobi).  That store, of any size, first takes the rows a
derivation argument proves empty (_certified_rows): when the full rows
of so(V)'s Chevalley generators vanish and their peeling reach covers
the even part, every row of an even index is empty, and one empty odd
row with a peeling reach over the odd part empties the rest.  The rows
it proves are exactly those the scan would give, and any other row is
scanned.  Witnesses (the permutations of the nonzero canonical triples)
are re-evaluated exactly through the dictionary route before reporting.

The isomorphism check (_first_unpreserved_pair) reads E(i, j) =
[M e_i, M e_j] - M [e_i, e_j] in the same keyed style: each term, joined
from the nonzeros of M and the COO entries of the two tables, is keyed by
(j, i, c) below n^3 and summed after one sort, so its cost follows the
nonzeros of M.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from types import MappingProxyType

import numpy as np

from .fields import Field, _is_int, _require_field, make_field
from .linalg import (RowSpaceModP, _red, common_denominator, exact_array,
                     matmul_modp, nullspace_modp, rank_modp, rref_modp)

SCHEMA_VERSION = 1


def _basis_index(i, n: int) -> int:
    """i as an int; ValueError naming i unless it is an int in range(n)."""
    if not _is_int(i) or not 0 <= i < n:
        raise ValueError(f"basis index {i!r} outside range({n})")
    return int(i)


def _dims(n0, n1) -> int:
    """n0 + n1; ValueError naming both unless each is a non-negative int."""
    if not all(_is_int(v) and v >= 0 for v in (n0, n1)):
        raise ValueError(f"n0 and n1 must be non-negative ints, not {n0!r} and {n1!r}")
    return int(n0) + int(n1)


class VerificationFailed(RuntimeError):
    """A structural identity that should hold did not."""


class SuperAlgebra:
    """Z2-graded algebra over an exact field, defined by an ordered basis
    (even part first), per-index parity, and sparse structure constants.
    bracket maps (i, j), either order, to {k: value}; ValueError when the
    two orders of one pair are both given and disagree.  coo holds the
    stored half (i <= j, sorted by (i, j, k), no zero, each (i, j, k) once)
    and then its mirror; the dimension n has n^3 < 2^63 (_store).  _jacobi
    holds the Jacobi rows build_superalgebra shares among the fields of
    one (kind, l); when it is None, check_jacobi scans the algebra's own
    table."""

    __slots__ = ("name", "field", "n0", "n1", "labels", "odd_symmetric",
                 "coo", "_table", "_pair_keys", "_jacobi")

    def __init__(self, name: str, field: Field, n0: int, n1: int, labels,
                 bracket: dict, odd_symmetric: bool):
        n = _dims(n0, n1)
        f = field
        stored = {}
        for (i, j), terms in bracket.items():
            terms = dict(terms)
            for key, x in (("i", i), ("j", j), *(("k", k) for k in terms)):
                if not _is_int(x) or not 0 <= x < n:
                    raise ValueError(f"index {key} = {x!r} is not an int in range({n})")
            clean = {k: r for k, v in terms.items() if (r := f.raw(v)) != 0}
            if not clean:
                continue
            if i > j:
                if not (odd_symmetric and j >= n0):       # swap sign -1
                    clean = {k: f.neg(v) for k, v in clean.items()}
                i, j = j, i
            prev = stored.get((i, j))
            if prev is not None and prev != clean:
                raise ValueError(f"inconsistent bracket orders for ({i},{j})")
            stored[(i, j)] = clean
        entries = [(i, j, k, v) for (i, j), terms in stored.items()
                   for k, v in terms.items()]
        I, J, K, V = zip(*entries) if entries else ((),) * 4
        V, scale = (V, 1) if f.p else common_denominator(V)
        self._store(name, field, n0, n1, labels, (I, J, K, V, scale),
                    odd_symmetric)

    @classmethod
    def _from_coo(cls, *args, **kwargs):
        """The algebra made by _store from arrays, with no bracket dict."""
        A = cls.__new__(cls)
        A._store(*args, **kwargs)
        return A

    def _store(self, name, field, n0, n1, labels, coo, odd_symmetric):
        """Fill the slots from coo = (I, J, K, V, scale), the stored brackets
        (i <= j, no (i, j, k) twice): [e_i, e_j] has V / scale at e_k, V
        being residues and scale 1 over GF(p).  ValueError unless n^3 <
        2^63, the bound of every int64 key read off coo: (i*n + j)*n + k in
        the sort here and in the Jacobi scan, i*n + j for the pairs."""
        n = _dims(n0, n1)
        if not isinstance(odd_symmetric, (bool, np.bool_)):
            raise TypeError(f"odd_symmetric must be a bool, not {odd_symmetric!r}")
        if n ** 3 >= 1 << 63:
            raise ValueError(f"dimension {n}: the int64 keys need n^3 < 2^63")
        self.name, self.field, self.n0, self.n1 = name, field, n0, n1
        self.labels = labels = tuple(labels)
        if len(labels) != n:
            raise ValueError(f"need {n} labels, got {len(labels)}")
        self.odd_symmetric = odd_symmetric = bool(odd_symmetric)
        self._table = self._pair_keys = self._jacobi = None
        I, J, K, V, scale = coo
        I, J, K = (np.asarray(x, dtype=np.int64) for x in (I, J, K))
        if field.p:
            V = np.asarray(V, dtype=np.int64) % field.p
        else:       # numerators over the lcm of the reduced denominators
            vals = np.asarray(V, dtype=object).tolist()
            g = gcd(scale, *vals)
            vals, scale = [v // g for v in vals], scale // g
            fits = max(map(abs, vals), default=0) < 1 << 63    # so does -V
            V = np.array(vals, dtype=np.int64 if fits else object)
        I, J, K, V = I[V != 0], J[V != 0], K[V != 0], V[V != 0]
        if ((I < 0) | (I > J) | (J >= n)).any():
            raise ValueError("stored brackets need 0 <= i <= j < n")
        if ((K < 0) | (K >= n)).any():
            raise ValueError(f"target index {K[(K < 0) | (K >= n)][0]} out of range")
        par = np.arange(n) >= n0
        off = np.flatnonzero(par[K] != (par[I] ^ par[J]))
        if off.size:
            i, j, k = I[off[0]], J[off[0]], K[off[0]]
            raise ValueError(f"bracket ({labels[i]},{labels[j]}) "
                             f"violates the grading at {labels[k]}")
        swap_plus = odd_symmetric & par[I] & par[J]
        diag = I[(I == J) & ~swap_plus]
        if diag.size:
            raise ValueError(f"[x,x] with swap sign -1 must vanish for {labels[diag[0]]}")
        order = np.argsort((I * n + J) * n + K, kind="stable")
        I, J, K, V = I[order], J[order], K[order], V[order]
        mirror = I != J
        swapped = np.where(swap_plus[order], 1, -1)[mirror] * V[mirror]
        if field.p:
            swapped %= field.p
        coo = (np.concatenate([I, J[mirror]]), np.concatenate([J, I[mirror]]),
               np.concatenate([K, K[mirror]]), np.concatenate([V, swapped]))
        for a in coo:
            a.setflags(write=False)
        self.coo = (*coo, scale)

    # -- basic structure -----------------------------------------------

    @property
    def dim(self) -> int:
        return self.n0 + self.n1

    def parity(self, i: int) -> int:
        return int(_basis_index(i, self.dim) >= self.n0)

    def _swap_sign(self, i: int, j: int) -> int:
        """Sign s with [e_i, e_j] = s * [e_j, e_i]."""
        if self.odd_symmetric and self.parity(i) and self.parity(j):
            return 1
        return -1

    def bracket_terms(self, i: int, j: int) -> dict:
        """[e_i, e_j] as a new zero-free dict k -> raw coefficient, the
        stored row of the pair read from coo by binary search on every call
        (the pair keys i*n + j of the stored half are built on first use).
        ValueError for an index outside range(n)."""
        n = self.dim
        if not (type(i) is type(j) is int and 0 <= i < n and 0 <= j < n):
            i, j = _basis_index(i, n), _basis_index(j, n)
        I, J, K, V, scale = self.coo
        if self._pair_keys is None:      # stored rows (i <= j) come sorted
            stored = I <= J
            self._pair_keys = I[stored] * n + J[stored]
        key = min(i, j) * n + max(i, j)
        lo, hi = self._pair_keys.searchsorted((key, key + 1))
        vals = V[lo:hi].tolist()
        if not self.field.p:
            vals = [Fraction(v, scale) for v in vals]
        if i > j and self._swap_sign(i, j) < 0:
            f = self.field
            vals = [f.neg(v) for v in vals]
        return dict(zip(K[lo:hi].tolist(), vals))

    # No package code calls this (see _brackets_into); it stays as the tests'
    # reference and while the benchmark marks laps at it (ROADMAP item 1).
    def bracket_vectors(self, x, y) -> list:
        """Bracket of two coordinate vectors (raw values), as a raw vector."""
        f = self.field
        n = self.dim
        out = [f.zero()] * n
        nx = [(i, v) for i, v in enumerate(x) if v != 0]
        ny = [(j, v) for j, v in enumerate(y) if v != 0]
        for i, xi in nx:
            for j, yj in ny:
                terms = self.bracket_terms(i, j)
                if not terms:
                    continue
                c = f.mul(xi, yj)
                for k, v in terms.items():
                    out[k] = f.add(out[k], f.mul(c, v))
        return out

    @property
    def table(self):
        """The stored brackets as a read-only mapping (i, j) -> {k: value},
        i <= j, built from coo on first use."""
        if self._table is None:
            I, J, K, V, scale = self.coo
            stored = I <= J
            i, j = I[stored].tolist(), J[stored].tolist()
            k, v = K[stored].tolist(), V[stored].tolist()
            if not self.field.p:
                frac = {x: Fraction(x, scale) for x in set(v)}
                v = [frac[x] for x in v]
            heads = np.flatnonzero(np.diff(I[stored] * self.dim + J[stored],
                                           prepend=-1)).tolist()
            table = {}
            for a, b in zip(heads, heads[1:] + [len(k)]):
                table[(i[a], j[a])] = MappingProxyType(dict(zip(k[a:b], v[a:b])))
            self._table = MappingProxyType(table)
        return self._table

    # -- serialization ----------------------------------------------------

    def to_dict(self) -> dict:
        f = self.field
        brackets = []
        for (i, j) in sorted(self.table):
            terms = self.table[(i, j)]
            brackets.append([i, j, [[k, f.to_str(v)] for k, v in sorted(terms.items())]])
        d = {
            "schema_version": SCHEMA_VERSION,
            "name": self.name,
            "field": f.p,
            "dims": [self.n0, self.n1],
            "odd_symmetric": self.odd_symmetric,
            "labels": list(self.labels),
            "brackets": brackets,
        }
        d["content_hash"] = _canonical_hash(d)
        return d

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_dict(cls, d: dict) -> "SuperAlgebra":
        if d.get("schema_version") != SCHEMA_VERSION:
            raise ValueError(f"unsupported schema_version {d.get('schema_version')!r}")
        stored = d.get("content_hash")
        if stored is None:
            raise ValueError("document has no content_hash")
        if stored != _canonical_hash(d):
            raise ValueError("content hash mismatch")
        f = make_field(d["field"])
        n0, n1 = d["dims"]
        bracket = {}
        for i, j, terms in d["brackets"]:
            bracket[(i, j)] = {k: f.from_str(s) for k, s in terms}
        return cls(d["name"], f, n0, n1, d["labels"], bracket, d["odd_symmetric"])

    @classmethod
    def from_json(cls, text: str) -> "SuperAlgebra":
        return cls.from_dict(json.loads(text))

    def __eq__(self, other):
        if not isinstance(other, SuperAlgebra):
            return NotImplemented
        return (self.field == other.field
                and (self.n0, self.n1) == (other.n0, other.n1)
                and self.labels == other.labels
                and self.odd_symmetric == other.odd_symmetric
                and self.table == other.table)

    def __repr__(self):
        return (f"SuperAlgebra({self.name!r}, {self.field!r}, "
                f"dims=({self.n0},{self.n1}))")


def _stored_half(I, J, K, V, n0: int, n: int, p: int, odd_symmetric: bool):
    """The i <= j half, sorted by (i, j, k), of a builder's entries given in
    both orders ([e_i, e_j] has V at e_k; n0 of the n basis elements even;
    V residues mod p, or exact values for p = 0).  VerificationFailed when
    an (i, j, k) is given twice, or when the other order of an entry is
    missing or breaks [e_j, e_i] = s [e_i, e_j], s = +1 only for two odd
    elements of an odd_symmetric algebra (a diagonal entry is its own
    other order).  The int64 keys need n^3 < 2^63, as _store does."""
    key = (I * n + J) * n + K
    order = np.argsort(key, kind="stable")
    I, J, K, V, key = I[order], J[order], K[order], V[order], key[order]
    odd = (I >= n0) & (J >= n0)
    mirror = (J * n + I) * n + K
    at = np.minimum(np.searchsorted(key, mirror), key.size - 1)
    want = _red(np.where(odd & odd_symmetric, V, -V), p)
    twice = np.flatnonzero(key[1:] == key[:-1])
    bad = np.flatnonzero((key[at] != mirror) | (V[at] != want))
    for found, what in ((twice, "{} ({},{}) is given twice at component {}"),
                        (bad, "{} symmetry fails: inconsistent bracket orders "
                              "for ({},{}) at component {}")):
        if found.size:
            x = found[0]
            raise VerificationFailed(what.format(
                "odd product" if odd[x] else "bracket", I[x], J[x], K[x]))
    keep = I <= J
    return I[keep], J[keep], K[keep], V[keep]


def _canonical_hash(d: dict) -> str:
    body = {k: v for k, v in d.items() if k != "content_hash"}
    blob = json.dumps(body, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


# ---------------------------------------------------------------------------
# verification reports


@dataclass
class VerificationReport:
    algebra: str
    field: str
    mode: str
    jacobi_pass: bool
    witnesses: list
    dims: tuple
    bracket_symmetry: str
    simplicity: str = "not-attempted"
    notes: str = ""

    @property
    def witness_count(self) -> int:
        return len(self.witnesses)


# ---------------------------------------------------------------------------
# graded Jacobi identity


def j_triple(A: SuperAlgebra, i: int, j: int, k: int) -> dict:
    """J(e_i, e_j, e_k) as a zero-free dict w -> raw, by dictionary
    arithmetic (the exact route, independent of the batch scanner)."""
    f = A.field

    def fold(acc, outer_terms, inner, right):
        for m, c in outer_terms.items():
            terms = A.bracket_terms(inner, m) if right else A.bracket_terms(m, inner)
            for w, v in terms.items():
                f.add_into(acc, w, f.mul(c, v))

    acc: dict = {}
    # [[e_i,e_j], e_k]
    fold(acc, A.bracket_terms(i, j), k, right=False)
    # + eps(i,j) [e_j, [e_i,e_k]]
    inner = A.bracket_terms(i, k)
    if A.odd_symmetric and A.parity(i) and A.parity(j):
        inner = {m: f.neg(c) for m, c in inner.items()}
    fold(acc, inner, j, right=True)
    # - [e_i, [e_j,e_k]]
    neg = {m: f.neg(c) for m, c in A.bracket_terms(j, k).items()}
    fold(acc, neg, i, right=True)
    return acc


def _scan_matrices(A: SuperAlgebra):
    """The scan data of A's COO table: (orders, p, par, odd_symmetric), p
    the characteristic and par the parity of each basis index.

    Each of the three orders is (key, a, b, vals): the entries sorted by
    key = s*n + a, where s is the index the order is named after, a the
    index the gathers bound, b the remaining index, and vals the values.
    Over GF(p) vals holds residues; over Q the numerators V, in int64
    while 3*n*max|V|^2 < 2^63 bounds every sum of at most 3n products,
    and as Python ints in an object array past that bound.  By first
    index: s = first, a = second, b = target.  By target: s = target, a =
    first, b = second, stored orientation (first <= second) only.  By
    second index: s = second, a = first, b = target.  Every SuperAlgebra
    has n^3 < 2^63 (_store), so no int64 key of the scan wraps.
    """
    n, p = A.dim, A.field.p
    I, J, K, V, _ = A.coo
    if not p and V.size and 3 * n * int(np.abs(V).max()) ** 2 >= 1 << 63:
        V = V.astype(object)

    def order(s, a, b, vals):
        key = s * n + a
        perm = np.argsort(key, kind="stable")
        return key[perm], a[perm], b[perm], vals[perm]

    kept = I <= J
    orders = (order(I, J, K, V), order(K[kept], I[kept], J[kept], V[kept]),
              order(J, I, K, V))
    par = np.arange(n) >= A.n0
    return orders, p, par, A.odd_symmetric


def _gather(key, lo, hi):
    """(owner, pos): the positions pos in the sorted array key of the
    entries with lo[t] <= key <= hi[t], concatenated over t, each with
    its t in owner."""
    start = np.searchsorted(key, lo)
    count = np.searchsorted(key, hi, side="right") - start
    owner = np.repeat(np.arange(count.size), count)
    pos = np.arange(owner.size) + np.repeat(start - np.cumsum(count) + count, count)
    return owner, pos


# Entries of the first-index order per block of scanned rows, at most; a row
# with more is a block of its own.  Larger blocks made the big cells slower
# (BENCH_block_scan.json).
_SCAN_BLOCK = 512


def _scan_rows(mats, rows, low) -> list:
    """The given rows of the scan of mats (_scan_matrices), one tuple per
    row in the order given: the triples (i, j, z), low <= j <= z, with
    J(e_i, e_j, e_z) != 0, sorted, each paired with its content g, the gcd
    of the |coefficients| of J(e_i, e_j, e_z) (of the residues over
    GF(p)).  rows holds distinct row indices and low a lower bound on j
    for each: i for a canonical row (i <= j <= z), 0 for a full row
    (every j <= z; J is graded-alternating in its last two slots, so a
    full row is empty iff J(e_i, y, z) = 0 for all y and z).  One pass
    keys every term by (slot, j, z, w) in int64, below len(rows) * n^3,
    so the call needs len(rows) * n^3 < 2^63."""
    orders, p, par, odd_symmetric = mats
    (key1, a1, b1, v1), (key2, a2, b2, v2), (key3, a3, b3, v3) = orders
    n = par.size
    rows, low = np.asarray(rows, dtype=np.int64), np.asarray(low, dtype=np.int64)
    # [e_r, e_x] = sum v e_y, r the row of slot s, its terms keyed from s * n^3
    s, at = _gather(key1, rows * n, rows * n + n - 1)
    r, x, y, v, lo = rows[s], a1[at], b1[at], v1[at], low[s]
    base = s * n ** 3
    ge = np.flatnonzero(x >= lo)
    rg, xg, yg, vg = r[ge], x[ge], y[ge], v[ge]
    top = n - 1
    # [[e_r, e_j], e_z]: j = xg, m = yg, then [e_m, e_z] = sum e_w with z >= j
    o1, q1 = _gather(key1, yg * n + xg, yg * n + top)
    k1 = (base[ge] + xg * n * n)[o1] + a1[q1] * n + b1[q1]
    # -[e_r, [e_j, e_z]]: [e_j, e_z] with lo <= j <= z hits m = x, [e_r, e_m] = e_w
    o2, q2 = _gather(key2, x * n + lo, x * n + top)
    k2 = (base + y)[o2] + (a2[q2] * n + b2[q2]) * n
    # eps(r,j) [e_j, [e_r, e_z]]: z = xg, m = yg, then [e_j, e_m] with lo <= j <= z
    o3, q3 = _gather(key3, yg * n + lo[ge], yg * n + xg)
    j3 = a3[q3]
    k3 = (base[ge] + xg * n)[o3] + j3 * n * n + b3[q3]
    keys = np.concatenate([k1, k2, k3])
    if not keys.size:
        return [()] * rows.size
    srt = np.argsort(keys)
    keys = keys[srt]
    heads = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
    t3 = vg[o3] * v3[q3]
    if odd_symmetric:
        flip = np.flatnonzero(par[rg[o3]] & par[j3])
        t3[flip] = -t3[flip]
    # exact: over GF(p) each product is reduced first; over Q int64 holds
    # every key's at most 3n terms within the bound _scan_matrices checks,
    # and Python ints past it
    terms = np.concatenate([vg[o1] * v1[q1], -(v[o2] * v2[q2]), t3])[srt]
    if p:
        terms %= p
    sums = np.add.reduceat(terms, heads)
    if p:
        sums %= p
    nonzero = np.flatnonzero(sums)
    sjz = keys[heads[nonzero]] // n                     # (slot, j, z)
    first = np.flatnonzero(np.diff(sjz, prepend=-1))
    content = np.gcd.reduceat(np.abs(sums[nonzero]), first).tolist()
    slot, jz = np.divmod(sjz[first], n * n)
    found = list(zip(zip(rows[slot].tolist(), (jz // n).tolist(),
                         (jz % n).tolist()), content))
    ends = np.searchsorted(slot, np.arange(rows.size + 1)).tolist()
    return [tuple(found[a:b]) for a, b in zip(ends, ends[1:])]


def _block_size(key1, n: int, rows) -> int:
    """How many of rows (ascending indices) one call of _scan_rows takes:
    those whose entries in the first-index order key1 (of an algebra of
    dimension n) fit in _SCAN_BLOCK together, at least one row, and at
    most (2^63 - 1) // n^3 rows, the bound of the call's key."""
    rows = np.asarray(rows, dtype=np.int64)
    used = np.cumsum(np.searchsorted(key1, rows * n + n) - np.searchsorted(key1, rows * n))
    k = int(np.searchsorted(used, _SCAN_BLOCK, side="right"))
    return min(max(k, 1), ((1 << 63) - 1) // n ** 3)


def _scan_one_i(mats, i):
    """Row i alone of the scan of mats; the scan itself reads _scan_rows."""
    return _scan_rows(mats, (i,), (i,))[0]


def _peel(mats, gens, seeds, hi: int) -> np.ndarray:
    """The peeling reach in range(hi) from the basis indices seeds under
    the maps ad e_g, g in gens, as a mask of length hi.  The images
    [e_g, e_a], a < hi, are read off the first-index order of mats
    (_scan_matrices).  An image of a reached a whose targets are all
    reached but one, t, reaches t: e_t is that image minus its reached
    terms, over its coefficient, a nonzero number.  So every reached e_t
    lies in the span of the seeds closed under the ad e_g, with no
    elimination, over Q or mod any prime."""
    key1, a1, b1, _ = mats[0][0]
    n = mats[2].size
    gens = np.asarray(gens, dtype=np.int64)
    _, at = _gather(key1, gens * n, gens * n + hi - 1)
    a, t = a1[at], b1[at]
    image = np.cumsum(np.diff(key1[at], prepend=-1) != 0) - 1
    reached = np.zeros(hi, dtype=bool)
    reached[np.asarray(seeds, dtype=np.int64)] = True
    while True:
        live = np.flatnonzero(reached[a] & ~reached[t])
        one = np.bincount(image[live])[image[live]] == 1
        if not one.any():
            return reached
        reached[t[live[one]]] = True


def _certified_rows(mats, gens) -> list:
    """The first rows of the scan of mats (_scan_matrices) as a derivation
    argument proves them, or [] when it does not apply.

    An even x whose full row vanishes (J(x, y, z) = 0 for all y, z) is a
    derivation element: ad x is a derivation of the table.  Those x form
    a subspace closed under the bracket, since J(x, x', .) = 0 gives
    ad [x, x'] = [ad x, ad x'], a commutator of derivations.  So if the
    full rows of the even basis indices gens vanish and their peeling
    reach (_peel) covers the even part, every canonical row i < n0 is
    empty.  Then the odd s with a vanishing full row form a submodule for
    the even part (ad x, x even, is a derivation of J itself), and the
    full row of n0 is its canonical row, the other terms lying in rows
    of even indices.  So if row n0 is empty and the peeling reach from
    e_n0 covers the odd part, every row is empty.  None of this assumes
    the Jacobi identity: the rows certified are exactly those _scan_rows
    would give.  The full rows of gens and the canonical row n0 are
    scanned in calls of _block_size rows, as the plain scan's blocks are,
    and ad e_g keeps parity, so one peel serves both parts.  Returns
    [()] * n when every row is certified, else [()] * n0 followed by row
    n0 when the even part is, else [] (also when gens is empty)."""
    par = mats[2]
    n, n0 = par.size, int(np.count_nonzero(~par))
    gens = sorted(set(gens))
    if not gens:
        return []
    if gens[0] < 0 or gens[-1] >= n0:
        raise ValueError(f"generators must be even basis indices below {n0}")
    odd = [n0] if n0 < n else []
    rows, low, scanned = gens + odd, [0] * len(gens) + odd, []
    while rows:
        k = _block_size(mats[0][0][0], n, rows)
        scanned += _scan_rows(mats, rows[:k], low[:k])
        rows, low = rows[k:], low[k:]
    if any(scanned[:len(gens)]):
        return []
    hi = n if odd and not scanned[-1] else n0
    reached = _peel(mats, gens, gens + odd if hi == n else gens, hi)
    if not reached[:n0].all():
        return []
    if hi == n and reached.all():
        return [()] * n
    return [()] * n0 + scanned[len(gens):]


class _JacobiRows:
    """Every canonical row of _scan_rows over one table, computed on first
    request and kept.  The first request builds the _scan_matrices orders
    of source(), the algebra whose table is scanned, and takes the rows
    that _certified_rows proves from the even basis indices gens (none:
    every row is scanned).  The other rows are scanned in blocks of
    consecutive rows, each of _block_size rows.  The orders are dropped
    once every row is in."""

    __slots__ = ("_source", "_gens", "_mats", "_rows")

    def __init__(self, source, gens=()):
        self._source, self._gens = source, tuple(gens)
        self._mats = self._rows = None

    def row(self, i: int) -> tuple:
        if self._rows is None:
            mats = _scan_matrices(self._source())
            self._source = None
            self._rows = _certified_rows(mats, self._gens)
            self._mats = mats if len(self._rows) < mats[2].size else None
        while len(self._rows) <= i:
            n = self._mats[2].size
            rest = np.arange(len(self._rows), n)
            block = rest[:_block_size(self._mats[0][0][0], n, rest)]
            self._rows.extend(_scan_rows(self._mats, block, block))
            if len(self._rows) == n:
                self._mats = None
        return self._rows[i]


def _witness_entry(A: SuperAlgebra, triple) -> dict:
    i, j, k = triple
    val = j_triple(A, i, j, k)
    if not val:
        raise VerificationFailed(f"scanner reported a vanishing witness at {triple}")
    f = A.field
    return {"i": i, "j": j, "k": k,
            "value": [[w, f.to_str(v)] for w, v in sorted(val.items())]}


def check_jacobi(A: SuperAlgebra, mode: str = "full", triples=None,
                 witness_cap: int = 10) -> VerificationReport:
    """Scan the graded Jacobi identity.

    mode "full" covers every ordered basis triple, and every verdict of
    the package comes from it.  "generators" evaluates exactly the
    supplied index triples; no package code asks for it.  Witnesses are
    collected in lexicographic triple order up to witness_cap, then
    re-evaluated exactly by j_triple.

    The full scan reads the rows of _scan_rows, the canonical triples
    i <= j <= z with J(e_i, e_j, e_z) != 0, each with its content g: J is
    graded-alternating, so J(x,y,z) vanishes iff each of its permutations
    does.  After row i, the permutations starting with i of the canonical
    triples found so far are exactly the witnesses with first index i, and
    they are added in sorted order.  Rows are computed on first request
    (_JacobiRows): an algebra from build_superalgebra first takes the rows
    that so(V)'s Chevalley generators certify empty (_certified_rows, a
    derivation argument that proves exactly the rows a scan would find
    empty), and the rest are scanned in blocks of consecutive rows, one
    vectorised pass each, so a failing cell stops within the block of the
    row that brings its last witness.  The scan keys each term in int64, below
    the n^3 < 2^63 that every SuperAlgebra keeps (_store).

    An algebra from build_superalgebra, over any field, reads the rows of
    the Q table of its (kind, l), scanned once over the integers.  Over
    GF(p) the table is that integer table times scale^-1 mod p (p never
    divides the scale), so J over GF(p) is the integer J times scale^-2,
    and a triple is kept exactly when p does not divide its content: one
    integer scan decides every odd p.  Any other algebra is scanned over
    its own table, its residues over GF(p); over Q past the int64 bound the
    sums are taken in Python ints (_scan_matrices), exact at any size.

    witness_cap must be an int >= 1 (not a bool); anything else raises
    ValueError, since a cap below 1 would report a pass for any algebra.
    """
    if not _is_int(witness_cap) or witness_cap < 1:
        raise ValueError(f"witness_cap must be an int >= 1, got {witness_cap!r}")
    n = A.dim
    # outside the tests only the benchmark's B8 cells take this branch;
    # it goes with ROADMAP item 1
    if mode == "generators":
        if triples is None:
            raise ValueError("generators mode needs explicit triples")
        found = []
        for t in sorted(tuple(t) for t in triples):
            if len(found) >= witness_cap:
                break
            if j_triple(A, *t):
                found.append(t)
    elif mode == "full":
        rows = A._jacobi if A._jacobi is not None else _JacobiRows(lambda: A)
        p = A.field.p
        found = []
        rest = {}                           # e -> the other two indices
        for i in range(n):
            for t, g in rows.row(i):
                if p and g % p == 0:
                    continue
                for e in set(t):
                    x, y = t[:t.index(e)] + t[t.index(e) + 1:]
                    rest.setdefault(e, set()).update(((x, y), (y, x)))
            found.extend((i, x, y) for x, y in sorted(rest.pop(i, ())))
            if len(found) >= witness_cap:
                break
        found = found[:witness_cap]
    else:
        raise ValueError(f"unknown mode {mode!r}")

    witnesses = [_witness_entry(A, t) for t in found]
    return VerificationReport(
        algebra=A.name,
        field=repr(A.field),
        mode=mode,
        jacobi_pass=not witnesses,
        witnesses=witnesses,
        dims=(A.n0, A.n1),
        bracket_symmetry="symmetric" if A.odd_symmetric else "skew",
    )


def even_subalgebra(A: SuperAlgebra) -> SuperAlgebra:
    """The even part of A as a plain (n0, 0) algebra on the same basis."""
    I, J, K, V, scale = A.coo
    even = (I <= J) & (J < A.n0)
    return SuperAlgebra._from_coo(
        A.name + "_0", A.field, A.n0, 0, A.labels[:A.n0],
        (I[even], J[even], K[even], V[even], scale), odd_symmetric=False)


# ---------------------------------------------------------------------------
# ideals, derived algebra, simplicity


def _brackets_into(A: SuperAlgebra, x) -> np.ndarray:
    """The n x n array whose row a is [e_a, x], x read by exact_array,
    scattered from the entries (a, j, k) of A.coo with x_j != 0: residues
    over GF(p), summed in float64 by bincount (a cell sums at most n of
    them, exact since n(p-1) < 2^53), and Fractions over Q."""
    n, p = A.dim, A.field.p
    I, J, K, V, scale = A.coo
    x = exact_array(x, p).reshape(n)[J]
    hit = np.flatnonzero(x)
    cells, x, V = I[hit] * n + K[hit], x[hit], V[hit]
    if p:
        w = (x * V % p).astype(np.float64)
        out = np.bincount(cells, weights=w, minlength=n * n)
        return out.astype(np.int64).reshape(n, n) % p
    out = np.full(n * n, Fraction(0), dtype=object)
    np.add.at(out, cells, x * V.astype(object))
    return (out / scale).reshape(n, n)


def _closure(seeds, images, p: int) -> RowSpaceModP:
    """The smallest RowSpaceModP that holds the rows of the (k, n) array
    seeds and is closed under the linear map images: images(wave) yields
    blocks of rows spanning the images of the rows of wave, one
    elimination each.  Each wave holds the basis rows new since the wave
    before, which with the rows already closed span the whole space."""
    space = RowSpaceModP(p, seeds.shape[1])
    space.insert(seeds)
    wave = space.basis
    while wave.shape[0]:
        old = set(space.pivots)
        for block in images(wave):
            space.insert(block)
            if space.dim == space.width:
                return space
        wave = space.basis[[i for i, c in enumerate(space.pivots) if c not in old]]
    return space


def ideal_closure(A: SuperAlgebra, seeds) -> list:
    """Reduced basis of the smallest subspace that holds the seed vectors
    (read by exact_array: a float raises TypeError) and each [e_a, x] of
    its x, the ideal they generate when they are homogeneous.  Each new x
    adds the n rows of _brackets_into(A, x) in one insert (_closure)."""
    p = A.field.p
    seeds = exact_array(seeds, p)
    if seeds.shape != (0,) and seeds.shape[1:] != (A.dim,):
        raise ValueError(f"seeds must have A.dim = {A.dim} columns, not shape {seeds.shape}")
    return _closure(seeds.reshape(-1, A.dim),
                    lambda wave: (_brackets_into(A, x) for x in wave), p).basis.tolist()


def derived_algebra(A: SuperAlgebra) -> list:
    """Reduced basis of [A, A]: the row space of the stored brackets, each
    read off coo (over Q times the scale, which leaves the span alone)."""
    n = A.dim
    I, J, K, V, _ = A.coo
    stored = I <= J
    pairs, row = np.unique(I[stored] * n + J[stored], return_inverse=True)
    rows = np.zeros((pairs.size, n), dtype=V.dtype)
    rows[row, K[stored]] = V[stored]
    reduced, pivots = rref_modp(rows, A.field.p)
    return reduced[:len(pivots)].tolist()


def _operators(ops, n, p: int) -> np.ndarray:
    """ops as a (k, n, n) stack read by exact_array; ValueError naming n or
    the shape of ops unless n is a positive int and each operator n x n."""
    if not _is_int(n) or n < 1:
        raise ValueError(f"n must be a positive int, not {n!r}")
    try:
        shape = np.shape(ops)
    except ValueError:                  # a ragged list has no shape
        shape = None
    if shape is None or shape != (0,) and shape[1:] != (n, n):
        raise ValueError(f"ops must be {n} x {n} operators, not "
                         + ("a ragged list" if shape is None else f"shape {shape}"))
    return exact_array(ops, p).reshape(-1, n, n)


def burnside_irreducible(ops, n: int, field: Field) -> bool:
    """True iff the unital associative algebra generated by the operators
    is all of End(k^n), certified by span closure (Burnside): the tests'
    reference for lowest_line_irreducible, over GF(p) only (ValueError
    over Q).
    The n x n operators are read by exact_array: a float raises TypeError."""
    p = field.p
    if not p:
        raise ValueError("the Burnside closure runs over GF(p) only")
    gens = _operators(ops, n, p)
    seeds = np.concatenate([np.eye(n, dtype=np.int64)[None], gens]).reshape(-1, n * n)

    def images(wave):           # one block per generator: the wave times it
        for g in gens:
            yield matmul_modp(wave.reshape(-1, n), g, p).reshape(len(wave), n * n)

    return _closure(seeds, images, p).dim == n * n


def _spin(vec: np.ndarray, mats, p: int) -> RowSpaceModP:
    """The smallest subspace that holds the row vector vec and is closed
    under v -> v @ M for every M in mats, as a RowSpaceModP (_closure).
    A wave's images go in chunks of max(1, n // len(wave)) operators, one
    elimination each: a wave has at most n rows, so no insert gets more
    than n rows, which bounds the peak memory.  The span, and so its
    reduced basis and pivots, does not depend on the chunks."""
    n = vec.shape[0]

    def images(wave):
        step = max(1, n // wave.shape[0])
        for s in range(0, len(mats), step):
            yield np.vstack([matmul_modp(wave, M, p) for M in mats[s:s + step]])

    return _closure(vec.reshape(1, n), images, p)


def _lowering(ops) -> np.ndarray:
    """Mask of the strictly upper triangular matrices of the stack ops."""
    return ~np.tril(ops).any(axis=(1, 2))


def lowest_line_irreducible(ops, n: int, p: int):
    """Whether the n x n integer matrices ops act absolutely irreducibly
    on GF(p)^n (p an odd prime, n >= 1; entries read mod p by exact_array,
    so a float raises TypeError), by the lowest-weight argument (Humphreys
    §20-21).  The operators that are strictly upper triangular (entry
    [k, j] nonzero only where k < j) generate a nilpotent algebra, so every
    nonzero submodule, over GF(p) or any extension field, holds a vector
    of their common kernel K (GF(p)^n when there is no such operator).

    Returns (verdict, dim): ("certified", n) when K is one line and it
    spins to GF(p)^n; ("failed", k) when the spin of the first basis
    vector of K is a proper submodule, of dimension k; ("undecided", None)
    when that vector spins to GF(p)^n but K is more than one line.
    """
    if not Field(p).p:                 # Field refuses 2, composites, p >= 2^26
        raise ValueError("the lowest-line test needs an odd prime p")
    gens = _operators(ops, n, p)
    low = gens[_lowering(gens)]
    kernel = nullspace_modp(low.reshape(-1, n), p)
    # spins act on rows, v -> v @ M: (g v)^T = v^T @ g^T
    dim = _spin(kernel[0], [np.ascontiguousarray(g.T) for g in gens], p).dim
    if dim < n:
        return "failed", dim
    return ("certified", n) if len(kernel) == 1 else ("undecided", None)


def _block(A: SuperAlgebra, first: int, second: int, target: int) -> np.ndarray:
    """Residues of one parity block of the structure constants over GF(p),
    read from the COO table.  first, second and target are parities (0 even,
    1 odd); R[a, k, j] is the coefficient of the k-th basis element of the
    target part in [e_a, e_j], for e_a the a-th element of the first part
    and e_j the j-th of the second."""
    if not A.field.p:
        raise ValueError("structure blocks are read over GF(p) only")
    I, J, K, V, _ = A.coo
    n0 = A.n0
    starts, sizes = (0, n0), (n0, A.n1)
    sel = ((I >= n0) == first) & ((J >= n0) == second) & ((K >= n0) == target)
    out = np.zeros((sizes[first], sizes[target], sizes[second]), dtype=np.int64)
    out[I[sel] - starts[first], K[sel] - starts[target],
        J[sel] - starts[second]] = V[sel]
    return out


def _largest_ideal_inside(A: SuperAlgebra, kernel_rows) -> int:
    """Dimension of the largest even subspace of span(kernel_rows), rows of
    residues, closed under bracketing with the whole even part."""
    p, n0 = A.field.p, A.n0
    ad = _block(A, 0, 0, 0).reshape(n0, n0 * n0)
    rows = np.asarray(kernel_rows, dtype=np.int64).reshape(-1, n0) % p
    while rows.shape[0]:
        r = rows.shape[0]
        space = RowSpaceModP(p, n0)
        space.insert(rows)
        # [x_i, e_b] for every row i and every b, reduced against the span:
        # sum c_i x_i stays inside iff sum c_i resid[i] vanishes
        brackets = matmul_modp(rows, ad, p).reshape(r, n0, n0).transpose(0, 2, 1)
        resid = space.reduce(brackets.reshape(r * n0, n0))
        sol = nullspace_modp(resid.reshape(r, n0 * n0).T, p)
        if sol.shape[0] == r:
            return r
        rows = matmul_modp(sol, rows, p)
    return 0


def simplicity_certificate(A: SuperAlgebra):
    """("certified"|"failed"|"undecided", notes) for an algebra over GF(p)
    with an odd part; ValueError otherwise.  Certified means: the derived
    algebra is everything, the even action on the odd part is absolutely
    irreducible (lowest_line_irreducible), and no nonzero even ideal
    annihilates the odd part.  Undecided means the common kernel of the
    strictly upper triangular even operators on the odd part is more than
    one line."""
    if not A.field.p:
        raise ValueError("simplicity certificates are computed over GF(p) only")
    if not A.n1:
        raise ValueError("simplicity certificates need an odd part (n1 >= 1)")
    n = A.dim
    der = derived_algebra(A)
    if len(der) != n:
        return "failed", f"derived algebra has dimension {len(der)} < {n}"
    rep = _block(A, 0, 1, 1)
    verdict, dim = lowest_line_irreducible(rep, A.n1, A.field.p)
    if verdict == "failed":
        return "failed", f"even action on the odd part has a {dim}-dimensional submodule"
    if verdict == "undecided":
        return "undecided", ("the common kernel of the strictly upper triangular "
                             "even operators on the odd part is more than one line")
    # the even x with sum x_a rho(e_a) = 0, as rows of residues
    kernel = nullspace_modp(rep.reshape(A.n0, A.n1 * A.n1).T, A.field.p)
    if len(kernel):
        bad = _largest_ideal_inside(A, kernel)
        if bad:
            return "failed", (f"{bad}-dimensional even ideal annihilates "
                              f"the odd part")
    return "certified", ""


# ---------------------------------------------------------------------------
# equivariant bilinear maps S x S -> g0


def _off_diagonal(X: np.ndarray) -> np.ndarray:
    """Mask of the matrices of the stack X with a nonzero off-diagonal entry."""
    off = X.copy()
    off[:, range(X.shape[1]), range(X.shape[1])] = 0
    return (off != 0).any(axis=(1, 2))


def _equivariant_constraint(Ra, Aa, s, t, c, ds: int, dg: int):
    """One generator's constraints on the unknowns B[s, t, c] as COO terms
    (row, unknown, coefficient), sorted by row; rows 0, 1, ... are the
    output triples (s', t', c') the terms reach, in order."""
    qa, c2 = np.nonzero((Aa != 0).T[c])
    Rnz = Ra != 0
    qs, s2 = np.nonzero(Rnz[s])
    qt, t2 = np.nonzero(Rnz[t])
    keys = np.concatenate([(s[qa] * ds + t[qa]) * dg + c2,
                           (s2 * ds + t[qs]) * dg + c[qs],
                           (s[qt] * ds + t2) * dg + c[qt]])
    vals = np.concatenate([Aa[c2, c[qa]], -Ra[s[qs], s2], -Ra[t[qt], t2]])
    order = np.argsort(keys, kind="stable")
    row = np.cumsum(np.diff(keys[order], prepend=-1) != 0) - 1
    return row, np.concatenate([qa, qs, qt])[order], vals[order]


def _constraint_times(step, kernel: np.ndarray, p: int) -> np.ndarray:
    """One generator's constraint rows times the columns of kernel.  Over
    GF(p) a row sums at most dg + 2 ds reduced products, well inside int64
    for p < 2^26."""
    row, q, vals = step
    terms = kernel[q]
    terms *= vals[:, None]
    if p:
        terms %= p
    return np.add.reduceat(terms, np.flatnonzero(np.diff(row, prepend=-1)))


def equivariant_map_dim(rep, adjoint, field: Field) -> int:
    """Dimension of the space of even-equivariant bilinear maps S x S -> g0.

    rep: the (k, ds, ds) matrices of k >= 1 generators on S; adjoint: the
    (k, dg, dg) matrices of the same generators acting on g0.  Any other
    shapes raise ValueError.  The unknown is the coefficient tensor
    B[s,t,c], and generator g imposes sum_c' ad_g[c,c'] B[s,t,c'] =
    sum_s' g[s',s] B[s',t,c] + sum_t' g[t',t] B[s,t',c].

    Generators diagonal on both sides (a torus) only allow the
    weight-compatible triples, which are the unknowns; their mask is built
    one torus generator at a time into a single (ds, ds, dg) boolean array.
    Every other generator's constraints are sparse COO terms over the
    unknowns.  Sparse start: the first nonempty one is scattered into its
    (rows x unknowns) matrix, whose nullspace is the first kernel, so no
    identity on the unknowns is formed.  Each later generator's rows are
    multiplied into the kernel, which is cut to their nullspace.  Stacked
    tail: once the rows of all the generators left times the kernel width
    is no larger than that first matrix, they are cut in one pass.
    """
    _require_field(field)
    f = field
    p = f.p
    R, A = exact_array(rep, p), exact_array(adjoint, p)
    if (R.ndim != 3 or A.ndim != 3 or len(R) != len(A) or not len(R)
            or R.shape[1] != R.shape[2] or A.shape[1] != A.shape[2]):
        raise ValueError(
            "rep and adjoint must list the same generators, k >= 1 of them, "
            "as (k, ds, ds) and (k, dg, dg) stacks; got shapes %s and %s"
            % (R.shape, A.shape))
    ds, dg = R.shape[1], A.shape[1]
    torus = ~(_off_diagonal(R) | _off_diagonal(A))
    allowed = np.ones((ds, ds, dg), dtype=bool)
    for a in np.flatnonzero(torus):
        r = R[a].diagonal()
        pair = r[:, None] + r[None, :]
        allowed &= _red(pair, p)[:, :, None] == A[a].diagonal()
    s, t, c = np.nonzero(allowed)
    del allowed
    steps = [step for step in (_equivariant_constraint(R[a], A[a], s, t, c, ds, dg)
                               for a in np.flatnonzero(~torus)) if step[0].size]
    del R, A                  # the first nullspace sets the peak: keep it small
    if not steps:
        return len(s)
    rows = [int(step[0][-1]) + 1 for step in steps]
    row, q, vals = steps[0]
    M = np.zeros((rows[0], len(s)), dtype=vals.dtype)
    np.add.at(M, (row, q), vals)
    budget = M.size
    kernel = nullspace_modp(M, p).T             # columns over the unknowns
    del M
    i = 1
    while i < len(steps) and kernel.shape[1]:
        j = len(steps) if sum(rows[i:]) * kernel.shape[1] <= budget else i + 1
        M = np.vstack([_constraint_times(step, kernel, p) for step in steps[i:j]])
        kernel = matmul_modp(kernel, nullspace_modp(M, p).T, p)
        i = j
    return kernel.shape[1]


# ---------------------------------------------------------------------------
# isomorphism checking


# Terms per block of _first_unpreserved_pair, at most, unless one pair
# (i, j) has more alone: the bound keeps the pass small when M is dense.
_ISO_BLOCK = 2048


def _runs(counts):
    """(s, e) of the consecutive runs of counts, in order, each summing to
    at most _ISO_BLOCK or holding one entry."""
    cum, s = np.cumsum(counts), 0
    while s < len(counts):
        e = max(int(np.searchsorted(cum, cum[s] - counts[s] + _ISO_BLOCK, "right")),
                s + 1)
        yield s, e
        s = e


def _first_unpreserved_pair(M: np.ndarray, A: SuperAlgebra, B: SuperAlgebra):
    """The first pair (i, j), i <= j, with E(i, j) = [M e_i, M e_j] -
    M [e_i, e_j] != 0, or None; M is an exact parity-preserving n x n
    array.  E is graded-skew when A and B share the swap rule, so the
    first column j with a mismatch has them at i >= j; the pair is the
    first mismatch by column, then by row.

    One keyed pass: each term of E(i, j) at e_c is keyed (j*n + i)*n + c,
    below the n^3 < 2^63 that _store keeps, and the terms of each key are
    summed after one sort.  [M e_i, M e_j] joins the nonzeros M[b, j] with
    the entries of B.coo of second index b and the nonzeros of row a of M;
    M [e_i, e_j] joins the entries of A.coo at (i, j) with column k of M.
    The pairs go in blocks of whole columns, or of the rows of one column,
    of at most _ISO_BLOCK terms (_runs), and the pass stops at the first
    block with a mismatch.  The terms follow the nonzeros: a dense M costs
    about |B.coo| n^2 of them.  Over GF(p) they are reduced residue
    products; over Q, for M = N / d and the scales sA and sB of A and B,
    those of d^2 sA sB E, in Python ints."""
    p, n = A.field.p, A.dim
    N, d = (exact_array(M, p), 1) if p else common_denominator(M)
    flat = N.reshape(-1)
    rkey, ckey = np.flatnonzero(N), np.flatnonzero(N.T)      # a*n + i, j*n + b
    IA, JA, KA, VA, sA = A.coo
    IB, JB, KB, VB, sB = B.coo
    if not p:
        VA, VB = VA.astype(object) * (d * sB), VB.astype(object) * sA
    oa = np.argsort(JA * n + IA, kind="stable")
    akey = JA[oa] * n + IA[oa]                       # A.coo by pair (i, j)
    ob = np.argsort(JB, kind="stable")
    bkey = JB[ob]                                    # B.coo by second index

    def first_in(t0, t1):
        """The first t = j*n + i, t0 <= t < t1, with E(i, j) != 0, or None."""
        lo, hi = np.searchsorted(ckey, (t0 // n * n, ((t1 - 1) // n + 1) * n))
        j, b = np.divmod(ckey[lo:hi], n)
        # M[b, j] times [f_a, f_b] = sum v f_c, times M[a, i] for i in the block
        o, x = _gather(bkey, b, b)
        x = ob[x]
        jn, a, v = j[o] * n, IB[x], _red(flat[b[o] * n + j[o]] * VB[x], p)
        o, y = _gather(rkey, a * n + np.maximum(t0 - jn, 0),
                       a * n + np.minimum(t1 - 1 - jn, n - 1))
        keys = [(jn[o] + rkey[y] % n - t0) * n + KB[x][o]]
        terms = [_red(v[o] * flat[rkey[y]], p)]
        # minus [e_i, e_j] = sum v e_k times column k of M
        lo, hi = np.searchsorted(akey, (t0, t1))
        x = oa[lo:hi]
        o, y = _gather(ckey, KA[x] * n, KA[x] * n + n - 1)
        c, x = ckey[y] % n, x[o]
        keys.append((akey[lo:hi][o] - t0) * n + c)
        terms.append(-_red(VA[x] * flat[c * n + KA[x]], p))
        keys = np.concatenate(keys)
        if not keys.size:
            return None
        srt = np.argsort(keys)
        keys = keys[srt]
        heads = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
        sums = _red(np.add.reduceat(np.concatenate(terms)[srt], heads), p)
        hit = np.flatnonzero(sums)
        return t0 + int(keys[heads[hit[0]]]) // n if hit.size else None

    # terms per column j: each M[b, j] meets the entries of B.coo of second
    # index b, each times the nonzeros of its row a of M; each entry of
    # A.coo at (i, j) meets the nonzeros of column k of M
    nnz_row, nnz_col = np.bincount(rkey // n, minlength=n), np.bincount(ckey // n, minlength=n)
    per_b = np.bincount(JB, weights=nnz_row[IB], minlength=n)
    col_terms = (np.bincount(ckey // n, weights=per_b[ckey % n], minlength=n)
                 + np.bincount(JA, weights=nnz_col[KA], minlength=n))

    def row_terms(j):
        """The terms of each pair (i, j) of column j."""
        lo, hi = np.searchsorted(ckey, (j * n, j * n + n))
        b = ckey[lo:hi] - j * n
        per_a = np.bincount(IB[ob[_gather(bkey, b, b)[1]]], minlength=n)
        lo, hi = np.searchsorted(akey, (j * n, j * n + n))
        return (np.bincount(rkey % n, weights=per_a[rkey // n], minlength=n)
                + np.bincount(akey[lo:hi] - j * n, weights=nnz_col[KA[oa[lo:hi]]],
                              minlength=n))

    for j0, j1 in _runs(col_terms):
        blocks = [(j0 * n, j1 * n)]
        if col_terms[j0] > _ISO_BLOCK:
            blocks = [(j0 * n + i0, j0 * n + i1) for i0, i1 in _runs(row_terms(j0))]
        for t0, t1 in blocks:
            t = first_in(t0, t1)
            if t is not None:
                return tuple(sorted(divmod(t, n)))
    return None


def verify_isomorphism(mat, A: SuperAlgebra, B: SuperAlgebra) -> bool:
    """True iff mat (columns = images of A's basis in B's coordinates) is a
    parity-preserving bijective homomorphism of the bracket tables.

    mat, a list of rows or an array of integers (read mod p over GF(p))
    and Fractions, is read by exact_array: a float raises TypeError.  Any
    shape but n x n, ragged rows included, gives False.  M is block
    diagonal by parity, so its rank is the sum of the ranks of the two
    blocks.  The brackets are
    compared by _first_unpreserved_pair, one route for both fields."""
    if A.field != B.field or (A.n0, A.n1) != (B.n0, B.n1):
        return False
    p, n, n0 = A.field.p, A.dim, A.n0     # the even parts of A and B have one size
    try:
        if np.shape(mat) != (n, n) and (n or np.size(mat)):   # [] is 0 x 0
            return False
    except ValueError:                    # ragged rows
        return False
    M = exact_array(mat, p).reshape(n, n)
    if M[:n0, n0:].any() or M[n0:, :n0].any():
        return False
    if rank_modp(M[:n0, :n0], p) + rank_modp(M[n0:, n0:], p) != n:
        return False
    return _first_unpreserved_pair(M, A, B) is None
