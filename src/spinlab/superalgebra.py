"""Z2-graded algebras with exact structure constants, and the verification
toolkit around them: graded Jacobi scanning, ideal and derived-algebra
computations, an absolute-irreducibility certificate, the solver for
spaces of equivariant bilinear maps, and isomorphism checking.

Bracket conventions.  Swapping two odd arguments costs no sign when the
algebra is odd_symmetric, and every other swap costs one.  A SuperAlgebra
stores its structure constants once, as read-only COO arrays coo = (I, J,
K, V, scale) holding both bracket orders: [e_I, e_J] has coefficient
V / scale at e_K.  Over GF(p), V holds residues and scale is 1; over Q,
V holds the exact numerators over the lcm of the denominators (int64 when
they fit, Python ints in an object array otherwise).  Grading and the
[x,x] rule are checked on these arrays when the algebra is made.
bracket_terms reads the stored row of a pair by binary search.  The
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
terms are summed exactly in int64: over GF(p) every product is reduced
mod p first; over Q the numerators are summed as they are while
3*n*max|V|^2 < 2^63, which bounds each sum of at most 3n products, and
past that bound modulo word-size primes whose product exceeds twice the
bound, the sums then recovered by the Chinese remainder theorem.  Each
row is kept with the content of each triple (the gcd of its sums) in a
row store, and the algebras build_superalgebra returns for one (kind, l)
share the store of its Q table: the content decides the identity in
every odd characteristic at once (check_jacobi).  Witnesses (the
permutations of the nonzero canonical triples) are re-evaluated exactly
through the dictionary route before being reported.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, prod
from types import MappingProxyType

import numpy as np

from .fields import Field, make_field
from .linalg import (RowSpace, RowSpaceModP, _rank_primes, common_denominator,
                     exact_array, matmul_exact, matmul_modp, nullspace_field,
                     nullspace_modp, rank_field, rank_modp, rref_modp)

SCHEMA_VERSION = 1


class VerificationFailed(RuntimeError):
    """A structural identity that should hold did not."""


class SuperAlgebra:
    """Z2-graded algebra over an exact field, defined by an ordered basis
    (even part first), per-index parity, and sparse structure constants.
    bracket maps (i, j), either order, to {k: value}; ValueError when the
    two orders of one pair are both given and disagree.  _jacobi holds the
    Jacobi rows build_superalgebra shares among the fields of one (kind,
    l); when it is None, check_jacobi scans the algebra's own table."""

    __slots__ = ("name", "field", "n0", "n1", "labels", "odd_symmetric",
                 "coo", "_table", "_pair_keys", "_rows", "_jacobi")

    def __init__(self, name: str, field: Field, n0: int, n1: int, labels,
                 bracket: dict, odd_symmetric: bool):
        n = n0 + n1
        f = field
        stored = {}
        for (i, j), terms in bracket.items():
            if not (0 <= i < n and 0 <= j < n):
                raise ValueError(f"basis index out of range in ({i},{j})")
            clean = {k: r for k, v in dict(terms).items()
                     if not f.is_zero(r := f.raw(v))}
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
        being residues and scale 1 over GF(p)."""
        n = n0 + n1
        self.name, self.field, self.n0, self.n1 = name, field, n0, n1
        self.labels = labels = tuple(labels)
        if len(labels) != n:
            raise ValueError(f"need {n} labels, got {len(labels)}")
        self.odd_symmetric = odd_symmetric = bool(odd_symmetric)
        self._table = self._pair_keys = self._jacobi = None
        self._rows = {}
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
        return 0 if i < self.n0 else 1

    def _swap_sign(self, i: int, j: int) -> int:
        """Sign s with [e_i, e_j] = s * [e_j, e_i]."""
        if self.odd_symmetric and self.parity(i) and self.parity(j):
            return 1
        return -1

    def bracket_terms(self, i: int, j: int) -> dict:
        """[e_i, e_j] as a zero-free dict k -> raw coefficient.  The stored
        row of a pair is read from coo by binary search on first use."""
        pair = (min(i, j), max(i, j))
        terms = self._rows.get(pair)
        if terms is None:
            I, J, K, V, scale = self.coo
            if self._pair_keys is None:      # stored rows (i <= j) come sorted
                stored = I <= J
                self._pair_keys = I[stored] * self.dim + J[stored]
            key = pair[0] * self.dim + pair[1]
            lo, hi = np.searchsorted(self._pair_keys, (key, key + 1))
            vals = V[lo:hi].tolist()
            if not self.field.p:
                vals = [Fraction(v, scale) for v in vals]
            terms = self._rows[pair] = dict(zip(K[lo:hi].tolist(), vals))
        if i > j and self._swap_sign(i, j) < 0:
            f = self.field
            return {k: f.neg(v) for k, v in terms.items()}
        return dict(terms)

    def bracket_vectors(self, x, y) -> list:
        """Bracket of two coordinate vectors (raw values), as a raw vector."""
        f = self.field
        n = self.dim
        out = [f.zero()] * n
        nx = [(i, v) for i, v in enumerate(x) if not f.is_zero(v)]
        ny = [(j, v) for j, v in enumerate(y) if not f.is_zero(v)]
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
                s = f.add(acc.get(w, f.zero()), f.mul(c, v))
                if f.is_zero(s):
                    acc.pop(w, None)
                else:
                    acc[w] = s

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


def _scan_moduli(A: SuperAlgebra) -> tuple:
    """The moduli the scan sums modulo: (p,) over GF(p); over Q (0,), for
    exact int64 sums, while 3*n*max|V|^2 < 2^63 bounds every sum of at
    most 3n products; past that bound the fewest leading primes of
    linalg._rank_primes() whose product exceeds twice the bound, so that
    the sums are recovered exactly in the symmetric range.  ValueError
    when the primes run out."""
    if A.field.p:
        return (A.field.p,)
    V = A.coo[3]
    top = int(np.abs(V).max()) if V.size else 0
    bound = 3 * A.dim * top * top
    if bound < 1 << 63:
        return (0,)
    moduli, product = [], 1
    for q in _rank_primes():
        moduli.append(q)
        product *= q
        if product > 2 * bound:
            return tuple(moduli)
    raise ValueError(f"{A.name}: the Jacobi sums, bounded by 3*n*max|V|^2 "
                     f"with max|V| = {top}, outrun the product of the fixed primes")


def _scan_matrices(A: SuperAlgebra):
    """The scan data of A's COO table: (orders, moduli, par, odd_symmetric),
    par holding the parity of each basis index.

    Each of the three orders is (key, a, b, vals): the entries sorted by
    key = s*n + a, where s is the index the order is named after, a the
    index the gathers bound, b the remaining index, and vals the values,
    one array per modulus of _scan_moduli (residues, or the numerators V
    over Q within the int64 bound).  By first index: s = first, a =
    second, b = target.  By target: s = target, a = first, b = second,
    stored orientation (first <= second) only.  By second index: s =
    second, a = first, b = target.
    """
    n = A.dim
    I, J, K, V, _ = A.coo
    moduli = _scan_moduli(A)
    if len(moduli) == 1:
        vals = (V,)
    else:
        vals = tuple((V % q).astype(np.int64) for q in moduli)

    def order(s, a, b, vals):
        key = s * n + a
        perm = np.argsort(key, kind="stable")
        return key[perm], a[perm], b[perm], tuple(v[perm] for v in vals)

    kept = I <= J
    orders = (order(I, J, K, vals),
              order(K[kept], I[kept], J[kept], tuple(v[kept] for v in vals)),
              order(J, I, K, vals))
    par = (np.arange(n) >= A.n0).astype(np.int64)
    return orders, moduli, par, A.odd_symmetric


def _gather(key, lo, hi):
    """(owner, pos): the positions pos in the sorted array key of the
    entries with lo[t] <= key <= hi[t], concatenated over t, each with
    its t in owner."""
    start = np.searchsorted(key, lo)
    count = np.searchsorted(key, hi, side="right") - start
    owner = np.repeat(np.arange(count.size), count)
    pos = np.arange(owner.size) + np.repeat(start - np.cumsum(count) + count, count)
    return owner, pos


def _symmetric_crt(residues: np.ndarray, moduli) -> np.ndarray:
    """The integers x with |x| < prod(moduli) / 2 and x = residues[t] mod
    moduli[t] for each t, column by column, as an object array."""
    product = prod(moduli)
    x = sum(r.astype(object) * (product // q * pow(product // q, -1, q))
            for r, q in zip(residues, moduli)) % product
    return np.where(x > product // 2, x - product, x)


def _scan_one_i(mats, i):
    """Row i of the scan of mats (_scan_matrices): the canonical triples
    (i, j, z), i <= j <= z, with J(e_i, e_j, e_z) != 0, sorted, each paired
    with its content g, the gcd of the |coefficients| of J(e_i, e_j, e_z)
    (of the residues over GF(p))."""
    orders, moduli, par, odd_symmetric = mats
    (key1, a1, b1, vals1), (key2, a2, b2, vals2), (key3, a3, b3, vals3) = orders
    n = par.size
    lo, hi = np.searchsorted(key1, (i * n, i * n + n))
    x, y = a1[lo:hi], b1[lo:hi]                       # [e_i, e_x] = sum v e_y
    ge = np.searchsorted(x, i)                         # x[ge:] >= i
    xg, yg = x[ge:], y[ge:]
    top = n - 1
    # [[e_i, e_j], e_z]: j = xg, m = yg, then [e_m, e_z] = sum e_w with z >= j
    o1, q1 = _gather(key1, yg * n + xg, yg * n + top)
    k1 = (xg[o1] * n + a1[q1]) * n + b1[q1]
    # -[e_i, [e_j, e_z]]: [e_j, e_z] with i <= j <= z hits m = x, [e_i, e_m] = e_w
    o2, q2 = _gather(key2, x * n + i, x * n + top)
    k2 = (a2[q2] * n + b2[q2]) * n + y[o2]
    # eps(i,j) [e_j, [e_i, e_z]]: z = xg, m = yg, then [e_j, e_m] with i <= j <= z
    o3, q3 = _gather(key3, yg * n + i, yg * n + xg)
    j3 = a3[q3]
    k3 = (j3 * n + xg[o3]) * n + b3[q3]
    flip = par[j3] == 1 if odd_symmetric and par[i] else None
    keys = np.concatenate([k1, k2, k3])
    if keys.size == 0:
        return ()
    srt = np.argsort(keys)
    keys = keys[srt]
    heads = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))

    # the same gathers for each modulus, summed exactly in int64: each
    # product is reduced mod its modulus first, and the bound checked by
    # _scan_moduli covers every key's at most 3n terms
    sums = []
    for q, v1, v2, v3 in zip(moduli, vals1, vals2, vals3):
        v = v1[lo:hi]
        vg = v[ge:]
        t3 = vg[o3] * v3[q3]
        if flip is not None:
            t3 = np.where(flip, -t3, t3)
        terms = np.concatenate([vg[o1] * v1[q1], -(v[o2] * v2[q2]), t3])[srt]
        if q:
            terms %= q
        sums.append(np.add.reduceat(terms, heads))
        if q:
            sums[-1] %= q
    sums = np.array(sums)
    nonzero = sums.any(axis=0)
    if not nonzero.any():
        return ()
    sums = sums[:, nonzero]
    sums = _symmetric_crt(sums, moduli) if len(moduli) > 1 else sums[0]
    jz = keys[heads[nonzero]] // n
    first = np.flatnonzero(np.diff(jz, prepend=-1))
    content = np.gcd.reduceat(np.abs(sums), first)
    return tuple(((i, t // n, t % n), g)
                 for t, g in zip(jz[first].tolist(), content.tolist()))


class _JacobiRows:
    """Every row of _scan_one_i over one table, each computed on first
    request, in order, and kept.  source() returns the algebra whose table
    is scanned; its _scan_matrices orders are built on the first request
    and dropped once every row is in."""

    __slots__ = ("_source", "_mats", "_rows")

    def __init__(self, source):
        self._source, self._mats, self._rows = source, None, []

    def row(self, i: int) -> tuple:
        while len(self._rows) <= i:
            if self._mats is None:
                self._mats = _scan_matrices(self._source())
                self._source = None
            self._rows.append(_scan_one_i(self._mats, len(self._rows)))
            if len(self._rows) == self._mats[2].size:
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

    The full scan reads the rows of _scan_one_i, the canonical triples
    i <= j <= z with J(e_i, e_j, e_z) != 0, each with its content g: J is
    graded-alternating, so J(x,y,z) vanishes iff each of its permutations
    does.  After row i, the permutations starting with i of the canonical
    triples found so far are exactly the witnesses with first index i, and
    they are added in sorted order.

    An algebra from build_superalgebra, over any field, reads the rows of
    the Q table of its (kind, l), scanned once over the integers.  Over
    GF(p) the table is that integer table times scale^-1 mod p (p never
    divides the scale), so J over GF(p) is the integer J times scale^-2,
    and a triple is kept exactly when p does not divide its content: one
    integer scan decides every odd p.  Any other algebra is scanned over
    its own table, its residues over GF(p); over Q past the int64 bound the
    sums are taken modulo fixed word-size primes (_scan_moduli) and
    recovered by the Chinese remainder theorem.
    """
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
        rest = [set() for _ in range(n)]    # e -> the other two indices
        for i in range(n):
            for t, g in rows.row(i):
                if p and g % p == 0:
                    continue
                for e in set(t):
                    x, y = t[:t.index(e)] + t[t.index(e) + 1:]
                    rest[e].update(((x, y), (y, x)))
            found.extend((i, x, y) for x, y in sorted(rest[i]))
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


def ideal_closure(A: SuperAlgebra, seeds) -> list:
    """Reduced basis of the smallest ideal containing the seed vectors."""
    f = A.field
    n = A.dim
    space = RowSpace(f, n)
    queue = []
    for s in seeds:
        v = [f.raw(x) for x in s]
        if space.insert([v]):
            queue.append(v)
    while queue:
        x = queue.pop()
        for a in range(n):
            ea = [f.one() if t == a else f.zero() for t in range(n)]
            w = A.bracket_vectors(ea, x)
            if any(not f.is_zero(c) for c in w) and not space.contains(w):
                space.insert([w])
                queue.append(w)
    return space.basis()


def derived_algebra(A: SuperAlgebra) -> list:
    """Reduced basis of [A, A]: the row space of the stored brackets, each
    read off coo (over Q times the scale, which leaves the span alone)."""
    n = A.dim
    I, J, K, V, _ = A.coo
    stored = I <= J
    pairs, row = np.unique(I[stored] * n + J[stored], return_inverse=True)
    rows = np.zeros((pairs.size, n), dtype=V.dtype)
    rows[row, K[stored]] = V[stored]
    space = RowSpace(A.field, n)
    space.insert(rows if A.field.p else rows.tolist())
    return space.basis()


def burnside_irreducible(ops, n: int, field: Field) -> bool:
    """True iff the unital associative algebra generated by the operators
    is all of End(k^n), certified by span closure (Burnside): the tests'
    reference for Norton's test, over GF(p) only (ValueError over Q).
    The n x n operators hold integers, read mod p."""
    p = field.p
    if not p:
        raise ValueError("the Burnside closure runs over GF(p) only")
    gens = [np.asarray(M, dtype=np.int64) % p for M in ops]
    space = RowSpaceModP(p, n * n)
    eye = np.eye(n, dtype=np.int64)
    space.insert(eye.reshape(1, -1))
    wave = [eye]
    for g in gens:
        if space.insert(g.reshape(1, -1)):
            wave.append(g)
    while wave and space.dim < n * n:
        prev_basis = {tuple(r) for r in space.basis.tolist()}
        stack = np.stack(wave).reshape(len(wave) * n, n)
        for g in gens:
            space.insert(matmul_modp(stack, g, p).reshape(len(wave), n * n))
        wave = [np.array(r, dtype=np.int64).reshape(n, n)
                for r in space.basis.tolist() if tuple(r) not in prev_basis]
    return space.dim == n * n


# Norton's irreducibility test (Parker, "The computer calculation of modular
# characters (the MeatAxe)", 1984; Holt and Rees, "Testing modules for
# irreducibility", 1994).  Let theta be an element of the algebra generated
# by the operators with a one-dimensional kernel, spanned by v, and let w
# span the kernel of theta^T.  A proper submodule U either meets ker theta,
# and then contains v, or theta is invertible on U and singular on S/U, and
# then w lies in the annihilator of U, a proper submodule of the dual.  So S
# is irreducible iff v spins to S under the operators and w spins to S*
# under their transposes; nullity 1 survives extension of the field, so S
# is then absolutely irreducible.

_NORTON_TRIES = 16      # words tried, and elements theta tried, at most


def _poly_trim(a: list) -> list:
    while a and a[-1] == 0:
        a.pop()
    return a


def _poly_divmod(a, b, p: int):
    """Quotient and remainder over GF(p).  Polynomials are coefficient
    lists from the constant term up; b is nonzero and trimmed."""
    a = list(a)
    db = len(b) - 1
    inv = pow(b[-1], p - 2, p)
    q = [0] * max(len(a) - db, 0)
    for k in range(len(q) - 1, -1, -1):
        c = a[k + db] * inv % p
        q[k] = c
        if c:
            for i, bi in enumerate(b):
                a[k + i] = (a[k + i] - c * bi) % p
    return _poly_trim(q), _poly_trim(a[:db])


def _poly_mulmod(a, b, m, p: int) -> list:
    prod = [0] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                prod[i + j] += x * y
    return _poly_divmod([c % p for c in prod], m, p)[1]


def _poly_powmod(a, e: int, m, p: int) -> list:
    out, a = _poly_divmod([1], m, p)[1], _poly_divmod(a, m, p)[1]
    while e:
        if e & 1:
            out = _poly_mulmod(out, a, m, p)
        a = _poly_mulmod(a, a, m, p)
        e >>= 1
    return out


def _poly_monic_gcd(a, b, p: int) -> list:
    while b:
        a, b = b, _poly_divmod(a, b, p)[1]
    inv = pow(a[-1], p - 2, p)
    return [c * inv % p for c in a]


def _poly_roots(g, p: int, rng) -> list:
    """Roots of a monic g that divides X^p - X, ascending: g is split by
    gcd(g, (X + d)^((p-1)/2) - 1) for random shifts d (Cantor and
    Zassenhaus), never by looping over GF(p)."""
    if len(g) <= 2:
        return [(-g[0]) % p] if len(g) == 2 else []
    while True:
        h = _poly_powmod([rng.randrange(p), 1], (p - 1) // 2, g, p)
        h[0] = (h[0] - 1) % p
        f = _poly_monic_gcd(g, _poly_trim(h), p)
        if 1 < len(f) < len(g):
            q = _poly_divmod(g, f, p)[0]
            return sorted(_poly_roots(f, p, rng) + _poly_roots(q, p, rng))


def _eigenvalues(x: np.ndarray, p: int, rng) -> list:
    """Eigenvalues of x in GF(p), ascending: the roots of the minimal
    polynomial m of a random vector u under x, which divides that of x,
    found as the roots of gcd(m, X^p - X)."""
    n = x.shape[0]
    krylov = np.empty((n + 1, n), dtype=np.int64)
    krylov[0] = [rng.randrange(p) for _ in range(n)]
    for i in range(n):
        krylov[i + 1] = matmul_modp(krylov[i:i + 1], x, p)
    # u x^d is the first power in the span of the earlier ones; column d
    # of the reduced form holds its coordinates
    r, pivots = rref_modp(krylov.T, p)
    d = len(pivots)
    m = [int(-c) % p for c in r[:d, d]] + [1]
    xp = _poly_powmod([0, 1], p, m, p) + [0, 0]
    xp[1] = (xp[1] - 1) % p
    return _poly_roots(_poly_monic_gcd(m, _poly_trim(xp), p), p, rng)


def _spin(vec: np.ndarray, mats, p: int) -> RowSpaceModP:
    """The smallest subspace that holds the row vector vec and is closed
    under v -> v @ M for every M in mats, as a RowSpaceModP."""
    n = vec.shape[0]
    space = RowSpaceModP(p, n)
    space.insert(vec.reshape(1, n))
    wave = vec.reshape(1, n)
    # each wave holds the basis rows that are new since the wave before,
    # which with the rows already spun span the whole space
    while wave.shape[0]:
        old = set(space.pivots)
        for M in mats:
            space.insert(matmul_modp(wave, M, p))
            if space.dim == n:
                return space
        wave = space.basis[[i for i, c in enumerate(space.pivots) if c not in old]]
    return space


def _norton_word(coef: np.ndarray, gens: np.ndarray, p: int) -> np.ndarray:
    """x = a·b + c for a, b, c the combinations of the (k, n, n) generators
    gens with the three rows of coef."""
    k, n, _ = gens.shape
    a, b, c = matmul_modp(coef, gens.reshape(k, n * n), p).reshape(3, n, n)
    return (matmul_modp(a, b, p) + c) % p


def _nullity_one_elements(gens: np.ndarray, p: int):
    """Norton's elements theta = x - lam of nullity 1, in a fixed order.

    x = a·b + c runs over at most _NORTON_TRIES words in random
    combinations a, b, c of the (k, n, n) residue array gens, lam over the
    eigenvalues of x, with at most _NORTON_TRIES thetas tried in all.
    Yields (coef, lam, theta, v): coef the (3, k) coefficients of a, b, c
    and v the row spanning ker theta.  The draws come from a fixed seed.
    """
    eye = np.eye(gens.shape[1], dtype=np.int64)
    rng = random.Random(20050)
    tries = 0
    for _ in range(_NORTON_TRIES):
        coef = np.array([[rng.randrange(p) for _ in gens] for _ in range(3)],
                        dtype=np.int64)
        x = _norton_word(coef, gens, p)
        for lam in _eigenvalues(x, p, rng):
            if tries == _NORTON_TRIES:
                return
            tries += 1
            theta = (x - lam * eye) % p
            kernel = nullspace_modp(theta, p)
            if kernel.shape[0] == 1:
                yield coef, lam, theta, kernel[0]


def norton_irreducible(ops, n: int, p: int):
    """Norton's test for the action of the n x n integer matrices ops on
    GF(p)^n (p an odd prime, n >= 1; entries read mod p).

    Returns (verdict, dim): ("certified", n) when the module is proved
    absolutely irreducible; ("failed", k) when a spin found a proper
    submodule, of dimension k; ("undecided", None) when none of the
    fixed sequence of elements theta = x - lam has nullity 1
    (_nullity_one_elements).
    """
    if n < 1 or not Field(p).p:        # Field refuses 2, composites, p >= 2^26
        raise ValueError("Norton's test needs n >= 1 and an odd prime p")
    gens = np.asarray(ops, dtype=np.int64).reshape(-1, n, n) % p
    # spins act on rows, v -> v @ M: (g v)^T = v^T @ g^T, (g^T w)^T = w^T @ g
    transposed = [np.ascontiguousarray(g.T) for g in gens]
    for _, _, theta, v in _nullity_one_elements(gens, p):
        dim = _spin(v, transposed, p).dim
        if dim < n:
            return "failed", dim
        dual = _spin(nullspace_modp(theta.T, p)[0], gens, p).dim
        if dual < n:
            return "failed", n - dual      # the annihilator of the dual spin
        return "certified", n
    return "undecided", None


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


def _rep_kernel(A: SuperAlgebra, rep: np.ndarray) -> list:
    """Basis of {x in even part : sum x_a rho(e_a) = 0}, as rows of residues."""
    return nullspace_modp(rep.reshape(A.n0, A.n1 * A.n1).T, A.field.p).tolist()


def _largest_ideal_inside(A: SuperAlgebra, kernel_rows) -> int:
    """Dimension of the largest even subspace of span(kernel_rows), rows of
    residues, closed under bracketing with the whole even part."""
    p, n0 = A.field.p, A.n0
    ad = _block(A, 0, 0, 0).reshape(n0, n0 * n0)
    rows = np.asarray(kernel_rows, dtype=np.int64).reshape(-1, n0) % p
    while rows.shape[0]:
        r = rows.shape[0]
        space = RowSpace(A.field, n0)
        space.insert(rows)
        # [x_i, e_b] for every row i and every b, reduced against the span:
        # sum c_i x_i stays inside iff sum c_i resid[i] vanishes
        brackets = matmul_modp(rows, ad, p).reshape(r, n0, n0).transpose(0, 2, 1)
        resid = np.array(space.reduce(brackets.reshape(r * n0, n0)), dtype=np.int64)
        sol = nullspace_modp(resid.reshape(r, n0 * n0).T, p)
        if sol.shape[0] == r:
            return r
        rows = matmul_modp(sol, rows, p)
    return 0


def simplicity_certificate(A: SuperAlgebra):
    """("certified"|"failed"|"undecided", notes) for an algebra over GF(p)
    with an odd part; ValueError otherwise.  Certified means: the derived
    algebra is everything, the even action on the odd part is absolutely
    irreducible (Norton's test), and no nonzero even ideal annihilates the
    odd part.  Undecided means Norton's test found no element of nullity 1
    to test with."""
    if not A.field.p:
        raise ValueError("simplicity certificates are computed over GF(p) only")
    if not A.n1:
        raise ValueError("simplicity certificates need an odd part (n1 >= 1)")
    n = A.dim
    der = derived_algebra(A)
    if len(der) != n:
        return "failed", f"derived algebra has dimension {len(der)} < {n}"
    rep = _block(A, 0, 1, 1)
    verdict, dim = norton_irreducible(rep, A.n1, A.field.p)
    if verdict == "failed":
        return "failed", f"even action on the odd part has a {dim}-dimensional submodule"
    if verdict == "undecided":
        return "undecided", ("Norton's test found no element of nullity 1 "
                             "for the even action on the odd part")
    kernel = _rep_kernel(A, rep)
    if kernel:
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


def _nullspace_rows(M: np.ndarray, field: Field) -> np.ndarray:
    """Right-nullspace basis of M as rows; over GF(p) M is reduced in place."""
    if field.p:
        M %= field.p
        return nullspace_modp(M, field.p)
    return np.array(nullspace_field(M.tolist(), field),
                    dtype=object).reshape(-1, M.shape[1])


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
        allowed &= (pair % p if p else pair)[:, :, None] == A[a].diagonal()
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
    kernel = _nullspace_rows(M, f).T            # columns over the unknowns
    del M
    i = 1
    while i < len(steps) and kernel.shape[1]:
        j = len(steps) if sum(rows[i:]) * kernel.shape[1] <= budget else i + 1
        M = np.vstack([_constraint_times(step, kernel, p) for step in steps[i:j]])
        kernel = matmul_exact(kernel, _nullspace_rows(M, f).T, p)
        i = j
    return kernel.shape[1]


# ---------------------------------------------------------------------------
# isomorphism checking


def verify_isomorphism(mat, A: SuperAlgebra, B: SuperAlgebra) -> bool:
    """True iff mat (columns = images of A's basis in B's coordinates) is a
    parity-preserving bijective homomorphism of the bracket tables.

    mat is a list of rows of field values or, over GF(p), an integer numpy
    array, whose entries are read mod p."""
    if A.field != B.field or (A.n0, A.n1) != (B.n0, B.n1):
        return False
    f = A.field
    n = A.dim
    if f.p and isinstance(mat, np.ndarray) and mat.dtype.kind in "iu":
        M = mat.astype(np.int64) % f.p
    else:
        rows = [[f.raw(x) for x in r] for r in mat]
        if len(rows) != n or any(len(r) != n for r in rows):
            return False
        M = np.array(rows, dtype=np.int64 if f.p else object).reshape(n, n)
    if M.shape != (n, n):
        return False
    n0 = A.n0                      # the even parts of A and B have one size
    if M[:n0, n0:].any() or M[n0:, :n0].any():
        return False
    if f.p:
        p = f.p
        if rank_modp(M, p) != n:
            return False
        I, J, K, V, _ = B.coo
        IA, JA, KA, VA, _ = A.coo
        for i in range(n):
            # E[b, k] = sum_a M[a, i] c_B[a, b, k]: each cell sums at most n
            # residues, exact in float64 since n*(p-1) < 2^53 for p < 2^26
            w = (M[I, i] * V % p).astype(np.float64)
            E = np.bincount(J * n + K, weights=w, minlength=n * n)
            E = E.astype(np.int64).reshape(n, n) % p
            got = matmul_modp(E.T, M, p)                      # [k, j]
            Ti = np.zeros((n, n), dtype=np.int64)             # Ti[j, k] = c_A[i, j, k]
            mine = IA == i
            Ti[JA[mine], KA[mine]] = VA[mine]
            if not np.array_equal(got, matmul_modp(M, Ti.T, p)):
                return False
        return True
    # dense exact route for characteristic zero (small cases)
    rows = M.tolist()
    if rank_field(rows, f) != n:
        return False
    for i in range(n):
        for j in range(n):
            want = [f.zero()] * n
            for k, c in A.bracket_terms(i, j).items():
                for r in range(n):
                    want[r] = f.add(want[r], f.mul(c, rows[r][k]))
            got = B.bracket_vectors([rows[r][i] for r in range(n)],
                                    [rows[r][j] for r in range(n)])
            if got != want:
                return False
    return True
