"""Z2-graded algebras with exact structure constants, and the verification
toolkit around them: graded Jacobi scanning, ideal and derived-algebra
computations, an absolute-irreducibility certificate, the solver for
spaces of equivariant bilinear maps, and isomorphism checking.

Bracket conventions.  A SuperAlgebra stores [e_i, e_j] for i <= j only
(plus odd diagonals); the other order is recovered from the symmetry
flag through bracket_terms: swapping two odd arguments costs no sign
when the algebra is odd_symmetric, and every other swap costs one.
The graded Jacobi identity is taken in the form

    J(x,y,z) = [[x,y],z] + eps(x,y) [y,[x,z]] - [x,[y,z]],

with eps(x,y) = -1 exactly when the algebra is odd_symmetric and both
x, y are odd, so that for three odd elements J reduces to the cyclic
sum rho([s1,s2])(s3) + rho([s2,s3])(s1) + rho([s3,s1])(s2).

The full-mode scanner works on the structure tensor as int64 COO data
(residues mod p, or numerators scaled by the lcm of denominators over
Q), held in three sorted index orders.  Because the table is graded-skew,
J is graded-alternating: J(y,x,z) = -eps(x,y) J(x,y,z), and likewise in
the last two slots.  So for each first index i the scanner evaluates only
the canonical triples i <= j <= z, gathering the terms of [[i,j],z],
[i,[j,z]] and [j,[i,z]] from the entries of row i by binary search in
the sorted orders, at a cost that follows the number of terms.  The
terms are summed exactly in int64: over GF(p) every product is reduced
mod p first, and over Q the table is refused unless 3*n*max|V|^2 < 2^63,
which bounds each sum of at most 3n products.  Witnesses (the
permutations of the nonzero canonical triples) are re-evaluated exactly
through the dictionary route before being reported.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

import numpy as np

from .fields import Field, make_field
from .linalg import (RowSpace, RowSpaceModP, matmul_field, matmul_modp,
                     nullspace_field, nullspace_modp, rank_field, rank_modp,
                     rref_modp)

SCHEMA_VERSION = 1


class VerificationFailed(RuntimeError):
    """A structural identity that should hold did not."""


class SuperAlgebra:
    """Z2-graded algebra over an exact field, defined by an ordered basis
    (even part first), per-index parity, and sparse structure constants."""

    __slots__ = ("name", "field", "n0", "n1", "labels", "odd_symmetric",
                 "table", "_coo_cache")

    def __init__(self, name: str, field: Field, n0: int, n1: int, labels,
                 bracket: dict, odd_symmetric: bool, check: bool = True):
        n = n0 + n1
        labels = tuple(labels)
        if len(labels) != n:
            raise ValueError(f"need {n} labels, got {len(labels)}")
        self.name = name
        self.field = field
        self.n0 = n0
        self.n1 = n1
        self.labels = labels
        self.odd_symmetric = bool(odd_symmetric)
        self.table = {}
        self._coo_cache = None
        f = field
        for (i, j), terms in bracket.items():
            if not (0 <= i < n and 0 <= j < n):
                raise ValueError(f"basis index out of range in ({i},{j})")
            clean = {}
            for k, v in dict(terms).items():
                v = f.raw(v)
                if not f.is_zero(v):
                    clean[k] = v
            if not clean:
                continue
            if i > j:
                sgn = self._swap_sign(i, j)
                clean = {k: (v if sgn > 0 else f.neg(v)) for k, v in clean.items()}
                i, j = j, i
            prev = self.table.get((i, j))
            if prev is not None and prev != clean:
                raise ValueError(f"inconsistent bracket orders for ({i},{j})")
            self.table[(i, j)] = clean
        if check:
            self._validate()

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
        """[e_i, e_j] as a zero-free dict k -> raw coefficient."""
        if i <= j:
            return dict(self.table.get((i, j), ()))
        terms = self.table.get((j, i))
        if not terms:
            return {}
        if self._swap_sign(i, j) > 0:
            return dict(terms)
        f = self.field
        return {k: f.neg(v) for k, v in terms.items()}

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

    def _validate(self):
        f = self.field
        for (i, j), terms in self.table.items():
            want = self.parity(i) ^ self.parity(j)
            for k in terms:
                if not 0 <= k < self.dim:
                    raise ValueError(f"target index {k} out of range")
                if self.parity(k) != want:
                    raise ValueError(
                        f"bracket ({self.labels[i]},{self.labels[j]}) "
                        f"violates the grading at {self.labels[k]}")
            if i == j and self._swap_sign(i, i) < 0:
                raise ValueError(f"[x,x] must vanish for {self.labels[i]}")

    # -- integer view for the batch scanner ------------------------------

    def _coo(self):
        """(I, J, K, V, scale): both bracket orders as int64 COO data.

        Over GF(p) the values are residues and scale is 1; over Q they
        are the exact numerators after multiplying through by scale (the
        lcm of all denominators), refused with ValueError unless
        3*n*max|V|^2 < 2^63, the bound under which the Jacobi scan sums
        in int64 exactly.
        """
        if self._coo_cache is not None:
            return self._coo_cache
        f = self.field
        entries = []
        for (i, j), terms in self.table.items():
            for k, v in terms.items():
                entries.append((i, j, k, v))
                if i != j:
                    sgn = self._swap_sign(j, i)
                    entries.append((j, i, k, v if sgn > 0 else f.neg(v)))
        if f.p:
            scale = 1
            vals = [int(v) % f.p for (_, _, _, v) in entries]
        else:
            fracs = [Fraction(v) for *_, v in entries]
            scale = lcm(*(v.denominator for v in fracs)) if fracs else 1
            vals = [v.numerator * (scale // v.denominator) for v in fracs]
            top = max(map(abs, vals), default=0)
            if 3 * self.dim * top * top >= 1 << 63:
                raise ValueError(
                    f"{self.name}: structure constants up to {top} after clearing "
                    f"denominators break the exact int64 scan bound "
                    f"3*n*max^2 < 2^63 (n = {self.dim})")
        I = np.fromiter((e[0] for e in entries), dtype=np.int64, count=len(entries))
        J = np.fromiter((e[1] for e in entries), dtype=np.int64, count=len(entries))
        K = np.fromiter((e[2] for e in entries), dtype=np.int64, count=len(entries))
        V = np.asarray(vals, dtype=np.int64)
        self._coo_cache = (I, J, K, V, scale)
        return self._coo_cache

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


def _scan_matrices(A: SuperAlgebra):
    """Three sorted index orders of A's COO table, for the gather scan.

    Each order is (key, a, b, v): the entries sorted by key = s*n + a,
    where s is the index the order is named after, a the index the
    gathers bound, b the remaining index and v the integer value.
    By first index: s = first, a = second, b = target.  By target: s =
    target, a = first, b = second, stored orientation (first <= second)
    only.  By second index: s = second, a = first, b = target.

    The canonical-triple scan relies on the table being graded-skew, so
    a diagonal [x,x] with swap sign -1 and, for odd_symmetric algebras,
    a bracket off the grading are refused (check=False lets both in).
    """
    n = A.dim
    I, J, K, V, _ = A._coo()
    par = np.arange(n) >= A.n0
    if np.any((I == J) & ~(A.odd_symmetric & par[I])):
        raise ValueError(f"{A.name}: a stored [x,x] with swap sign -1 must vanish")
    if A.odd_symmetric and np.any(par[K] != (par[I] ^ par[J])):
        raise ValueError(f"{A.name}: a stored bracket violates the grading")

    def order(s, a, b, v):
        key = s * n + a
        perm = np.argsort(key, kind="stable")
        return key[perm], a[perm], b[perm], v[perm]

    kept = I <= J
    return (order(I, J, K, V),
            order(K[kept], I[kept], J[kept], V[kept]),
            order(J, I, K, V))


def _gather(key, lo, hi):
    """(owner, pos): the positions pos in the sorted array key of the
    entries with lo[t] <= key <= hi[t], concatenated over t, each with
    its t in owner."""
    start = np.searchsorted(key, lo)
    count = np.searchsorted(key, hi, side="right") - start
    owner = np.repeat(np.arange(count.size), count)
    pos = np.arange(owner.size) + np.repeat(start - np.cumsum(count) + count, count)
    return owner, pos


def _scan_one_i(A, mats, par, i, odd_only):
    """Canonical triples (i, j, z), i <= j <= z, with J(e_i, e_j, e_z) != 0,
    sorted.  odd_only keeps the triples of odd indices; even indices come
    first, so these are all canonical triples of an odd i and none of an
    even one."""
    if odd_only and not par[i]:
        return ()
    (key1, a1, b1, v1), (key2, a2, b2, v2), (key3, a3, b3, v3) = mats
    n = A.dim
    p = A.field.p
    lo, hi = np.searchsorted(key1, (i * n, i * n + n))
    x, y, v = a1[lo:hi], b1[lo:hi], v1[lo:hi]        # [e_i, e_x] = sum v e_y
    ge = np.searchsorted(x, i)                         # x[ge:] >= i
    xg, yg, vg = x[ge:], y[ge:], v[ge:]
    top = n - 1
    # [[e_i, e_j], e_z]: j = xg, m = yg, then [e_m, e_z] = sum e_w with z >= j
    o1, q1 = _gather(key1, yg * n + xg, yg * n + top)
    k1 = (xg[o1] * n + a1[q1]) * n + b1[q1]
    t1 = vg[o1] * v1[q1]
    # -[e_i, [e_j, e_z]]: [e_j, e_z] with i <= j <= z hits m = x, [e_i, e_m] = e_w
    o2, q2 = _gather(key2, x * n + i, x * n + top)
    k2 = (a2[q2] * n + b2[q2]) * n + y[o2]
    t2 = -(v[o2] * v2[q2])
    # eps(i,j) [e_j, [e_i, e_z]]: z = xg, m = yg, then [e_j, e_m] with i <= j <= z
    o3, q3 = _gather(key3, yg * n + i, yg * n + xg)
    j3 = a3[q3]
    k3 = (j3 * n + xg[o3]) * n + b3[q3]
    t3 = vg[o3] * v3[q3]
    if A.odd_symmetric and par[i]:
        t3 = np.where(par[j3] == 1, -t3, t3)

    # exact int64 sums: each product is reduced mod p over GF(p), and over
    # Q the bound 3*n*max|V|^2 < 2^63 checked by _coo covers every key's
    # at most 3n terms
    keys = np.concatenate([k1, k2, k3])
    if keys.size == 0:
        return ()
    terms = np.concatenate([t1, t2, t3])
    if p:
        terms %= p
    srt = np.argsort(keys)
    keys = keys[srt]
    heads = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
    sums = np.add.reduceat(terms[srt], heads)
    if p:
        sums %= p
    jz = np.unique(keys[heads[sums != 0]] // n)
    return tuple((i, t // n, t % n) for t in jz.tolist())


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

    mode "full" covers every ordered basis triple; "odd-only" restricts
    all three slots to odd indices; "generators" evaluates exactly the
    supplied index triples.  Witnesses are collected in lexicographic
    triple order up to witness_cap, then re-evaluated exactly.

    The full and odd-only scans evaluate canonical triples i <= j <= z
    only: J is graded-alternating, so J(x,y,z) vanishes iff each of its
    permutations does.  After row i, the permutations starting with i of
    the canonical triples found so far are exactly the witnesses with
    first index i, and they are added in sorted order.
    """
    n = A.dim
    if mode == "generators":
        if triples is None:
            raise ValueError("generators mode needs explicit triples")
        found = []
        for t in sorted(tuple(t) for t in triples):
            if len(found) >= witness_cap:
                break
            if j_triple(A, *t):
                found.append(t)
    elif mode in ("full", "odd-only"):
        par = np.array([A.parity(i) for i in range(n)], dtype=np.int64)
        mats = _scan_matrices(A)
        if mode == "odd-only":
            i_list = [i for i in range(n) if par[i]]
        else:
            i_list = list(range(n))
        found = []
        rest = [set() for _ in range(n)]    # e -> the other two indices
        for i in i_list:
            for t in _scan_one_i(A, mats, par, i, mode == "odd-only"):
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


def even_subalgebra(A: SuperAlgebra, check: bool = True) -> SuperAlgebra:
    """The even part of A as a plain (n0, 0) algebra on the same basis."""
    table = {k: dict(v) for k, v in A.table.items()
             if k[0] < A.n0 and k[1] < A.n0}
    return SuperAlgebra(A.name + "_0", A.field, A.n0, 0, A.labels[:A.n0],
                        table, odd_symmetric=False, check=check)


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
    """Reduced basis of [A, A]."""
    f = A.field
    n = A.dim
    space = RowSpace(f, n)
    rows = []
    for (i, j), terms in A.table.items():
        v = [f.zero()] * n
        for k, c in terms.items():
            v[k] = c
        rows.append(v)
    space.insert(rows)
    return space.basis()


def burnside_irreducible(ops, n: int, field: Field) -> bool:
    """True iff the unital associative algebra generated by the operators
    is all of End(k^n), certified by span closure (Burnside).  Over GF(p)
    the n x n operators hold integers, read mod p."""
    f = field
    if f.p:
        p = f.p
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
    gens = [[[f.raw(x) for x in row] for row in M] for M in ops]
    space = RowSpace(f, n * n)
    eye = [[f.one() if i == j else f.zero() for j in range(n)] for i in range(n)]
    space.insert([[x for row in eye for x in row]])
    queue = [eye]
    for g in gens:
        if space.insert([[x for row in g for x in row]]):
            queue.append(g)
    while queue and space.dim < n * n:
        m = queue.pop()
        for g in gens:
            prod = matmul_field(m, g, f)
            if space.insert([[x for row in prod for x in row]]):
                queue.append(prod)
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


def _spin(vec: np.ndarray, mats, p: int) -> int:
    """Dimension of the smallest subspace that holds the row vector vec
    and is closed under v -> v @ M for every M in mats."""
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
                return n
        wave = space.basis[[i for i, c in enumerate(space.pivots) if c not in old]]
    return space.dim


def norton_irreducible(ops, n: int, p: int):
    """Norton's test for the action of the n x n integer matrices ops on
    GF(p)^n (p an odd prime, n >= 1; entries read mod p).

    Returns (verdict, dim): ("certified", n) when the module is proved
    absolutely irreducible; ("failed", k) when a spin found a proper
    submodule, of dimension k; ("undecided", None) when none of the
    fixed sequence of elements theta = x - lam has nullity 1.  The
    words x come from a fixed seed, so every call on the same input
    makes the same steps.
    """
    if n < 1 or not Field(p).p:        # Field refuses 2, composites, p >= 2^26
        raise ValueError("Norton's test needs n >= 1 and an odd prime p")
    gens = np.asarray(ops, dtype=np.int64).reshape(-1, n, n) % p
    flat = gens.reshape(len(gens), n * n)
    # spins act on rows, v -> v @ M: (g v)^T = v^T @ g^T, (g^T w)^T = w^T @ g
    transposed = [np.ascontiguousarray(g.T) for g in gens]
    eye = np.eye(n, dtype=np.int64)
    rng = random.Random(20050)
    tries = 0
    for _ in range(_NORTON_TRIES):
        coef = np.array([[rng.randrange(p) for _ in gens] for _ in range(3)],
                        dtype=np.int64)
        a, b, c = matmul_modp(coef, flat, p).reshape(3, n, n)
        x = (matmul_modp(a, b, p) + c) % p
        for lam in _eigenvalues(x, p, rng):
            if tries == _NORTON_TRIES:
                return "undecided", None
            tries += 1
            theta = (x - lam * eye) % p
            kernel = nullspace_modp(theta, p)
            if kernel.shape[0] != 1:
                continue
            dim = _spin(kernel[0], transposed, p)
            if dim < n:
                return "failed", dim
            dual = _spin(nullspace_modp(theta.T, p)[0], gens, p)
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
    I, J, K, V, _ = A._coo()
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
    """Dimension of the largest even subspace of span(kernel_rows) closed
    under bracketing with the whole even part."""
    f = A.field
    n0 = A.n0
    rows = [list(r) for r in kernel_rows]
    while rows:
        space = RowSpace(f, n0)
        space.insert(rows)
        # conditions: sum_i c_i [k_i, e_b] reduces to zero against the span,
        # one row per coordinate t of the reduced residues
        cond = []
        for b in range(n0):
            eb = [f.one() if t == b else f.zero() for t in range(A.dim)]
            resid = [A.bracket_vectors(r + [f.zero()] * A.n1, eb)[:n0]
                     for r in rows]
            cond += [list(coord) for coord in zip(*space.reduce(resid))]
        # solve sum_i c_i * resid_i = 0 (mod span)
        sol = nullspace_field(cond, f) if cond else []
        if len(sol) == len(rows):
            return len(rows)
        new_rows = []
        for c in sol:
            v = [f.zero()] * n0
            for i, ci in enumerate(c):
                if not f.is_zero(ci):
                    for t in range(n0):
                        v[t] = f.add(v[t], f.mul(ci, rows[i][t]))
            if any(not f.is_zero(x) for x in v):
                new_rows.append(v)
        rows = new_rows
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


def _sparse_rows(mats, f):
    """Per-matrix row views of the nonzero entries: rows[a][i] = [(j, raw),
    ...].  A column view is the row view of the transposed matrices."""
    out = []
    for m in mats:
        rows = {}
        for i, row in enumerate(m):
            for j, x in enumerate(row):
                if x:               # most entries are zero: skip them before raw
                    v = f.raw(x)
                    if not f.is_zero(v):
                        rows.setdefault(i, []).append((j, v))
        out.append(rows)
    return out


def _diagonal_part(rows, dim, f):
    """Diagonal of a sparse view, or None if off-diagonal terms exist."""
    diag = [f.zero()] * dim
    for i, ents in rows.items():
        for j, v in ents:
            if i != j:
                return None
            diag[i] = v
    return diag


def equivariant_map_dim(rep, adjoint, field: Field) -> int:
    """Dimension of the space of even-equivariant bilinear maps S x S -> g0.

    rep: matrices of the generators on S; adjoint: matrices of the same
    generators acting on g0.  The unknown is the coefficient tensor
    B[s,t,c]; invariance under every generator is intersected one
    generator at a time.  Diagonal generator pairs (a torus) are used
    first to cut the unknowns down to weight-compatible triples.
    """
    f = field
    ds = len(rep[0]) if rep else 0
    dg = len(adjoint[0]) if adjoint else 0
    if len(rep) != len(adjoint):
        raise ValueError("rep and adjoint must list the same generators")
    rep_rows = _sparse_rows(rep, f)
    ad_cols = _sparse_rows([zip(*m) for m in adjoint], f)

    torus = []
    rep_diag, ad_diag = {}, {}
    for a in range(len(rep)):
        dr = _diagonal_part(rep_rows[a], ds, f)
        da = _diagonal_part(ad_cols[a], dg, f)
        if dr is not None and da is not None:
            torus.append(a)
            rep_diag[a] = dr
            ad_diag[a] = da

    # unknowns: weight-compatible triples (s,t,c)
    if torus:
        wt = [tuple(rep_diag[a][s] for a in torus) for s in range(ds)]
        rt = {}
        for c in range(dg):
            rt.setdefault(tuple(ad_diag[a][c] for a in torus), []).append(c)
        unknowns = []
        for s in range(ds):
            for t in range(ds):
                key = tuple(f.add(x, y) for x, y in zip(wt[s], wt[t]))
                for c in rt.get(key, ()):
                    unknowns.append((s, t, c))
    else:
        unknowns = [(s, t, c) for s in range(ds) for t in range(ds) for c in range(dg)]
    if not unknowns:
        return 0
    uidx = {u: q for q, u in enumerate(unknowns)}

    # kernel columns over the unknowns, intersected per generator
    cols = [{q: f.one()} for q in range(len(unknowns))]
    torus_set = set(torus)
    for a in range(len(rep)):
        if a in torus_set:
            continue        # already encoded in the unknown set
        if not cols:
            break
        ra, aa = rep_rows[a], ad_cols[a]
        out_rows = {}
        out_cols = []
        for col in cols:
            acc = {}
            for q, x in col.items():
                s, t, c = unknowns[q]
                for c2, v in aa.get(c, ()):
                    key = (s, t, c2)
                    acc[key] = f.add(acc.get(key, f.zero()), f.mul(v, x))
                for s0, v in ra.get(s, ()):
                    key = (s0, t, c)
                    acc[key] = f.sub(acc.get(key, f.zero()), f.mul(v, x))
                for t0, v in ra.get(t, ()):
                    key = (s, t0, c)
                    acc[key] = f.sub(acc.get(key, f.zero()), f.mul(v, x))
            cleaned = {}
            for key, v in acc.items():
                if not f.is_zero(v):
                    cleaned[out_rows.setdefault(key, len(out_rows))] = v
            out_cols.append(cleaned)
        if not out_rows:
            continue
        # constraint matrix M (rows x cols); keep the kernel of M
        nr, nc = len(out_rows), len(out_cols)
        if f.p:
            M = np.zeros((nr, nc), dtype=np.int64)
            for j, col in enumerate(out_cols):
                for r, v in col.items():
                    M[r, j] = int(v) % f.p
            null = nullspace_modp(M, f.p)
            null = [[f.of_int(int(x)) for x in row] for row in null]
        else:
            M = [[f.zero()] * nc for _ in range(nr)]
            for j, col in enumerate(out_cols):
                for r, v in col.items():
                    M[r][j] = v
            null = nullspace_field(M, f)
        new_cols = []
        for coeffs in null:
            vec = {}
            for j, cj in enumerate(coeffs):
                if f.is_zero(cj):
                    continue
                for q, x in cols[j].items():
                    v = f.add(vec.get(q, f.zero()), f.mul(cj, x))
                    if f.is_zero(v):
                        vec.pop(q, None)
                    else:
                        vec[q] = v
            if vec:
                new_cols.append(vec)
        cols = new_cols
    return len(cols)


# ---------------------------------------------------------------------------
# isomorphism checking


def verify_isomorphism(mat, A: SuperAlgebra, B: SuperAlgebra) -> bool:
    """True iff mat (columns = images of A's basis in B's coordinates) is a
    parity-preserving bijective homomorphism of the bracket tables."""
    if A.field != B.field or (A.n0, A.n1) != (B.n0, B.n1):
        return False
    f = A.field
    n = A.dim
    rows = [[f.raw(x) for x in r] for r in mat]
    if len(rows) != n or any(len(r) != n for r in rows):
        return False
    for i in range(n):
        for j in range(n):
            if A.parity(j) != B.parity(i) and not f.is_zero(rows[i][j]):
                return False
    if f.p:
        p = f.p
        M = np.array([[int(x) % p for x in r] for r in rows], dtype=np.int64)
        if rank_modp(M, p) != n:
            return False
        I, J, K, V, _ = B._coo()
        IA, JA, KA, VA, _ = A._coo()
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
