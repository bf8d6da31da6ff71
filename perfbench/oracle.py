"""Correctness checks that share no code with spinlab.

Everything here reads only the public data of an algebra (its bracket
table, dims, parity split and symmetry flag) and recomputes with plain
Python numbers or small numpy eliminations.  The expected verdicts are
transcribed from the paper's classification, not read from the package
data files.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction

import numpy as np

ALL = "all"

# (l, characteristics) where the graded Jacobi identity holds; 0 is Q.
PAPER_PASS = {
    "B": {1: ALL, 2: ALL, 3: {3}, 4: ALL, 5: {5}, 6: {3}},
    "D": {2: ALL, 4: ALL, 6: {3}, 8: ALL},
}


def paper_verdict(kind: str, l: int, char: int) -> bool:
    chars = PAPER_PASS[kind].get(l, set())
    return chars == ALL or char in chars


def expected_dims(kind: str, l: int) -> tuple:
    """(dim so, dim spin module): so(2l+1) on 2^l, or so(2l) on 2^(l-1)."""
    if kind == "B":
        return (2 * l + 1) * l, 1 << l
    return l * (2 * l - 1), 1 << (l - 1)


# ---------------------------------------------------------------------------
# brackets and the graded Jacobi identity over a bracket table


def _normalize(vec: dict, p: int) -> dict:
    if p:
        vec = {k: v % p for k, v in vec.items()}
    return {k: v for k, v in vec.items() if v}


def basis_bracket(A, i: int, j: int) -> dict:
    """[e_i, e_j] from the stored i <= j half of the table."""
    if i <= j:
        return A.table.get((i, j), {})
    terms = A.table.get((j, i), {})
    both_odd = i >= A.n0 and j >= A.n0
    if A.odd_symmetric and both_odd:
        return terms
    return {k: -v for k, v in terms.items()}


def bracket(A, x: dict, y: dict) -> dict:
    """Bracket of two sparse vectors {index: value}."""
    out: dict = {}
    for i, xi in x.items():
        for j, yj in y.items():
            c = xi * yj
            for k, v in basis_bracket(A, i, j).items():
                out[k] = out.get(k, 0) + c * v
    return _normalize(out, A.field.p)


def jacobi(A, i: int, j: int, k: int) -> dict:
    """J = [[x,y],z] + eps [y,[x,z]] - [x,[y,z]] on basis vectors, with
    eps = -1 exactly when the algebra is a superalgebra and x, y are odd."""
    x, y, z = {i: 1}, {j: 1}, {k: 1}
    eps = -1 if A.odd_symmetric and i >= A.n0 and j >= A.n0 else 1
    out: dict = {}
    for sign, vec in ((1, bracket(A, bracket(A, x, y), z)),
                      (eps, bracket(A, y, bracket(A, x, z))),
                      (-1, bracket(A, x, bracket(A, y, z)))):
        for w, v in vec.items():
            out[w] = out.get(w, 0) + sign * v
    return _normalize(out, A.field.p)


def scalar_text(v, p: int) -> str:
    if p:
        return str(v % p)
    v = Fraction(v)
    return str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"


def sample_triples(A, rng, count: int) -> list:
    """Triples whose first bracket is nonzero, so the identity has terms."""
    keys = sorted(A.table)
    n = A.n0 + A.n1
    out = []
    for _ in range(count):
        i, j = keys[rng.randrange(len(keys))]
        if rng.random() < 0.5:
            i, j = j, i
        out.append((i, j, rng.randrange(n)))
    return out


# ---------------------------------------------------------------------------
# linear algebra mod p


def rref_modp(mat, p: int):
    a = np.array(mat, dtype=np.int64) % p
    rows, cols = a.shape
    pivots = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        hit = np.nonzero(a[r:, c])[0]
        if hit.size == 0:
            continue
        a[[r, r + hit[0]]] = a[[r + hit[0], r]]
        a[r] = a[r] * pow(int(a[r, c]), p - 2, p) % p
        col = a[:, c].copy()
        col[r] = 0
        a = (a - np.outer(col, a[r])) % p
        pivots.append(c)
        r += 1
    return a[:r], pivots


def rank_modp(mat, p: int) -> int:
    mat = np.asarray(mat)
    return len(rref_modp(mat, p)[1]) if mat.size else 0


def nullspace_modp(mat, p: int) -> np.ndarray:
    red, pivots = rref_modp(mat, p)
    cols = np.asarray(mat).shape[1]
    free = [c for c in range(cols) if c not in pivots]
    out = np.zeros((len(free), cols), dtype=np.int64)
    for t, fc in enumerate(free):
        out[t, fc] = 1
        for r, pc in enumerate(pivots):
            out[t, pc] = -red[r, fc] % p
    return out


# ---------------------------------------------------------------------------
# structure checks over GF(p)


def table_matrix(A) -> np.ndarray:
    """All stored brackets as rows of coordinates mod p."""
    p = A.field.p
    n = A.n0 + A.n1
    rows = np.zeros((len(A.table), n), dtype=np.int64)
    for r, terms in enumerate(A.table.values()):
        for k, v in terms.items():
            rows[r, k] = int(v) % p
    return rows


def odd_action(A) -> np.ndarray:
    """rho[a] = matrix of ad(e_a) on the odd part, for every even a."""
    p = A.field.p
    n0, n1 = A.n0, A.n1
    rho = np.zeros((n0, n1, n1), dtype=np.int64)
    for a in range(n0):
        for s in range(n1):
            for k, v in A.table.get((a, n0 + s), {}).items():
                rho[a, k - n0, s] = int(v) % p
    return rho


def generated_dim(rho: np.ndarray, v, p: int) -> int:
    """Dimension of the g0-submodule generated by the odd vector v."""
    basis, _ = rref_modp([v], p)
    while True:
        images = np.einsum("aij,bj->abi", rho, basis).reshape(-1, rho.shape[1]) % p
        grown, _ = rref_modp(np.vstack([basis, images]), p)
        if grown.shape[0] == basis.shape[0]:
            return basis.shape[0]
        basis = grown


def odd_annihilator_ideal(A) -> int:
    """Dimension of {x in g0 : [x, g1] = 0} if it is an ideal of g, else -1."""
    p = A.field.p
    rho = odd_action(A)
    n0 = A.n0
    kernel = nullspace_modp(rho.reshape(n0, -1).T, p)
    if kernel.shape[0] == 0:
        return 0
    for b in range(n0):
        images = []
        for row in kernel:
            x = {a: int(c) for a, c in enumerate(row) if c}
            img = bracket(A, {b: 1}, x)
            images.append([img.get(t, 0) for t in range(n0)])
        if rank_modp(np.vstack([kernel, images]), p) != kernel.shape[0]:
            return -1
    return kernel.shape[0]


def matrix_sha256(mat) -> str:
    blob = json.dumps([[str(x) for x in row] for row in mat], separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def column_vector(mat, c: int) -> dict:
    return {r: int(row[c]) for r, row in enumerate(mat) if int(row[c])}


def apply(mat, vec: dict, p: int) -> dict:
    out: dict = {}
    for c, v in vec.items():
        for r, row in enumerate(mat):
            x = int(row[c])
            if x:
                out[r] = out.get(r, 0) + x * v
    return _normalize(out, p)
