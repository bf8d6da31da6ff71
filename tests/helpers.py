"""Shared builders and oracles for the test suite."""

import itertools
from collections import defaultdict
from fractions import Fraction
from functools import lru_cache

import numpy as np

from spinor_reference import model
from spinlab import tits
from spinlab.construct import build_superalgebra
from spinlab.fields import make_field
from spinlab.kac import J_DIM, J_PARITY, _j_tensor
from spinlab.clifford import (half_spin_masks, pair_basis, rho_tables, so_bracket_table,
                              so_dim)
from spinlab.linalg import RowSpace, _red, exact_array, matmul_modp
from spinlab.superalgebra import SuperAlgebra, _brackets_into, _stored_half

# the gcd of the contents of all nonzero Jacobi triples of the Q table
CONTENTS = {("B", 1): 0, ("B", 2): 0, ("B", 3): 12, ("B", 4): 0,
            ("B", 5): 20, ("B", 6): 24, ("B", 7): 4, ("B", 8): 8,
            ("D", 2): 0, ("D", 4): 0, ("D", 6): 24, ("D", 8): 0}


def rep_and_adjoint(l, kind, field, parity=None):
    """Dense matrices of the pair basis acting on the spin module (or on
    one half-spin block) and on so itself, as parallel generator lists."""
    f = field
    if parity is None:
        masks = list(range(1 << l))
    else:
        masks = list(half_spin_masks(l, parity))
    pos = {m: i for i, m in enumerate(masks)}
    ds = len(masks)
    tgt, cof = rho_tables(l, kind)
    npairs = len(pair_basis(l, kind).pairs)
    rep = []
    for k in range(npairs):
        M = [[f.zero()] * ds for _ in range(ds)]
        for m in masks:
            c = int(cof[k, m])
            if c:
                M[pos[int(tgt[k, m])]][pos[m]] = f.of_int(c)
        rep.append(M)
    adjoint = [[[f.zero()] * npairs for _ in range(npairs)] for _ in range(npairs)]
    for k1, k2, k3, coeff in zip(*(a.tolist() for a in so_bracket_table(l, kind))):
        adjoint[k1][k3][k2] = f.of_int(coeff)
    return rep, adjoint


def closed_form_cases(l, f):
    """The paper's closed-form odd brackets of kind B, l >= 3, as (got,
    want) pairs of {index: raw} dicts read off the built algebra over f by
    label: [s, t] for module monomials s, t."""
    A = build_superalgebra(l, "B", f)

    def br(s, t):                   # kind B: the module index is the mask
        return A.bracket_terms(A.n0 + s, A.n0 + t)

    def so(*terms):
        return {A.labels.index(lab): f.raw(c) for c, lab in terms}

    top = (1 << l) - 1
    sign = (-1) ** ((l + 1) * l // 2)
    return [
        # [1, v1...vl] = -(1/4) sum [vi,fi]
        (br(0, top), so(*[(Fraction(-1, 4), f"[v{i+1},f{i+1}]") for i in range(l)])),
        # [1, v1...v_{l-1}] = ((-1)^l/4) [u,fl]
        (br(0, top >> 1), so((Fraction((-1) ** l, 4), f"[u,f{l}]"))),
        # [1, v1...v_{l-2}] = (1/2) [f_{l-1},f_l]
        (br(0, top >> 2), so((Fraction(1, 2), f"[f{l-1},f{l}]"))),
        # [v1...vl, v1] = -(sign/4) [u,v1],  sign = (-1)^binom(l+1,2)
        (br(top, 0b1), so((Fraction(-sign, 4), "[u,v1]"))),
        # [v1...vl, v1v2] = -(sign/2) [v1,v2]
        (br(top, 0b11), so((Fraction(-sign, 2), "[v1,v2]"))),
        # [1, v1...vr] = 0 for r <= l-3
        *((br(0, (1 << r) - 1), {}) for r in range(l - 2)),
    ]


def rho_witness(l, kind, field, tables=None):
    """tits._rep_witness for the spin action of (kind, l), rho_tables or
    the given (tgt, cof), on the whole exterior algebra: the first Jacobi
    witness of so x| S, or None when rho is a Lie homomorphism."""
    p, d, N = field.p, so_dim(l, kind), 1 << l
    k1, k2, k3, c = so_bracket_table(l, kind)
    so = SuperAlgebra._from_coo(f"so_{kind}{l}", field, d, 0, pair_basis(l, kind).labels,
                                (*_stored_half(k1, k2, k3, _red(c, p), d, d, p, False), 1),
                                odd_symmetric=False)
    tgt, cof = tables or rho_tables(l, kind)
    rep = np.zeros((d, N, N), dtype=np.int64)
    rep[np.arange(d)[:, None], tgt, np.arange(N)] = _red(cof.astype(np.int64), p)
    return tits._rep_witness(so, rep, field)


def simple_roots(l, kind):
    """Pair indices of [v_i,f_i+1] for i < l, and [u,v_l] (B) or
    [v_l-1,v_l] (D)."""
    labels = pair_basis(l, kind).labels
    names = [f"[v{i},f{i + 1}]" for i in range(1, l)]
    names.append(f"[u,v{l}]" if kind == "B" else f"[v{l - 1},v{l}]")
    return [labels.index(x) for x in names]


def mask_signs(l, kind):
    """The +-1 image of every mask, both parities for kind D, each class
    rooted at +1: across an edge x -> y of a simple root vector the signs
    multiply to sign(cof) times the sign at x of the first sigma moving x
    to y (a sigma permutes masks by a fixed xor)."""
    tgt, cof = rho_tables(l, kind)
    perm, sign = model(l, kind).sigma
    first = {}
    for k in range(len(perm)):
        first.setdefault(int(perm[k][0]), k)
    edges = defaultdict(list)
    for a in simple_roots(l, kind):
        for x in np.flatnonzero(cof[a]).tolist():
            y = int(tgt[a, x])
            rel = int(np.sign(cof[a, x]) * sign[first[x ^ y]][x])
            edges[x].append((y, rel))
            edges[y].append((x, rel))
    eps = np.zeros(1 << l, dtype=np.int64)
    for root in (0, 1) if kind == "D" else (0,):
        eps[root], queue = 1, [root]
        for x in queue:
            for y, rel in edges[x]:
                if not eps[y]:
                    eps[y] = eps[x] * rel
                    queue.append(y)
    assert eps.all(), (kind, l)
    return eps


def traces(l, kind, eps):
    """T[a, k] = tr(D rho(B_a) D sigma_k) over the whole exterior algebra,
    as integers."""
    tgt, cof = rho_tables(l, kind)
    perm, sign = model(l, kind).sigma
    # sigma_k e_j = sign e_perm[j], then D rho(B_a) D returns to e_j or not
    back = tgt[:, perm] == np.arange(1 << l)
    vals = (eps[tgt] * eps * cof)[:, perm] * sign
    return (back * vals).sum(2)


def in_span(space, row) -> bool:
    """Whether row lies in the span of the RowSpaceModP space: it reduces
    to zero modulo the span."""
    return not space.reduce([row]).any()


def solver_rank(solver) -> int:
    """The rank of the rows of a SpanSolver: one reduced row per pivot."""
    return len(solver._pivots)


def gauss_jordan(rows, p=0):
    """Textbook Gauss-Jordan elimination on lists, the tests' oracle for
    linalg: (nonzero reduced rows, pivot columns) over GF(p), or over Q
    in Fractions when p = 0."""
    m = [[int(x) % p if p else Fraction(x) for x in r] for r in rows]
    rank, col, nr = 0, 0, len(m)
    nc = len(m[0]) if m else 0
    pivots = []
    while rank < nr and col < nc:
        piv = next((r for r in range(rank, nr) if m[r][col]), None)
        if piv is None:
            col += 1
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = pow(m[rank][col], -1, p) if p else 1 / m[rank][col]
        m[rank] = [x * inv % p if p else x * inv for x in m[rank]]
        for r in range(nr):
            if r != rank and m[r][col]:
                c = m[r][col]
                m[r] = [(a - c * b) % p if p else a - c * b
                        for a, b in zip(m[r], m[rank])]
        pivots.append(col)
        rank += 1
        col += 1
    return m[:rank], pivots


def gauss_jordan_nullspace(rows, ncols, p=0):
    """Right-nullspace basis of rows with ncols columns from gauss_jordan:
    one vector per free column in increasing order, the free entry 1."""
    red, pivots = gauss_jordan(rows, p)
    basis = []
    for free in (c for c in range(ncols) if c not in pivots):
        v = [0 if p else Fraction(0)] * ncols
        v[free] = 1
        for row, pc in zip(red, pivots):
            v[pc] = -row[free] % p if p else -row[free]
        basis.append(v)
    return basis


def first_bad_pair(mat, A, B):
    """First basis pair of A whose bracket is not preserved by mat, by
    dictionary arithmetic: the tests' reference for verify_isomorphism."""
    f = A.field
    n = A.dim
    cols = [[mat[r][j] for r in range(B.dim)] for j in range(n)]
    for i in range(n):
        for j in range(i, n):
            lhs = B.bracket_vectors(cols[i], cols[j])
            rhs = [f.zero()] * B.dim
            for k, v in A.bracket_terms(i, j).items():
                for r in range(B.dim):
                    rhs[r] = f.add(rhs[r], f.mul(v, mat[r][k]))
            if lhs != rhs:
                return (A.labels[i], A.labels[j])
    return None


def first_unpreserved_pair_by_columns(M, A, B):
    """The first pair (i, j), i <= j, with E(i, j) = [M e_i, M e_j] -
    M [e_i, e_j] != 0, or None, one column of E per step by dense products:
    the tests' reference for superalgebra._first_unpreserved_pair.  Column
    j of E is M^T times the rows [f_b, M e_j], minus the rows [e_i, e_j]
    times M^T."""
    p, n = A.field.p, A.dim
    MT = np.ascontiguousarray(M.T)
    unit = np.eye(n, dtype=np.int64)
    for j in range(n):
        got = matmul_modp(MT, _brackets_into(B, M[:, j]), p)
        want = matmul_modp(_brackets_into(A, unit[j]), MT, p)
        bad = np.flatnonzero((got != want).any(axis=1))
        if bad.size:
            return tuple(sorted((j, int(bad[0]))))
    return None


def ideal_closure_by_dictionary(A, seeds):
    """Reduced basis of the closure of the seeds under x -> [e_a, x], one
    bracket_vectors call per basis element per new vector: the tests'
    reference for ideal_closure."""
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
            ea = [f.of_int(1) if t == a else f.zero() for t in range(n)]
            w = A.bracket_vectors(ea, x)
            if any(c != 0 for c in w) and not in_span(space, w):
                space.insert([w])
                queue.append(w)
    return space.basis.tolist()


@lru_cache(maxsize=None)
def lmul_brackets_by_loops(p):
    """The reference for kac._lmul_brackets, from kac._j_tensor(p) alone:
    {(x, y): [L_x, L_y] = L_x L_y -+ L_y L_x on K(x)K, a 9x9 nested list
    of raw values}, entry by entry over the field of characteristic p.
    Each bracket must annihilate 1 and keep K(x)K."""
    f = make_field(p)
    T = _j_tensor(p).tolist()                     # L_x[i][k] = T[x][k][i]
    out = {}
    for x, y in itertools.product(range(J_DIM), repeat=2):
        sign = 1 if J_PARITY[x] and J_PARITY[y] else -1
        full = [[f.raw(sum(T[x][k][i] * T[y][j][k] + sign * T[y][k][i] * T[x][j][k]
                           for k in range(J_DIM)))
                 for j in range(J_DIM)] for i in range(J_DIM)]
        assert not any(full[0]) and not any(row[0] for row in full), (x, y)
        out[x, y] = [row[1:] for row in full[1:]]
    return out


def j_associators(p):
    """(xy)z - x(yz) for every basis triple of J, from kac._j_tensor(p): a
    (10, 10, 10, 10) exact array [x, y, z, k] over the field of
    characteristic p."""
    T, n = _j_tensor(p), J_DIM
    left = matmul_modp(T.reshape(n * n, n), T.reshape(n, n * n), p)
    right = matmul_modp(T.reshape(n * n, n), T.transpose(1, 0, 2).reshape(n, n * n), p)
    return _red(left.reshape((n,) * 4)
                - right.reshape((n,) * 4).transpose(2, 0, 1, 3), p)


def j_product(p, u, v):
    """uv in J for coordinate vectors u, v, from kac._j_tensor(p)."""
    uv = np.outer(exact_array(u, p), exact_array(v, p)).reshape(1, -1)
    return matmul_modp(uv, _j_tensor(p).reshape(J_DIM * J_DIM, J_DIM), p)[0]
