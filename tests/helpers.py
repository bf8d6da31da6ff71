"""Shared builders and oracles for the test suite."""

from fractions import Fraction

import numpy as np

from spinlab.clifford import half_spin_masks, pair_basis, rho_tables, so_bracket_table
from spinlab.linalg import RowSpace, matmul_modp
from spinlab.superalgebra import _brackets_into


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
            ea = [f.one() if t == a else f.zero() for t in range(n)]
            w = A.bracket_vectors(ea, x)
            if any(not f.is_zero(c) for c in w) and not space.contains(w):
                space.insert([w])
                queue.append(w)
    return space.basis.tolist()
