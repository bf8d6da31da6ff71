import random
from fractions import Fraction

import numpy as np
import pytest

from spinlab.fields import QQ, GF
from spinlab.linalg import (SpanSolver, RowSpace, RowSpaceModP, inv_field,
                            inv_modp, matmul_field, matmul_modp, nullspace_field,
                            nullspace_modp, rank_field, rank_modp, rref_field,
                            rref_modp)


def rand_matrix(rng, f, rows, cols, density=0.7):
    out = []
    for _ in range(rows):
        row = []
        for _ in range(cols):
            if rng.random() < density:
                c = rng.randint(-4, 4)
                row.append(f.raw(Fraction(c, rng.choice((1, 1, 2)))) if f.p == 0
                           else f.of_int(c))
            else:
                row.append(f.zero())
        out.append(row)
    return out


def fraction_rank(rows):
    """Textbook Gaussian elimination over Fraction, as the oracle."""
    m = [[Fraction(x) for x in r] for r in rows]
    rank, col, nr = 0, 0, len(m)
    nc = len(m[0]) if m else 0
    while rank < nr and col < nc:
        piv = next((r for r in range(rank, nr) if m[r][col]), None)
        if piv is None:
            col += 1
            continue
        m[rank], m[piv] = m[piv], m[rank]
        m[rank] = [x / m[rank][col] for x in m[rank]]
        for r in range(nr):
            if r != rank and m[r][col]:
                c = m[r][col]
                m[r] = [a - c * b for a, b in zip(m[r], m[rank])]
        rank += 1
        col += 1
    return rank


def test_rank_and_nullspace_match_fraction_oracle():
    rng = random.Random(5)
    for trial in range(25):
        rows = rand_matrix(rng, QQ, rng.randint(1, 7), rng.randint(1, 7))
        want = fraction_rank(rows)
        assert rank_field(rows, QQ) == want
        null = nullspace_field(rows, QQ)
        assert len(null) == len(rows[0]) - want
        for v in null:
            for r in rows:
                assert sum(a * b for a, b in zip(r, v)) == 0


def test_modp_agrees_with_field_path_on_integer_matrices():
    rng = random.Random(9)
    f = GF(7)
    for trial in range(25):
        nr, nc = rng.randint(1, 8), rng.randint(1, 8)
        rows = [[rng.randrange(7) for _ in range(nc)] for _ in range(nr)]
        arr = np.array(rows, dtype=np.int64)
        assert rank_modp(arr, 7) == rank_field(rows, f)
        R, piv = rref_modp(arr, 7)
        Rf, pivf = rref_field(rows, f)
        assert [[int(x) for x in row] for row in R[:len(piv)]] == Rf
        assert list(piv) == list(pivf)
        null = nullspace_modp(arr, 7)
        assert len(null) == nc - len(piv)
        if len(null):
            assert not ((arr @ np.array(null).T) % 7).any()


@pytest.mark.parametrize("f", [QQ, GF(5)], ids=repr)
def test_inverse(f):
    rng = random.Random(3)
    found = 0
    while found < 10:
        n = rng.randint(1, 6)
        A = rand_matrix(rng, f, n, n, density=0.9)
        if (rank_field(A, f) if f.p == 0
                else rank_modp(np.array(A, dtype=np.int64), f.p)) < n:
            continue
        found += 1
        if f.p:
            Ai = inv_modp(np.array(A, dtype=np.int64), f.p)
            assert (np.array(A) @ Ai % f.p == np.eye(n, dtype=np.int64)).all()
        else:
            Ai = inv_field(A, f)
            prod = matmul_field(A, Ai, f)
            assert prod == [[f.one() if i == j else f.zero() for j in range(n)]
                            for i in range(n)]


def test_singular_inverse_raises():
    with pytest.raises(ValueError):
        inv_field([[1, 2], [2, 4]], QQ)
    with pytest.raises(ValueError):
        inv_modp(np.array([[1, 2], [2, 4]], dtype=np.int64), 5)


@pytest.mark.parametrize("f", [QQ, GF(5)], ids=repr)
def test_rowspace_membership(f):
    sp = RowSpace(f, 3)
    assert sp.insert([[f.of_int(1), f.of_int(2), f.zero()]]) == 1
    assert sp.insert([[f.of_int(2), f.of_int(4), f.zero()]]) == 0
    assert sp.dim == 1
    assert sp.contains([f.of_int(-3), f.of_int(-6), f.zero()])
    assert not sp.contains([f.one(), f.zero(), f.zero()])
    assert sp.insert([[f.zero(), f.zero(), f.one()]]) == 1
    basis = sp.basis()
    assert len(basis) == 2
    # reduction clears the pivot columns 0 and 2 and keeps what is left
    assert sp.reduce([[3, 7, 5], [-3, -6, 2]]) == [[0, 1, 0], [0, 0, 0]]


@pytest.mark.parametrize("space", [lambda: RowSpace(QQ, 0),
                                   lambda: RowSpace(GF(5), 0),
                                   lambda: RowSpaceModP(5, 0)],
                         ids=["Q", "GF(5)", "modp"])
def test_rowspace_of_width_zero(space):
    sp = space()
    assert sp.insert([]) == 0 and sp.insert([[]]) == 0
    assert sp.dim == 0 and sp.contains([])
    if isinstance(sp, RowSpace):
        assert sp.reduce([]) == [] and sp.reduce([[]]) == [[]]


def test_rowspace_modp_matches_generic():
    # RowSpace over GF(5) (numpy) against rref_field/rank_field (pure Python),
    # fed unreduced integers: negative entries, lists and numpy arrays alike
    rng = random.Random(1)
    f = GF(5)
    for trial in range(12):
        vecs = [[rng.randint(-7, 7) for _ in range(6)] for _ in range(rng.randint(1, 6))]
        space = RowSpace(f, 6)
        for t, v in enumerate(vecs):
            space.insert(np.array([v]) if t % 2 else [v])
        raw = [[f.of_int(x) for x in v] for v in vecs]
        R, piv = rref_field(raw, f)
        assert space.dim == rank_field(raw, f) == len(piv)
        assert space.basis() == R and space.pivots == piv
        batch = RowSpace(f, 6)
        assert batch.insert(np.array(vecs)) == len(piv)
        assert batch.basis() == R
        if trial % 2:
            probe = [sum(rng.randint(-3, 3) * v[c] for v in vecs) for c in range(6)]
        else:
            probe = [rng.randint(-7, 7) for _ in range(6)]
        inside = rank_field(raw + [[f.of_int(x) for x in probe]], f) == len(piv)
        assert space.contains(probe) == inside
        assert space.contains(np.array(probe)) == inside


@pytest.mark.parametrize("f", [QQ, GF(7)], ids=repr)
def test_matmul_field_rectangular_with_zero_rows_and_columns(f):
    def raw(m):
        return [[f.of_int(x) for x in row] for row in m]

    a = [[1, 0, 2, -1],        # column 1 is zero, row 1 is zero
         [0, 0, 0, 0],
         [3, 0, -2, 5]]
    b = [[2, 0, 1],            # column 1 is zero, row 2 is zero
         [5, 0, 3],
         [0, 0, 0],
         [1, 0, -4]]
    assert matmul_field(raw(a), raw(b), f) == raw([[1, 0, 5],
                                                   [0, 0, 0],
                                                   [11, 0, -17]])
    col, row = [[1], [0], [-2]], [[3, 0, 1]]
    assert matmul_field(raw(col), raw(row), f) == raw([[3, 0, 1],
                                                       [0, 0, 0],
                                                       [-6, 0, -2]])
    assert matmul_field(raw(row), raw(col), f) == raw([[1]])
    assert matmul_field(raw([[0, 0]]), raw([[4, 1, 2], [3, 0, 6]]), f) == raw([[0, 0, 0]])


@pytest.mark.parametrize("f", [QQ, GF(7)], ids=repr)
def test_span_solver_coords(f):
    rows = [[f.of_int(1), f.of_int(1), f.zero()],
            [f.zero(), f.of_int(2), f.of_int(1)],
            [f.of_int(1), f.of_int(3), f.of_int(1)]]   # row2 = row0 + row1
    sol = SpanSolver(f, rows)
    assert sol.rank == 2
    target = [f.of_int(2), f.of_int(4), f.of_int(1)]   # 2*row0 + row1
    coeffs = sol.coords(target)
    assert coeffs is not None
    recon = [f.zero()] * 3
    for c, row in zip(coeffs, rows):
        recon = [f.add(a, f.mul(c, b)) for a, b in zip(recon, row)]
    assert recon == target
    assert sol.coords([f.one(), f.zero(), f.one()]) is None


def test_matmul_modp_exact_at_the_largest_prime():
    p = 67108859                          # largest prime below 2^26
    a = np.array([[p - 1]], dtype=np.int64)
    assert matmul_modp(a, a, p).tolist() == [[1]]
    rows = np.full((3, 5), p - 1, dtype=np.int64)
    assert matmul_modp(rows, rows.T, p).tolist() == [[5 % p] * 3] * 3


@pytest.mark.parametrize("p", [3, 5, 7])
def test_nullspace_modp_matches_field_path(p):
    # the same rows, in the same order, as the field-generic elimination
    f = GF(p)
    rng = random.Random(p)
    shapes = [(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(40)]
    shapes += [(1, 6), (6, 1), (5, 5), (0, 4), (4, 0), (0, 0)]
    for nr, nc in shapes:
        rows = [[rng.randrange(p) if rng.random() < 0.6 else 0 for _ in range(nc)]
                for _ in range(nr)]
        arr = np.array(rows, dtype=np.int64).reshape(nr, nc)
        null = nullspace_modp(arr, p)
        assert null.shape == (len(null), nc)
        want = nullspace_field(rows, f) if nr else [
            [int(i == j) for j in range(nc)] for i in range(nc)]
        assert null.tolist() == want, (nr, nc)
    zero = np.zeros((3, 4), dtype=np.int64)
    assert nullspace_modp(zero, p).tolist() == np.eye(4, dtype=np.int64).tolist()
    full = np.array([[1, 2, 0], [0, 1, 1], [1, 0, 2]], dtype=np.int64)
    assert rank_modp(full, p) == 3
    assert nullspace_modp(full, p).shape == (0, 3)
    one_row = np.array([[0, 2, 1, 0]], dtype=np.int64)
    assert nullspace_modp(one_row, p).tolist() == nullspace_field(one_row.tolist(), f)
