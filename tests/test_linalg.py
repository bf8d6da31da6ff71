import random
from fractions import Fraction

import numpy as np
import pytest

from spinlab import linalg
from spinlab.fields import QQ, GF, DivideByZero, make_field
from spinlab.linalg import (SpanSolver, RowSpace, RowSpaceModP, combine,
                            common_denominator, exact_array, inv_modp,
                            matmul_modp, nullspace_modp, pair_products,
                            rank_int, rank_modp, rref_modp)
from spinlab.linalg import _rank_primes

from helpers import gauss_jordan, gauss_jordan_nullspace, in_span, solver_rank


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


def test_rank_and_nullspace_match_fraction_oracle():
    # over Q (p = 0) the kernels run on Fractions: the RREF, its pivots and
    # the nullspace rows are those of the oracle, exactly
    rng = random.Random(5)
    for trial in range(25):
        rows = rand_matrix(rng, QQ, rng.randint(1, 7), rng.randint(1, 7))
        R_want, piv_want = gauss_jordan(rows)
        want = len(piv_want)
        assert rank_modp(rows, 0) == want
        R, piv = rref_modp(rows, 0)
        assert R[:want].tolist() == R_want and piv == piv_want
        assert not R[want:].any()
        null = nullspace_modp(rows, 0)
        assert null.tolist() == gauss_jordan_nullspace(rows, len(rows[0]))
        assert all(type(x) is Fraction for x in null.flat)
        assert len(null) == len(rows[0]) - want
        for v in null:
            for r in rows:
                assert sum(a * b for a, b in zip(r, v)) == 0


@pytest.mark.parametrize("p", [0, 3, 7])
def test_rref_of_sparse_rank_deficient_and_tall_matrices_matches_the_oracle(p):
    # the elimination scales and subtracts only the nonzero columns of each
    # pivot row: on sparse rows (density 0.15), rows repeated as sums of
    # others (rank deficient) and tall stacks it still gives the oracle's
    # R and pivots, with the zero rows at the bottom
    f = make_field(p)
    rng = random.Random(41 + p)
    for trial in range(30):
        nr, nc = rng.randint(1, 12), rng.randint(1, 12)
        rows = rand_matrix(rng, f, nr, nc, density=0.15)
        if trial % 3 == 1:              # rank deficient: append sums of rows
            rows += [[f.add(x, y) for x, y in zip(rows[0], rows[-1])]] * 2
        elif trial % 3 == 2:            # tall: many more rows than columns
            rows += rand_matrix(rng, f, 4 * nc, nc, density=0.15)
        R_want, piv_want = gauss_jordan(rows, p)
        R, piv = rref_modp(rows, p)
        assert list(piv) == piv_want, (p, trial)
        assert [[f.raw(x) for x in row] for row in R[:len(piv)].tolist()] == R_want
        assert R.shape == (len(rows), nc) and not R[len(piv):].any(), (p, trial)


def test_modp_agrees_with_field_path_on_integer_matrices():
    rng = random.Random(9)
    f = GF(7)
    for trial in range(25):
        nr, nc = rng.randint(1, 8), rng.randint(1, 8)
        rows = [[rng.randrange(7) for _ in range(nc)] for _ in range(nr)]
        arr = np.array(rows, dtype=np.int64)
        Rf, pivf = gauss_jordan(rows, f.p)
        assert rank_modp(arr, 7) == len(pivf)
        R, piv = rref_modp(arr, 7)
        assert [[int(x) for x in row] for row in R[:len(piv)]] == Rf
        assert list(piv) == list(pivf)
        null = nullspace_modp(arr, 7)
        assert len(null) == nc - len(piv)
        if len(null):
            assert not ((arr @ np.array(null).T) % 7).any()


@pytest.mark.parametrize("f", [QQ, GF(5)], ids=repr)
def test_inverse(f):
    # over Q too: the Tits tables read coordinates in inder J through it
    rng = random.Random(3)
    found = 0
    while found < 10:
        n = rng.randint(1, 6)
        A = exact_array(rand_matrix(rng, f, n, n, density=0.9), f.p)
        if rank_modp(A, f.p) < n:
            continue
        found += 1
        Ai = inv_modp(A, f.p)
        prod = A @ Ai
        if f.p:
            prod %= f.p
        assert (prod == np.eye(n, dtype=np.int64)).all()


def test_singular_inverse_raises():
    with pytest.raises(ValueError, match="singular mod 5"):
        inv_modp(np.array([[1, 2], [2, 4]], dtype=np.int64), 5)
    with pytest.raises(ValueError, match="singular over Q"):
        inv_modp([[1, Fraction(1, 2)], [2, 1]], 0)


@pytest.mark.parametrize("p", [5, 0])
@pytest.mark.parametrize("a", [[[1, 2, 3]], [[1], [2]], [1, 2], [[[1]]]],
                         ids=["1x3", "2x1", "vector", "1x1x1"])
def test_inverse_of_a_non_square_input_raises(a, p):
    # [[1, 2, 3]] mod 5 used to come back as [[2, 3, 1]], which is no inverse
    with pytest.raises(ValueError, match="square"):
        inv_modp(a, p)


@pytest.mark.parametrize("f", [QQ, GF(5)], ids=repr)
def test_rowspace_membership(f):
    sp = RowSpace(f, 3)
    assert sp.insert([[f.of_int(1), f.of_int(2), f.zero()]]) == 1
    assert sp.insert([[f.of_int(2), f.of_int(4), f.zero()]]) == 0
    assert sp.dim == 1
    assert in_span(sp, [f.of_int(-3), f.of_int(-6), f.zero()])
    assert not in_span(sp, [f.of_int(1), f.zero(), f.zero()])
    assert sp.insert([[f.zero(), f.zero(), f.of_int(1)]]) == 1
    basis = sp.basis
    assert basis.shape == (2, 3)
    # reduction clears the pivot columns 0 and 2 and keeps what is left
    assert sp.reduce([[3, 7, 5], [-3, -6, 2]]).tolist() == [[0, 1, 0], [0, 0, 0]]


@pytest.mark.parametrize("space", [lambda: RowSpace(QQ, 0),
                                   lambda: RowSpace(GF(5), 0),
                                   lambda: RowSpaceModP(5, 0),
                                   lambda: RowSpaceModP(0, 0)],
                         ids=["Q", "GF(5)", "modp", "modQ"])
def test_rowspace_of_width_zero(space):
    sp = space()
    assert sp.insert([]) == 0 and sp.insert([[]]) == 0
    assert sp.dim == 0 and in_span(sp, [])
    assert sp.basis.shape == (0, 0)
    assert sp.reduce([]).shape == (0, 0) and sp.reduce([[]]).shape == (1, 0)


def test_rowspace_modp_matches_generic():
    # RowSpace over GF(5) against the list oracle, fed unreduced integers:
    # negative entries, lists and numpy arrays alike
    rng = random.Random(1)
    f = GF(5)
    for trial in range(12):
        vecs = [[rng.randint(-7, 7) for _ in range(6)] for _ in range(rng.randint(1, 6))]
        space = RowSpace(f, 6)
        for t, v in enumerate(vecs):
            space.insert(np.array([v]) if t % 2 else [v])
        raw = [[f.of_int(x) for x in v] for v in vecs]
        R, piv = gauss_jordan(raw, f.p)
        assert space.dim == len(piv)
        assert space.basis.tolist() == R and space.pivots == piv
        batch = RowSpace(f, 6)
        assert batch.insert(np.array(vecs)) == len(piv)
        assert batch.basis.tolist() == R
        if trial % 2:
            probe = [sum(rng.randint(-3, 3) * v[c] for v in vecs) for c in range(6)]
        else:
            probe = [rng.randint(-7, 7) for _ in range(6)]
        inside = len(gauss_jordan(raw + [probe], f.p)[1]) == len(piv)
        assert in_span(space, probe) == inside
        assert in_span(space, np.array(probe)) == inside


@pytest.mark.parametrize("p", [0, 5])
def test_rowspace_insert_drops_zero_rows_before_the_elimination(p, monkeypatch):
    # a row that reduces to zero adds nothing: no batch hands one to
    # rref_modp, and a batch with nothing left makes no call at all.  The
    # basis, pivots and counts are those of the oracle on all the rows.
    offered = []
    real = linalg.rref_modp

    def spy(a, q):
        offered.append(np.array(a))
        return real(a, q)

    monkeypatch.setattr(linalg, "rref_modp", spy)
    zero = [0, 0, 0, 0, 0]
    batches = [[zero, [1, 2, 0, 3, 0], zero, [2, 4, 0, 6, 0], [0, 1, 1, 0, 0], zero],
               [zero, [1, 3, 1, 3, 0], zero],      # the sum of two rows held
               [[3, 6, 0, 9, 0], zero, [0, 0, 0, 2, 4], zero, [0, 2, 2, 0, 0]],
               [zero, zero]]
    space, seen = RowSpaceModP(p, 5), []
    for batch, gained in zip(batches, (2, 0, 1, 0)):
        assert space.insert(batch) == gained
        seen += batch
        R, piv = gauss_jordan(seen, p)
        assert space.basis.tolist() == R and space.pivots == piv
    assert len(offered) == 2
    assert all((a != 0).any(axis=1).all() for a in offered)
    assert [len(a) for a in offered] == [3, 1]


def test_rowspace_over_q_matches_the_oracle():
    # over Q the basis is the reduced echelon form of every row inserted so
    # far, one row or a batch at a time, for RowSpace and for RowSpaceModP
    # at p = 0 alike, and reduce() clears exactly its pivot columns
    rng = random.Random(3)
    for trial in range(12):
        vecs = rand_matrix(rng, QQ, rng.randint(1, 6), 5, density=0.5)
        space, batch, modq = RowSpace(QQ, 5), RowSpace(QQ, 5), RowSpaceModP(0, 5)
        added = sum(space.insert([v]) for v in vecs)
        R, piv = gauss_jordan(vecs)
        assert added == batch.insert(vecs) == modq.insert(vecs) == space.dim == len(piv)
        assert space.basis.tolist() == batch.basis.tolist() == modq.basis.tolist() == R
        assert space.pivots == modq.pivots == piv
        assert all(type(x) is Fraction for x in space.basis.flat)
        probe = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(5)]
        inside = len(gauss_jordan(vecs + [probe])[1]) == len(piv)
        assert in_span(modq, probe) == inside
        assert in_span(space, probe) == inside
        (red,) = space.reduce([probe])
        assert all(red[c] == 0 for c in piv)
        assert (not any(red)) == inside


def test_matmul_modp_rectangular_with_zero_rows_and_columns():
    # the product of matrices with a zero row or column, and of a column
    # by a row, against the integer product mod p
    p = 7
    a = np.array([[1, 0, 2, -1],        # column 1 is zero, row 1 is zero
                  [0, 0, 0, 0],
                  [3, 0, -2, 5]]) % p
    b = np.array([[2, 0, 1],            # column 1 is zero, row 2 is zero
                  [5, 0, 3],
                  [0, 0, 0],
                  [1, 0, -4]]) % p
    col, row = np.array([[1], [0], [-2]]) % p, np.array([[3, 0, 1]])
    zero_row = np.array([[0, 0]])
    for x, y, want in ((a, b, [[1, 0, 5], [0, 0, 0], [11, 0, -17]]),
                       (col, row, [[3, 0, 1], [0, 0, 0], [-6, 0, -2]]),
                       (row, col, [[1]]),
                       (zero_row, np.array([[4, 1, 2], [3, 0, 6]]), [[0, 0, 0]])):
        got = matmul_modp(x, y, p)
        assert got.shape == np.shape(want)
        assert (got == np.array(want) % p).all()
        assert (got == (x @ y) % p).all()


@pytest.mark.parametrize("f", [QQ, GF(7)], ids=repr)
def test_span_solver_coords(f):
    rows = [[f.of_int(1), f.of_int(1), f.zero()],
            [f.zero(), f.of_int(2), f.of_int(1)],
            [f.of_int(1), f.of_int(3), f.of_int(1)]]   # row2 = row0 + row1
    sol = SpanSolver(f, rows)
    assert solver_rank(sol) == 2
    target = [f.of_int(2), f.of_int(4), f.of_int(1)]   # 2*row0 + row1
    coeffs = sol.coords(target)
    assert coeffs is not None
    recon = [f.zero()] * 3
    for c, row in zip(coeffs, rows):
        recon = [f.add(a, f.mul(c, b)) for a, b in zip(recon, row)]
    assert recon == target
    assert sol.coords([f.of_int(1), f.zero(), f.of_int(1)]) is None


def test_matmul_modp_exact_at_the_largest_prime():
    p = 67108859                          # largest prime below 2^26
    a = np.array([[p - 1]], dtype=np.int64)
    assert matmul_modp(a, a, p).tolist() == [[1]]
    rows = np.full((3, 5), p - 1, dtype=np.int64)
    assert matmul_modp(rows, rows.T, p).tolist() == [[5 % p] * 3] * 3


def test_matmul_modp_reads_any_int64_mod_p():
    # operands outside [0, p) are reduced first: unreduced, the float64
    # product of 10^9 + 1 and 10^9 + 3 loses its low bits and reads 4 mod 7
    assert matmul_modp([[10**9 + 1]], [[10**9 + 3]], 7).tolist() == [[0]]
    rng = np.random.default_rng(7)
    for p in (3, 7, 67108859):
        a = rng.integers(-2**40, 2**40, (4, 6))
        b = rng.integers(-2**40, 2**40, (6, 3))
        want = [[sum(int(x) * int(y) for x, y in zip(row, col)) % p
                 for col in b.T] for row in a]
        assert matmul_modp(a, b, p).tolist() == want
        assert matmul_modp(a % p, b, p).tolist() == want


def test_matmul_modp_refuses_floats_and_reads_any_integer():
    # 0.5 was truncated to 0, giving [[0]]; an unsigned 2^64 - 1 wrapped
    # to -1 and read 6 mod 7, and a Python int past 2^63 overflowed
    with pytest.raises(TypeError, match="inexact value 0.5"):
        matmul_modp([[0.5]], [[2]], 5)
    with pytest.raises(TypeError, match="inexact value"):
        matmul_modp([[1]], np.array([[2.0]]), 5)
    top = np.array([[2**64 - 1]], dtype=np.uint64)
    assert matmul_modp(top, [[1]], 7).tolist() == [[(2**64 - 1) % 7]]
    assert matmul_modp([[2**70]], [[3]], 7).tolist() == [[3 * 2**70 % 7]]
    assert matmul_modp([[Fraction(1, 2)]], [[2]], 5).tolist() == [[1]]


def fraction_product(a, b):
    """a @ b summed in Fractions, one entry at a time."""
    (m, k), n = np.shape(a), np.shape(b)[1]
    return [[sum((Fraction(a[i][t]) * Fraction(b[t][j]) for t in range(k)),
                 Fraction(0)) for j in range(n)] for i in range(m)]


def test_matmul_modp_over_q_matches_a_fraction_loop():
    # p = 0 multiplies over Q: ints and Fractions mixed in one operand,
    # entries past 2^63 kept whole, and an inner dimension of 0
    rng = random.Random(28)

    def pick():
        v = rng.randint(-9, 9)
        return v if rng.random() < 0.5 else Fraction(v, rng.randint(1, 6))

    for m, k, n in ((3, 4, 2), (1, 1, 1), (2, 0, 3), (0, 2, 2), (2, 3, 0)):
        a = np.array([pick() for _ in range(m * k)], dtype=object).reshape(m, k)
        b = np.array([pick() for _ in range(k * n)], dtype=object).reshape(k, n)
        if a.size and b.size:
            a[0, 0], b[-1, -1] = 2**70 + 1, Fraction(2**64 + 1, 3)
        got = matmul_modp(a, b, 0)
        assert got.dtype == object and got.shape == (m, n)
        assert all(type(v) is Fraction for v in got.flat)
        assert got.tolist() == fraction_product(a, b)
    # int64 operands whose product passes 2^63 are multiplied as Python ints
    big = np.array([[2**62, 3]], dtype=np.int64)
    assert matmul_modp(big, np.array([[4], [5]]), 0).tolist() == [[2**64 + 15]]


@pytest.mark.parametrize("f", [QQ, GF(5)], ids=repr)
def test_stack_products_match_per_matrix_loops(f):
    rng = random.Random(5)
    red = (lambda v: v % f.p) if f.p else (lambda v: v)
    X = exact_array([rand_matrix(rng, f, 3, 3) for _ in range(4)], f.p)
    coef = exact_array(rand_matrix(rng, f, 2, 4), f.p)
    # combine: Σ_k coef[a, k]·X[k], here a stack of 3 x 3 matrices
    want = [[[red(sum((Fraction(coef[a, k]) * Fraction(X[k, i, j])
                       for k in range(4)), Fraction(0)))
              for j in range(3)] for i in range(3)] for a in range(2)]
    assert combine(coef, X, f.p).tolist() == want
    # pair_products: X[a]·X[b] for every pair
    got = pair_products(X, f.p)
    assert got.shape == (4, 4, 3, 3)
    for a in range(4):
        for b in range(4):
            want = [[red(v) for v in row] for row in fraction_product(X[a], X[b])]
            assert got[a, b].tolist() == want


def test_inv_modp_refuses_floats():
    # 1.5 was truncated to 1, giving [[1]]
    with pytest.raises(TypeError, match="inexact value 1.5"):
        inv_modp([[1.5]], 5)
    assert inv_modp([[Fraction(1, 2)]], 5).tolist() == [[2]]
    assert inv_modp([[2, 1], [1, 1]], 5).tolist() == [[1, 4], [4, 2]]


@pytest.mark.parametrize("p", [3, 5, 7, 0])
def test_nullspace_modp_matches_field_path(p):
    # the same rows, in the same order, as the list oracle; p = 0 is Q
    rng = random.Random(p)
    shapes = [(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(40)]
    shapes += [(1, 6), (6, 1), (5, 5), (0, 4), (4, 0), (0, 0)]
    for nr, nc in shapes:
        rows = [[(rng.randrange(p) if p else rng.randint(-3, 3))
                 if rng.random() < 0.6 else 0 for _ in range(nc)]
                for _ in range(nr)]
        arr = np.array(rows, dtype=np.int64).reshape(nr, nc)
        null = nullspace_modp(arr, p)
        assert null.shape == (len(null), nc)
        want = gauss_jordan_nullspace(rows, nc, p) if nr else [
            [int(i == j) for j in range(nc)] for i in range(nc)]
        assert null.tolist() == want, (nr, nc)
    zero = np.zeros((3, 4), dtype=np.int64)
    assert nullspace_modp(zero, p).tolist() == np.eye(4, dtype=np.int64).tolist()
    full = np.array([[1, 2, 0], [0, 1, 1], [1, 0, 2]], dtype=np.int64)
    assert rank_modp(full, p) == 3
    assert nullspace_modp(full, p).shape == (0, 3)
    one_row = np.array([[0, 2, 1, 0]], dtype=np.int64)
    assert nullspace_modp(one_row, p).tolist() == gauss_jordan_nullspace(
        one_row.tolist(), 4, p)


def test_rank_int_matches_the_field_route():
    rng = np.random.default_rng(25)
    for trial in range(30):
        m, n = rng.integers(1, 9, size=2)
        r = int(rng.integers(0, min(m, n) + 1))
        # rank at most r by construction, entries up to about 2^20
        a = (rng.integers(-2**8, 2**8, size=(m, r))
             @ rng.integers(-2**8, 2**8, size=(r, n)))
        assert rank_int(a) == len(gauss_jordan(a.tolist())[1]), (trial, a)


def test_rank_int_sees_past_the_first_prime():
    q = _rank_primes()[0]
    a = np.array([[1, 1], [1, 1 + q]], dtype=np.int64)     # det = q
    assert rank_modp(a % q, q) == 1
    assert rank_int(a) == 2
    assert rank_int(np.zeros((3, 4), dtype=np.int64)) == 0
    assert rank_int(np.zeros((0, 4), dtype=np.int64)) == 0


def test_rank_int_refuses_floats_and_reads_integers_of_any_size():
    # [[0.5, 1], [1, 2]] was truncated to [[0, 1], [1, 2]], of rank 2, and
    # 2^70 raised numpy's bare OverflowError
    with pytest.raises(TypeError, match="inexact value 0.5"):
        rank_int([[0.5, 1], [1, 2]])
    assert rank_int([[Fraction(1, 2), 1], [1, 2]]) == 1
    assert rank_int([[2**70, 1], [1, 2]]) == 2
    assert rank_int([[2**70, 1], [2**71, 2]]) == 1
    assert rank_int([[2**70 + 1, 2**70], [2**70, 2**70 - 1]]) == 2   # det -1


def test_rank_int_refuses_when_the_primes_run_out():
    # 60 rows of norm about 2^43 and rank 59: the Hadamard bound of a
    # 60-minor is far beyond the product of the fixed primes
    rng = np.random.default_rng(60)
    a = rng.integers(-2**40, 2**40, size=(60, 60), dtype=np.int64)
    a[-1] = a[0] + a[1]
    with pytest.raises(ValueError, match="Hadamard"):
        rank_int(a)


@pytest.mark.parametrize("call", [
    lambda: exact_array([0.1], 0),
    lambda: exact_array([0.5], 5),
    lambda: RowSpace(QQ, 1).insert([[0.1]]),
    lambda: nullspace_modp(np.array([[0.5, 1.0]]), 7),
    lambda: exact_array(np.array([Fraction(1, 2), 0.5], dtype=object), 0),
    lambda: exact_array([[1, np.float32(2)]], 3),
    lambda: exact_array([1j], 0),
    lambda: matmul_modp([[0.1]], [[1]], 0),
    lambda: common_denominator([0.5, 0.25]),
], ids=["Q", "GF(5)", "rowspace", "nullspace", "object", "float32", "complex",
        "matmul-Q", "common_denominator"])
def test_exact_array_refuses_floats(call):
    # a float is its binary value, not the number meant: 0.1 over Q used
    # to read as 3602879701896397/36028797018963968 and 0.5 mod 5 as 3;
    # the product over Q read [[0.1]] @ [[1]] that way, and
    # common_denominator([0.5, 0.25]) gave ([2, 1], 4)
    with pytest.raises(TypeError, match="inexact value"):
        call()


@pytest.mark.parametrize("call", [
    lambda: exact_array([Fraction(1, 5)], 5),
    lambda: rref_modp([[Fraction(2, 5), 1]], 5),
    lambda: RowSpaceModP(5, 1).insert([[Fraction(2, 5)]]),
    lambda: matmul_modp(np.array([[Fraction(3, 10)]], dtype=object),
                        np.ones((1, 1), dtype=np.int64), 5),
], ids=["exact_array", "rref", "rowspace", "matmul"])
def test_exact_array_refuses_a_denominator_p_divides(call):
    # the refusal Field.raw gives; before, pow() raised a bare ValueError
    with pytest.raises(DivideByZero, match=r"denominator of \d+/\d+ vanishes in GF\(5\)"):
        call()


def test_exact_array_accepts_empty_input_of_any_dtype():
    # np.asarray([]) is float64; an empty derivation algebra arrives so
    assert exact_array([], 0).shape == (0,)
    assert exact_array([], 5).dtype == np.int64
    assert exact_array(np.zeros((0, 3)), 0).shape == (0, 3)
    assert RowSpace(QQ, 2).insert(np.zeros((0, 2))) == 0
    assert exact_array([Fraction(1, 2), 3], 0).tolist() == [Fraction(1, 2), 3]
    assert exact_array([Fraction(1, 2), 3], 5).tolist() == [3, 3]
