import hashlib
import itertools
import json
import random
import tracemalloc
from fractions import Fraction
from math import gcd

import numpy as np
import pytest

from spinlab import construct, superalgebra
from spinlab.fields import QQ, GF, make_field
from spinlab.superalgebra import (SuperAlgebra, burnside_irreducible,
                                  check_jacobi, derived_algebra,
                                  equivariant_map_dim, even_subalgebra,
                                  ideal_closure, j_triple,
                                  norton_irreducible, simplicity_certificate,
                                  verify_isomorphism, VerificationFailed,
                                  _block, _brackets_into, _eigenvalues,
                                  _largest_ideal_inside,
                                  _scan_matrices, _scan_one_i, _scan_rows,
                                  _spin, _witness_entry)
from spinlab.construct import build_superalgebra, classify, decompose_type_d_l2
from spinlab.tits import build_tits, tits_model
from spinlab.linalg import (RowSpaceModP, common_denominator,
                            exact_array, inv_modp, matmul_modp, nullspace_modp,
                            rank_int, rank_modp)

from helpers import (first_unpreserved_pair_by_columns, gauss_jordan,
                     ideal_closure_by_dictionary, rep_and_adjoint)

E, H, F = 0, 1, 2


def sl2(f):
    br = {(H, E): {E: 2}, (H, F): {F: -2}, (E, F): {H: 1}}
    return SuperAlgebra("sl2", f, 3, 0, ["e", "h", "f"], br, odd_symmetric=False)


def osp12(f, lam=1):
    X, Y = 3, 4
    br = {
        (H, E): {E: 2}, (H, F): {F: -2}, (E, F): {H: 1},
        (H, X): {X: 1}, (H, Y): {Y: -1},
        (E, Y): {X: 1}, (F, X): {Y: 1},
        (X, X): {E: Fraction(2) * lam * lam}, (Y, Y): {F: Fraction(-2) * lam * lam},
        (X, Y): {H: Fraction(-1) * lam * lam},
    }
    return SuperAlgebra("osp12", f, 3, 2, ["e", "h", "f", "x", "y"], br,
                        odd_symmetric=True)


def brute_force_triples(A):
    return [(i, j, k) for i, j, k in itertools.product(range(A.dim), repeat=3)
            if j_triple(A, i, j, k)]


def random_algebra(seed, f, odd_symmetric):
    rng = random.Random(seed)
    n0, n1 = 3, 3
    br = {}
    for i in range(6):
        for j in range(i, 6):
            pi, pj = int(i >= n0), int(j >= n0)
            if i == j and not (odd_symmetric and pi):
                continue
            terms = {}
            for k in range(6):
                if int(k >= n0) != pi ^ pj:
                    continue
                if rng.random() < 0.5:
                    c = rng.randint(-3, 3)
                    if c:
                        terms[k] = Fraction(c, rng.choice([1, 1, 2])) if f.p == 0 else c
            if terms:
                br[(i, j)] = terms
    return SuperAlgebra(f"rand{seed}", f, n0, n1, [f"b{t}" for t in range(6)],
                        br, odd_symmetric=odd_symmetric)


@pytest.mark.parametrize("f", [QQ, GF(5)], ids=repr)
def test_sl2_and_osp12_pass_jacobi(f):
    A = sl2(f)
    r = check_jacobi(A, "full")
    assert r.jacobi_pass and r.bracket_symmetry == "skew"
    assert not brute_force_triples(A)
    assert len(derived_algebra(A)) == 3
    O = osp12(f)
    r = check_jacobi(O, "full")
    assert r.jacobi_pass and r.bracket_symmetry == "symmetric"
    assert not brute_force_triples(O)
    assert len(derived_algebra(O)) == 5


@pytest.mark.parametrize("f", [QQ, GF(5)], ids=repr)
def test_derived_algebra_of_the_zero_algebra(f):
    assert derived_algebra(SuperAlgebra("zero", f, 0, 0, [], {}, False)) == []


def witness_triples(report):
    return [(w["i"], w["j"], w["k"]) for w in report.witnesses]


def content(A, t):
    """The gcd of the coefficients of J(e_t) as the scan sums them: over Q
    J times scale^2 (each term is a product of two numerators), over
    GF(p) the residues."""
    square = A.coo[4] ** 2
    coeffs = [Fraction(v) * square for v in j_triple(A, *t).values()]
    assert all(c.denominator == 1 for c in coeffs), t
    return gcd(*(int(c) for c in coeffs))


def scan_rows(A, size):
    """Every row of A's scan, from _scan_rows over blocks of size rows."""
    mats, n = _scan_matrices(A), A.dim
    blocks = [np.arange(i0, min(i0 + size, n)) for i0 in range(0, n, size)]
    rows = [row for block in blocks for row in _scan_rows(mats, block, block)]
    assert len(rows) == n
    return rows


def block_sizes(A):
    """Blocks of 1, 2 and 3 rows, and one block of all rows."""
    return (1, 2, 3, A.dim)


def test_scanner_agrees_with_brute_force_on_random_tables():
    for seed, f, sym in itertools.product(range(8), (QQ, GF(3), GF(5), GF(7)),
                                          (False, True)):
        A = random_algebra(seed * 10 + sym, f, sym)
        key = (seed, f.p, sym)
        want = brute_force_triples(A)
        # row i holds the canonical triples i <= j <= z, each with the
        # content of its sums
        mats = _scan_matrices(A)
        rows = [_scan_one_i(mats, i) for i in range(6)]
        assert all(t[0] == i for i, row in enumerate(rows) for t, _ in row), key
        found = [entry for row in rows for entry in row]
        assert [t for t, _ in found] == [t for t in want if t[0] <= t[1] <= t[2]], key
        for t, g in found:
            assert g == content(A, t) > 0, key + (t,)
        # a block of rows yields the same rows, parities mixed or not
        for size in block_sizes(A):
            assert scan_rows(A, size) == rows, key + (size,)
        # check_jacobi expands them to every ordered triple, in order
        full = check_jacobi(A, "full", witness_cap=10 ** 6)
        assert witness_triples(full) == want, key
        for cap in (1, 3, 10):
            capped = check_jacobi(A, "full", witness_cap=cap)
            assert witness_triples(capped) == want[:cap], key + (cap,)


@pytest.mark.parametrize("cap", [0, -1, True, False, 2.5, "3", None],
                         ids=repr)
def test_witness_cap_must_be_an_int_of_at_least_1(cap):
    # B3/GF(5) fails; a cap of 0 or -1 used to report it as a pass
    A = build_superalgebra(3, "B", GF(5))
    with pytest.raises(ValueError, match="witness_cap"):
        check_jacobi(A, witness_cap=cap)


def test_witness_caps_1_and_10_keep_their_reports():
    # the CLI's cap and the default give the same witnesses as before
    A = build_superalgebra(3, "B", GF(5))
    want = {1: "16980ea002756a98494bafda63bbbe9d4c9d974f1549fafc8e090a4ad2138318",
            10: "dbee4dc4d8a7797efbb09a1f1388ce4f89a912b0757a561d4ef2b9378cacfff9"}
    for cap in (1, 10, np.int64(10)):
        r = check_jacobi(A, witness_cap=cap)
        blob = json.dumps(r.witnesses, sort_keys=True, separators=(",", ":"))
        assert not r.jacobi_pass and r.witness_count == cap
        assert hashlib.sha256(blob.encode()).hexdigest() == want[int(cap)]
    assert check_jacobi(A).witnesses == check_jacobi(A, witness_cap=10).witnesses


def rescaled(A, exponent):
    """A copy of A on the basis e_i * 2^(exponent * (i mod 3)), an isomorphic algebra."""
    lam = [Fraction(2) ** (exponent * (i % 3)) for i in range(A.dim)]
    table = {(i, j): {k: v * lam[i] * lam[j] / lam[k] for k, v in terms.items()}
             for (i, j), terms in A.table.items()}
    return SuperAlgebra(f"{A.name}_rescaled", A.field, A.n0, A.n1, A.labels,
                        table, odd_symmetric=A.odd_symmetric)


def scan_values(A):
    """The value arrays of the three orders of A's scan data."""
    return [vals for _, _, _, vals in _scan_matrices(A)[0]]


@pytest.mark.parametrize("exponent", [8, 13])
def test_scan_past_the_int64_bound_sums_python_ints(exponent):
    A = rescaled(build_superalgebra(2, "B", QQ), exponent)
    # past the bound 3*n*max|V|^2 >= 2^63 on the sums, the scan sums
    # Python ints
    top = max(map(abs, A.coo[3].tolist()))
    bound = 3 * A.dim * top * top
    assert bound >= 1 << 63
    for vals in scan_values(A):
        assert vals.dtype == object and all(type(v) is int for v in vals)
    assert check_jacobi(A, "full").jacobi_pass
    assert brute_force_triples(A) == []
    # the exact route still sees an identity that holds
    assert check_jacobi(A, "generators", triples=[(0, 1, 10), (10, 11, 12)]).jacobi_pass
    # one entry perturbed: the scan finds exactly the brute-force witnesses,
    # and the contents it sums are exact
    table = {key: dict(terms) for key, terms in A.table.items()}
    pair = sorted(table)[len(table) // 2]
    table[pair][min(table[pair])] += 1
    bad = SuperAlgebra("perturbed", QQ, A.n0, A.n1, A.labels, table,
                       odd_symmetric=A.odd_symmetric)
    assert all(vals.dtype == object for vals in scan_values(bad))
    want = brute_force_triples(bad)
    assert want
    assert witness_triples(check_jacobi(bad, "full", witness_cap=10 ** 6)) == want
    for size in block_sizes(bad):
        found = [entry for row in scan_rows(bad, size) for entry in row]
        assert [t for t, _ in found] == [t for t in want if t[0] <= t[1] <= t[2]]
        assert all(g == content(bad, t) for t, g in found)


def test_scan_is_exact_far_past_the_int64_bound():
    # 3*n*max|V|^2 = 9 * 2^600; [h,e] = 2^300 e alone is a Lie algebra
    A = SuperAlgebra("huge", QQ, 3, 0, ["e", "h", "f"], {(H, E): {E: 2 ** 300}},
                     odd_symmetric=False)
    assert all(vals.dtype == object for vals in scan_values(A))
    assert check_jacobi(A, "full").jacobi_pass
    assert brute_force_triples(A) == []
    for size in block_sizes(A):
        assert scan_rows(A, size) == [()] * 3


def test_scan_reports_exact_witnesses_far_past_the_int64_bound():
    # [h,e] = 2^300 e, [h,f] = -2f, [e,f] = h: J(h,e,f) = (2^300 - 2) h
    A = SuperAlgebra("huge", QQ, 3, 0, ["e", "h", "f"],
                     {(H, E): {E: 2 ** 300}, (H, F): {F: -2}, (E, F): {H: 1}},
                     odd_symmetric=False)
    want = brute_force_triples(A)
    assert want
    r = check_jacobi(A, "full", witness_cap=10 ** 6)
    assert not r.jacobi_pass and witness_triples(r) == want
    for size in block_sizes(A):
        assert scan_rows(A, size) == [(((E, H, F), 2 ** 300 - 2),), (), ()]
    assert content(A, (E, H, F)) == 2 ** 300 - 2


def test_b7_scan_stops_in_the_row_of_its_first_failing_triple(monkeypatch):
    # over Q the first nonzero triples of B7 lie in row 105 = n0, and its 10
    # witnesses are in once that row is.  The Chevalley certificate proves
    # rows 0-104 empty and scans row 105 with the full generator rows, in
    # calls of at most 512 first-index entries: no block of canonical rows
    # is scanned at all
    calls = []
    scan = superalgebra._scan_rows

    def spy(mats, rows, low):
        calls.append((list(rows), list(low)))
        return scan(mats, rows, low)

    monkeypatch.setattr(superalgebra, "_scan_rows", spy)
    construct._jacobi_rows.cache_clear()
    r = check_jacobi(build_superalgebra(7, "B", QQ))
    assert not r.jacobi_pass and r.witness_count == 10
    gens = sorted(construct._chevalley_generators(7, "B"))
    assert [i for rows, _ in calls for i in rows] == gens + [105]
    assert [j for _, low in calls for j in low] == [0] * 15 + [105]
    rows = construct._jacobi_rows(7, "B")
    monkeypatch.undo()
    # the plain route: rows 0-104 empty, row 105 the certificate's
    plain = superalgebra._JacobiRows(lambda: construct._assemble(7, "B", QQ))
    assert not any(plain.row(i) for i in range(105))
    assert rows.row(105) == plain.row(105) != ()
    assert check_jacobi(build_superalgebra(7, "B", QQ)) == r


def gl2(f):
    """gl2 on e, f, h1 = E11, h2 = E22: [e, f] = h1 - h2 has two targets."""
    e, fm, h1, h2 = range(4)
    br = {(e, fm): {h1: 1, h2: -1}, (h1, e): {e: 1}, (h1, fm): {fm: -1},
          (h2, e): {e: -1}, (h2, fm): {fm: 1}}
    return SuperAlgebra("gl2", f, 4, 0, ["e", "f", "h1", "h2"], br,
                        odd_symmetric=False)


def plain_rows(A):
    rows = superalgebra._JacobiRows(lambda: A)
    return [rows.row(i) for i in range(A.dim)]


def test_a_two_target_image_does_not_reach():
    # from e and f the image [e, f] = h1 - h2 reaches neither Cartan
    # element; h1 among the generators lets it reach h2
    A = gl2(QQ)
    mats = _scan_matrices(A)
    assert superalgebra._peel(mats, [0, 1], [0, 1], 4).tolist() == [True, True, False, False]
    assert superalgebra._certified_rows(mats, [0, 1]) == []
    assert superalgebra._peel(mats, [0, 1, 2], [0, 1, 2], 4).all()
    assert superalgebra._certified_rows(mats, [0, 1, 2]) == [()] * 4 == plain_rows(A)


def osp12_plus(f):
    """osp(1, 2) beside (c; z1, z2) with [c, z1] = z1, [c, z2] = -z2 and
    [z1, z2] = c: every row of an even index vanishes, and so does row 5
    (x, the first odd index), but J(z1, z1, z2) = 2 z1.  The odd part is
    two submodules, and the reach from x covers only the first."""
    c, x, y, z1, z2 = 3, 4, 5, 6, 7
    br = {(H, E): {E: 2}, (H, F): {F: -2}, (E, F): {H: 1},
          (H, x): {x: 1}, (H, y): {y: -1}, (E, y): {x: 1}, (F, x): {y: 1},
          (x, x): {E: 2}, (y, y): {F: -2}, (x, y): {H: -1},
          (c, z1): {z1: 1}, (c, z2): {z2: -1}, (z1, z2): {c: 1}}
    return SuperAlgebra("osp12_plus", f, 4, 4, ["e", "h", "f", "c", "x", "y",
                                                 "z1", "z2"], br, odd_symmetric=True)


@pytest.mark.parametrize("ch", [0, 3, 5, 7])
def test_the_odd_reach_must_cover_the_odd_part(ch):
    A = osp12_plus(make_field(ch))
    mats, plain = _scan_matrices(A), plain_rows(A)
    assert not any(plain[:5]) and plain[6]
    assert superalgebra._peel(mats, range(4), [0, 1, 2, 3, 4], 8).tolist() == [True] * 6 + [False] * 2
    # rows 0-3 and row 4 are certified; row 6 is left to the scan
    assert superalgebra._certified_rows(mats, range(4)) == plain[:5]
    rows = superalgebra._JacobiRows(lambda: A, range(4))
    assert [rows.row(i) for i in range(A.dim)] == plain
    assert not check_jacobi(A).jacobi_pass
    # osp(1, 2) alone: one vanishing odd row certifies every row
    B = osp12(make_field(ch))
    assert superalgebra._certified_rows(_scan_matrices(B), [E, H, F]) == [()] * 5


def test_generators_must_be_even_basis_indices():
    mats = _scan_matrices(osp12(QQ))
    for gens in ([E, 3], [-1, E]):
        with pytest.raises(ValueError, match="even basis indices below 3"):
            superalgebra._certified_rows(mats, gens)


def four_top(n):
    """A failing four-dimensional table on the top four of n indices."""
    h, e, f, z = range(n - 4, n)
    br = {(h, e): {e: 2}, (h, f): {f: -2}, (e, f): {h: 1, z: 1}, (z, e): {e: 1}}
    return SuperAlgebra("four_top", QQ, n, 0, [""] * n, br, odd_symmetric=False)


def test_scan_refuses_a_dimension_past_the_int64_key_bound():
    assert not check_jacobi(four_top(4)).jacobi_pass
    # n^3 >= 2^63: the int64 keys of (i, j, k) would wrap, in the scan and
    # in the sort of the stored table, so the algebra is refused when made
    with pytest.raises(ValueError, match=r"n\^3 < 2\^63"):
        four_top((1 << 21) + 8)


def test_a_table_past_the_int64_key_bound_is_refused_when_made():
    # for n = 2^21 + 8 the sort key (i*n + j)*n + k of the stored table
    # wraps: stored, the table would read {n-2: 5, n-40: 1} for the first
    # pair and {} for the second.  2^21 is the first n with n^3 >= 2^63.
    for n in ((1 << 21) + 8, 1 << 21):
        a, b, c, d = n - 40, n - 39, n - 2, n - 1
        with pytest.raises(ValueError, match=r"n\^3 < 2\^63"):
            SuperAlgebra("wrap", QQ, n, 0, [""] * n,
                         {(a, b): {a: 1}, (c, d): {c: 5}}, odd_symmetric=False)
        with pytest.raises(ValueError, match=r"n\^3 < 2\^63"):
            SuperAlgebra._from_coo("wrap", GF(7), n, 0, [""] * n,
                                   ([a, c], [b, d], [a, c], [1, 5], 1),
                                   odd_symmetric=False)
    n = (1 << 21) - 1
    a, b, c, d = n - 40, n - 39, n - 2, n - 1
    A = SuperAlgebra("edge", QQ, n, 0, [""] * n,
                     {(a, b): {a: 1}, (c, d): {c: 5}}, odd_symmetric=False)
    assert A.bracket_terms(a, b) == {a: 1} and A.bracket_terms(c, d) == {c: 5}
    assert A.bracket_terms(d, c) == {c: -5}


def test_verdict_tables_scan_on_int64_values():
    # the Q tables behind every verdict stay on the int64 route: the 12
    # grid tables of the scan benchmark and the four Tits tables
    grid = [(l, "B") for l in range(1, 9)] + [(l, "D") for l in (2, 4, 6, 8)]
    tables = ([build_superalgebra(l, kind, QQ) for l, kind in grid]
              + [build_tits(kind, QQ) for kind in
                 ("unit", "binarion", "quaternion", "octonion")])
    for A in tables:
        assert all(vals.dtype == np.int64 for vals in scan_values(A)), A.name


def test_constants_past_int64_are_stored_exactly():
    A = rescaled(build_superalgebra(2, "B", QQ), 13)
    V = A.coo[3]
    assert V.dtype == object and max(map(abs, V.tolist())) >= 1 << 63
    B = SuperAlgebra.from_json(A.to_json())
    assert B == A and B.coo[4] == A.coo[4]
    # -2^63 fits int64, but the other bracket order 2^63 does not
    C = SuperAlgebra("edge", QQ, 3, 0, ["e", "h", "f"], {(H, E): {E: -2 ** 63}},
                     odd_symmetric=False)
    assert C.coo[3].dtype == object and C.bracket_terms(E, H) == {E: 2 ** 63}


def test_table_is_read_only():
    A = osp12(GF(5))
    with pytest.raises(TypeError):
        A.table[(0, 4)] = {3: 2}
    with pytest.raises(TypeError):
        A.table[(E, F)][E] = 1


def test_scan_accepts_constants_inside_the_int64_bound():
    A = rescaled(build_superalgebra(2, "B", QQ), 2)
    assert check_jacobi(A, "full").jacobi_pass


def test_scan_refuses_tables_that_are_not_graded_skew():
    # the scan needs a graded-skew table, which construction enforces:
    # [h,h] = e stored with swap sign -1, and a bracket off the grading
    with pytest.raises(ValueError, match="swap sign"):
        SuperAlgebra("skewdiag", QQ, 3, 0, ["e", "h", "f"],
                     {(H, E): {E: 2}, (H, H): {E: 1}}, odd_symmetric=False)
    with pytest.raises(ValueError, match="grading"):
        SuperAlgebra("offgrade", QQ, 3, 2, ["e", "h", "f", "x", "y"],
                     {(H, E): {E: 2}, (H, 3): {E: 1}}, odd_symmetric=True)


def test_vanishing_witness_is_a_verification_failure():
    with pytest.raises(VerificationFailed, match="vanishing witness"):
        _witness_entry(sl2(QQ), (0, 1, 2))


def test_witness_detection_and_generators_mode():
    f = QQ
    O = osp12(f)
    table = {key: dict(terms) for key, terms in O.table.items()}
    table[(0, 4)] = {3: f.raw(2)}   # tamper: [e,y] = 2x
    bad = SuperAlgebra("osp12", f, O.n0, O.n1, O.labels, table,
                       odd_symmetric=True)
    r = check_jacobi(bad, "full", witness_cap=4)
    assert not r.jacobi_pass and 1 <= r.witness_count <= 4
    first = brute_force_triples(bad)[0]
    assert (r.witnesses[0]["i"], r.witnesses[0]["j"], r.witnesses[0]["k"]) == first
    g = check_jacobi(bad, "generators", triples=[first, (0, 0, 0)])
    assert not g.jacobi_pass and g.witness_count == 1
    val = dict((w, s) for w, s in g.witnesses[0]["value"])
    assert val == {k: f.to_str(v) for k, v in j_triple(bad, *first).items()}


@pytest.mark.parametrize("build", [lambda: osp12(QQ, lam=Fraction(1, 3)),
                                   lambda: build_superalgebra(2, "B", GF(3)),
                                   lambda: build_superalgebra(2, "D", QQ)])
def test_bracket_terms_agree_with_the_mapping_view(build):
    # bracket_terms reads the COO rows; the view is the reference
    A = build()
    f = A.field
    for i in range(A.dim):
        for j in range(A.dim):
            stored = A.table.get((min(i, j), max(i, j)), {})
            sign = 1 if i <= j else A._swap_sign(i, j)
            want = {k: v if sign > 0 else f.neg(v) for k, v in stored.items()}
            assert A.bracket_terms(i, j) == want, (i, j)


@pytest.mark.parametrize("i,j", [(0, 16), (14, 0), (-1, 3), (3, -14),
                                 (True, 3), (3, False), (1.0, 3)])
def test_bracket_terms_refuses_an_index_outside_the_basis(i, j):
    # B2/Q has n = 14: (0, 16) used to alias the pair key of (1, 2), and a
    # negative index read an empty row; j_triple reads through the same check
    A = build_superalgebra(2, "B", QQ)
    bad = next(x for x in (i, j) if not (type(x) is int and 0 <= x < 14))
    with pytest.raises(ValueError, match=rf"basis index {bad!r} outside range\(14\)"):
        A.bracket_terms(i, j)
    with pytest.raises(ValueError, match="outside range"):
        j_triple(A, i, j, 3)
    assert A.bracket_terms(np.int64(1), 2) == A.bracket_terms(1, 2) == {7: 4}


def test_witness_recheck_leaves_the_mapping_view_unbuilt(monkeypatch):
    from spinlab.tits import build_tits
    built = []
    view = SuperAlgebra.table
    monkeypatch.setattr(SuperAlgebra, "table", property(
        lambda self: built.append(self.name) or view.fget(self)))
    reports = [classify(8, "B", GF(7)),
               check_jacobi(build_tits("octonion", GF(7)), witness_cap=1)]
    assert built == []
    blobs = [json.dumps(r.witnesses, sort_keys=True, separators=(",", ":"))
             for r in reports]
    # B8 is scanned in full: its hash is that of the full scan's witnesses
    assert [hashlib.sha256(b.encode()).hexdigest() for b in blobs] == [
        "dcbf98f44363039264b0dbabae4b9250c357c194a14b5b5566d36e7622456aef",
        "43811c08fd51cfe52502dbcf0d731d7e3871b67ecda0ebb182dae166c19b93ec"]


def test_serialization_roundtrip_and_tamper_detection():
    O = osp12(GF(5))
    d = O.to_dict()
    O2 = SuperAlgebra.from_dict(d)
    assert O2 == O and O2.to_dict() == d
    d2 = dict(d)
    d2["name"] = "evil"
    with pytest.raises(ValueError):
        SuperAlgebra.from_dict(d2)


def test_inconsistent_bracket_orders_rejected():
    f = QQ
    br = {(H, E): {E: 2}, (E, H): {E: 2},   # should be -2
          (H, F): {F: -2}, (E, F): {H: 1}}
    with pytest.raises(ValueError, match="inconsistent"):
        SuperAlgebra("bad", f, 3, 0, ["e", "h", "f"], br, odd_symmetric=False)


def test_even_subalgebra_of_osp12_is_sl2():
    for f in (QQ, GF(7)):
        O = osp12(f)
        ev = even_subalgebra(O)
        assert (ev.n0, ev.n1) == (3, 0)
        assert check_jacobi(ev, "full").jacobi_pass
        assert ev.table == sl2(f).table


def test_even_sectors_hold_identically_for_rep_built_bracket():
    # even-even-even and even-even-odd instances are identities of the
    # representation, independent of the odd product
    A = build_superalgebra(3, "B", GF(7))
    rng = random.Random(0)
    for _ in range(300):
        i, j = rng.randrange(A.n0), rng.randrange(A.n0)
        k = rng.randrange(A.dim)
        assert j_triple(A, i, j, k) == {}


def test_ideal_closure_monotone_and_idempotent():
    f = QQ
    A = sl2(f)
    e_only = [[1, 0, 0]]
    cl = ideal_closure(A, e_only)
    assert len(cl) == 3
    assert len(ideal_closure(A, cl)) == len(cl)        # idempotent
    two = {(H, E): {E: 2}, (H, F): {F: -2}, (E, F): {H: 1},
           (4, 3): {3: 2}, (4, 5): {5: -2}, (3, 5): {4: 1}}
    D2 = SuperAlgebra("sl2sl2", f, 6, 0, list("abcdef"), two,
                      odd_symmetric=False)
    assert check_jacobi(D2, "full").jacobi_pass
    small = ideal_closure(D2, [[1, 0, 0, 0, 0, 0]])
    assert len(small) == 3
    bigger = ideal_closure(D2, [[1, 0, 0, 0, 0, 0], [0, 0, 0, 1, 0, 0]])
    assert len(bigger) == 6                            # monotone
    assert len(derived_algebra(D2)) == 6


def test_burnside_certificate():
    e = [[0, 1], [0, 0]]
    fm = [[0, 0], [1, 0]]
    h = [[1, 0], [0, -1]]
    blocks = [[[1, 0], [0, 2]], [[3, 0], [0, 1]]]
    assert burnside_irreducible([e, fm, h], 2, GF(5)) is True
    assert burnside_irreducible(blocks, 2, GF(5)) is False
    # the reference of Norton's test runs over GF(p) only, as Norton's does
    with pytest.raises(ValueError, match="GF\\(p\\) only"):
        burnside_irreducible([e, fm, h], 2, QQ)
    # a float is refused, not truncated: 0.5 was once read as 0
    with pytest.raises(TypeError, match="inexact value 0.5"):
        burnside_irreducible([[[0.5]]], 1, GF(5))


def test_equivariant_dim_for_sl2_two_dim_rep():
    for f in (QQ, GF(3), GF(5)):
        rep = [[[0, 1], [0, 0]], [[0, 0], [1, 0]], [[1, 0], [0, -1]]]
        ad = [
            [[0, -2, 0], [0, 0, 1], [0, 0, 0]],
            [[0, 0, 0], [-1, 0, 0], [0, 2, 0]],
            [[2, 0, 0], [0, 0, 0], [0, 0, -2]],
        ]
        assert equivariant_map_dim(rep, ad, field=f) == 1
        assert _brute_equivariant_dim(rep, ad, f) == 1


@pytest.mark.parametrize("p", [5, 7])
def test_equivariant_dim_reads_integer_arrays_mod_p(p):
    f = GF(p)
    rep, ad = rep_and_adjoint(2, "B", f)
    R, A = np.array(rep, dtype=np.int64), np.array(ad, dtype=np.int64)
    assert equivariant_map_dim(R, A, field=f) == 1
    assert equivariant_map_dim(R - p, A + 3 * p, field=f) == 1
    # with g0 acted on by zero, the maps are the invariant forms on S (one
    # line) times the 10 directions of g0
    assert equivariant_map_dim(R, np.zeros_like(A), field=f) == 10
    with pytest.raises(ValueError, match="same generators"):
        equivariant_map_dim(R[:-1], A, field=f)


def test_equivariant_dim_is_conjugation_invariant():
    # basis change on S must not move the answer (3 random trials, l = 2)
    f = GF(5)
    rep, ad = rep_and_adjoint(2, "B", f)
    base = equivariant_map_dim(rep, ad, field=f)
    assert base == 1
    rng = random.Random(12)
    ds = len(rep[0])
    for _ in range(3):
        while True:
            P = np.array([[rng.randrange(5) for _ in range(ds)]
                          for _ in range(ds)], dtype=np.int64)
            try:
                Pi = inv_modp(P, 5)
                break
            except ValueError:
                continue
        conj = []
        for M in rep:
            Mp = Pi @ np.array([[int(x) for x in row] for row in M]) @ P % 5
            conj.append([[f.of_int(int(x)) for x in row] for row in Mp])
        assert equivariant_map_dim(conj, ad, field=f) == base


def _brute_equivariant_dim(rep, ad, f):
    """Reference for equivariant_map_dim: the nullity of every generator's
    constraint, the torus included, on all ds*ds*dg unknowns, with no
    weight filter and no sparse start.  Over Q it is one exact rank of the
    stacked dense Kronecker constraint matrices; over GF(p) the kernel is
    cut from the identity one generator at a time by dense contraction."""
    p = f.p
    R, A = exact_array(rep, p), exact_array(ad, p)
    ds, dg = R.shape[1], A.shape[1]
    n = ds * ds * dg
    if not p:
        # scaling every matrix by one common denominator keeps the rank
        (NR, dR), (NA, dA) = common_denominator(R), common_denominator(A)
        d = dR * dA // gcd(dR, dA)
        R = (NR * (d // dR)).astype(np.int64)
        A = (NA * (d // dA)).astype(np.int64)
        eye = lambda m: np.eye(m, dtype=np.int64)
        stack = np.vstack([np.kron(eye(ds * ds), Ad) - np.kron(G.T, eye(ds * dg))
                           - np.kron(eye(ds), np.kron(G.T, eye(dg)))
                           for G, Ad in zip(R, A)])
        return n - rank_int(np.unique(stack, axis=0))        # repeats dropped
    kernel = np.eye(n, dtype=np.int64)
    for G, Ad in zip(R, A):
        K = kernel.reshape(ds, ds, dg, -1)
        M = (np.einsum("cd,stdw->stcw", Ad, K) - np.einsum("as,atcw->stcw", G, K)
             - np.einsum("at,sacw->stcw", G, K)) % p
        kernel = matmul_modp(kernel, nullspace_modp(M.reshape(n, -1), p).T, p)
    return kernel.shape[1]


@pytest.mark.parametrize("l, char", [(2, 0)] + [(l, p) for l in (2, 3)
                                                 for p in (3, 5, 7)])
def test_equivariant_dim_matches_the_brute_force_nullspace(l, char):
    f = make_field(char)
    rep, ad = rep_and_adjoint(l, "B", f)
    assert equivariant_map_dim(rep, ad, field=f) == _brute_equivariant_dim(rep, ad, f) == 1


def test_equivariant_dim_ignores_the_generator_order():
    f = GF(7)
    rep, ad = rep_and_adjoint(3, "B", f)
    R, A = np.array(rep, dtype=np.int64), np.array(ad, dtype=np.int64)
    order = list(range(len(R)))
    random.Random(19).shuffle(order)
    assert order[0] != 0
    assert equivariant_map_dim(R[order], A[order], field=f) == 1
    assert _brute_equivariant_dim(R[order], A[order], f) == 1


def test_equivariant_dim_drops_for_a_perturbed_generator():
    f = GF(5)
    rep, ad = rep_and_adjoint(2, "B", f)
    R, A = np.array(rep, dtype=np.int64), np.array(ad, dtype=np.int64)
    a = int(np.flatnonzero(superalgebra._off_diagonal(R))[-1])    # not a torus one
    R[a, 0, 0] += 1
    assert equivariant_map_dim(R, A, field=f) == _brute_equivariant_dim(R, A, f) == 0


@pytest.mark.parametrize("rep, ad, shapes", [
    (np.zeros((2, 3, 4), dtype=np.int64), np.zeros((2, 2, 2), dtype=np.int64),
     r"\(2, 3, 4\) and \(2, 2, 2\)"),
    (np.zeros((2, 2, 2), dtype=np.int64), np.zeros((2, 2, 5), dtype=np.int64),
     r"\(2, 2, 2\) and \(2, 2, 5\)"),
    (np.zeros((2, 2), dtype=np.int64), np.zeros((2, 3, 3), dtype=np.int64),
     r"\(2, 2\) and \(2, 3, 3\)"),
    ([], [], r"\(0,\) and \(0,\)"),
], ids=["rep-not-square", "adjoint-not-square", "rep-2d", "no-generators"])
def test_equivariant_dim_refuses_malformed_stacks(rep, ad, shapes):
    with pytest.raises(ValueError, match=shapes):
        equivariant_map_dim(rep, ad, field=GF(5))


def test_equivariant_solve_memory_and_steps(monkeypatch):
    # the odd bracket of B5/GF(5) in the characteristic-5 identification:
    # 640 weight-compatible unknowns and 50 generators off the torus
    f = GF(5)
    B5 = build_superalgebra(5, "B", f)
    rep, ad = _block(B5, 0, 1, 1), _block(B5, 0, 0, 0)
    shapes = []
    real = superalgebra.nullspace_modp
    monkeypatch.setattr(superalgebra, "nullspace_modp",
                        lambda M, p: shapes.append(M.shape) or real(M, p))
    tracemalloc.start()
    try:
        dim = equivariant_map_dim(rep, ad, field=f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert dim == 1
    assert peak < 12 * 2**20, peak
    assert len(shapes) <= 6, shapes


def ospz():
    """osp(1|2) over GF(5) with a central even element z added at index 3."""
    shifted = {}
    for (i, j), t in osp12(GF(5)).table.items():
        i2 = i if i < 3 else i + 1
        j2 = j if j < 3 else j + 1
        shifted[(i2, j2)] = {(k if k < 3 else k + 1): v for k, v in t.items()}
    return SuperAlgebra("ospz", GF(5), 4, 2, ["e", "h", "f", "z", "x", "y"],
                        shifted, odd_symmetric=True)


def test_simplicity_certificate_and_center_negative_control():
    stat, note = simplicity_certificate(osp12(GF(5)))
    assert stat == "certified", (stat, note)
    Z = ospz()
    assert check_jacobi(Z, "full").jacobi_pass
    stat, note = simplicity_certificate(Z)
    assert stat == "failed"


def test_largest_ideal_inside_a_kernel():
    Z = ospz()
    z, e = [0, 0, 0, 1], [1, 0, 0, 0]
    assert _largest_ideal_inside(Z, [z]) == 1
    # [f, e] = -h leaves span(z, e), so only the center survives
    assert _largest_ideal_inside(Z, [z, e]) == 1
    assert _largest_ideal_inside(Z, [e]) == 0
    assert _largest_ideal_inside(Z, [e, [0, 1, 0, 0], [0, 0, 1, 0], z]) == 4


@pytest.mark.parametrize("f", [QQ, GF(5), GF(7)], ids=repr)
@pytest.mark.parametrize("odd_symmetric", [True, False])
def test_brackets_into_matches_bracket_vectors(f, odd_symmetric):
    # row a of _brackets_into(A, x) is [e_a, x], against the dictionary
    # route; over Q the tables have denominator 2 and x has thirds
    rng = random.Random(11)
    algebras = [random_algebra(seed, f, odd_symmetric) for seed in range(4)]
    if odd_symmetric:
        algebras += [osp12(f), build_superalgebra(2, "B", f)]
    for A in algebras:
        n = A.dim
        unit = [[int(a == b) for b in range(n)] for a in range(n)]
        for _ in range(4):
            x = [Fraction(rng.randint(-4, 4), rng.choice([1, 3])) if f.p == 0
                 else rng.randint(-9, 9) for _ in range(n)]
            got = _brackets_into(A, x)
            want = [A.bracket_vectors(unit[a], [f.raw(c) for c in x])
                    for a in range(n)]
            assert got.tolist() == want, A.name
        assert not _brackets_into(A, [0] * n).any()


def d2_seeds(ch, pick):
    f = make_field(ch)
    return build_superalgebra(2, "D", f), pick(*decompose_type_d_l2(f))


def unit_seed(slot):
    f = GF(5)
    return build_tits("unit", f), [tits_model("unit", f).LL[1, slot].tolist()]


# id -> (a builder of (algebra, seed rows), the dimension of the closure)
CLOSURE_CASES = {}
for _ch in (0, 3, 5, 7):
    CLOSURE_CASES.update({
        f"sl2-e-{_ch}": (lambda ch=_ch: (sl2(make_field(ch)), [[1, 0, 0]]), 3),
        f"sl2-h-{_ch}": (lambda ch=_ch: (sl2(make_field(ch)), [[0, 1, 0]]), 3),
        f"sl2-zero-{_ch}": (lambda ch=_ch: (sl2(make_field(ch)), [[0, 0, 0]]), 0),
        f"D2-first-{_ch}": (lambda ch=_ch: d2_seeds(ch, lambda a, b: a), 5),
        f"D2-second-{_ch}": (lambda ch=_ch: d2_seeds(ch, lambda a, b: b), 3),
        f"D2-last-{_ch}": (lambda ch=_ch: d2_seeds(ch, lambda a, b: a[-1:]), None),
        f"D2-both-{_ch}": (lambda ch=_ch: d2_seeds(ch, lambda a, b: a[:1] + b[:1]), None),
    })
CLOSURE_CASES.update({
    "unit-xe": (lambda: unit_seed(4), 5),        # x⊗e
    "unit-ex": (lambda: unit_seed(2), 5),        # e⊗x
    # e + x, even plus odd: the closure under x -> [e_a, x]
    "osp12-e+x-0": (lambda: (osp12(QQ), [[1, 0, 0, 1, 0]]), 5),
    "osp12-e+x-5": (lambda: (osp12(GF(5)), [[1, 0, 0, 1, 0]]), 5),
    "B4-e0-3": (lambda: (build_superalgebra(4, "B", GF(3)), [[1] + [0] * 51]), 52),
})


@pytest.mark.parametrize("case", list(CLOSURE_CASES))
def test_ideal_closure_matches_the_dictionary_closure(case):
    # the array closure against the one-bracket-at-a-time dictionary route
    build, dim = CLOSURE_CASES[case]
    A, seeds = build()
    got = ideal_closure(A, seeds)
    assert got == ideal_closure_by_dictionary(A, seeds)
    assert dim is None or len(got) == dim


@pytest.mark.parametrize("call", [
    lambda: ideal_closure(sl2(GF(5)), [[0.5, 0, 0]]),
    lambda: ideal_closure(sl2(QQ), np.array([[0.5, 0, 0]])),
    lambda: verify_isomorphism([[0.5, 0], [0, 1]], *[abelian11(GF(5))] * 2),
    lambda: verify_isomorphism(np.eye(2), *[abelian11(QQ)] * 2),
], ids=["closure-GF(5)", "closure-Q", "isomorphism-GF(5)", "isomorphism-Q"])
def test_closure_and_isomorphism_refuse_floats(call):
    # 0.5 used to read as 0 over GF(5): an empty closure, a False verdict
    with pytest.raises(TypeError, match="inexact value"):
        call()


def test_table_constructor_refuses_floats():
    # 0.5 over GF(5) was read as 0, so the table came out empty
    with pytest.raises(TypeError, match="inexact value 0.5"):
        SuperAlgebra("f", GF(5), 2, 0, ["a", "b"], {(0, 1): {1: 0.5}}, False)
    with pytest.raises(TypeError, match="inexact value"):
        SuperAlgebra("f", QQ, 2, 0, ["a", "b"], {(0, 1): {1: 0.1}}, False)


def test_norton_refuses_floats():
    # [[[0.5]]] was read as the zero operator
    with pytest.raises(TypeError, match="inexact value 0.5"):
        norton_irreducible([[[0.5]]], 1, 5)
    assert norton_irreducible([[[Fraction(1, 2)]]], 1, 5) == ("certified", 1)


def abelian11(f):
    return SuperAlgebra("abelian", f, 1, 1, ("e", "o"), {}, odd_symmetric=True)


def test_verify_isomorphism_refuses_other_shapes():
    A = abelian11(GF(5))
    assert verify_isomorphism([[1, 0], [0, 1]], A, A)
    for mat in ([[1, 0], [0]], [[1, 0, 0], [0, 1]], [[1, 0]], [1, 1],
                np.eye(3, dtype=np.int64), [[[1, 0], [0, 1]]]):
        assert verify_isomorphism(mat, A, A) is False
    zero = SuperAlgebra("zero", GF(5), 0, 0, (), {}, odd_symmetric=False)
    assert verify_isomorphism([], zero, zero) and verify_isomorphism([[]], zero, zero)
    assert verify_isomorphism([[0]], zero, zero) is False


def test_verify_isomorphism_with_odd_rescaling():
    for f in (QQ, GF(7)):
        A = osp12(f)
        n = A.dim
        ident = [[f.one() if i == j else f.zero() for j in range(n)]
                 for i in range(n)]
        assert verify_isomorphism(ident, A, A) is True
        lam = 3
        B = osp12(f, lam=lam)
        M = [[f.zero()] * n for _ in range(n)]
        for i in range(3):
            M[i][i] = f.one()
        for i in (3, 4):
            M[i][i] = f.raw(Fraction(1, lam))
        assert verify_isomorphism(M, A, B) is True
        M[0][0] = f.of_int(2)
        assert verify_isomorphism(M, A, B) is False


def transported(A, G):
    """The algebra B on A's basis with [G e_i, G e_j] = G [e_i, e_j]_A, so
    that the invertible parity-preserving exact array G is an isomorphism
    A -> B: [f_a, f_b] = sum G^-1[i, a] G^-1[j, b] G [e_i, e_j]_A."""
    p, n = A.field.p, A.dim
    I, J, K, V, scale = A.coo
    table = exact_array(np.zeros((n, n, n), dtype=np.int64), p)
    table[I, J, K] = V if p else [Fraction(v, scale) for v in V.tolist()]
    Gi = inv_modp(G, p)
    X = matmul_modp(table.reshape(n * n, n), np.ascontiguousarray(G.T), p)
    X = matmul_modp(Gi.T, X.reshape(n, n * n), p).reshape(n, n, n)
    X = matmul_modp(Gi.T, X.transpose(1, 0, 2).reshape(n, n * n), p)
    X = X.reshape(n, n, n).transpose(1, 0, 2)
    bracket = {(a, b): {c: X[a, b, c] for c in range(n) if X[a, b, c]}
               for a in range(n) for b in range(n)}
    return SuperAlgebra("transported", A.field, A.n0, A.n1, A.labels, bracket,
                        A.odd_symmetric)


def parity_preserving(f, n0, n, density, rng):
    """A random invertible parity-preserving n x n exact array over f, with
    about density of the entries of its two diagonal blocks nonzero."""
    p = f.p
    while True:
        G = exact_array(np.zeros((n, n), dtype=np.int64), p)
        for lo, hi in ((0, n0), (n0, n)):
            for r in range(lo, hi):
                for c in range(lo, hi):
                    if r == c or rng.random() < density:
                        G[r, c] = (rng.randrange(1, p) if p
                                   else Fraction(rng.choice([-3, -1, 1, 2]),
                                                 rng.choice([1, 2, 3])))
        if rank_modp(G, p) == n:
            return G


@pytest.mark.parametrize("tampered", [False, True], ids=["iso", "tampered"])
@pytest.mark.parametrize("density", [0.1, 1.0], ids=["sparse", "dense"])
@pytest.mark.parametrize("f", [GF(3), GF(5), GF(7), QQ], ids=repr)
def test_keyed_isomorphism_pass_matches_the_column_loop(f, density, tampered):
    # the keyed pass and the per-column dense products name the same first
    # pair (None for an isomorphism) on B2 and its image under a random G
    A = build_superalgebra(2, "B", f)
    rng = random.Random(f"{f.p}-{density}-{tampered}")
    G = parity_preserving(f, A.n0, A.dim, density, rng)
    B = transported(A, G)
    if tampered:
        r, c = rng.randrange(A.n0), rng.randrange(A.n0)
        G[r, c] = (G[r, c] + 1) % f.p if f.p else G[r, c] + Fraction(1, 2)
    want = first_unpreserved_pair_by_columns(G, A, B)
    assert (want is None) is not tampered
    assert superalgebra._first_unpreserved_pair(G, A, B) == want
    assert verify_isomorphism(G, A, B) is (want is None)


def test_first_unpreserved_pair_is_ordered_when_the_swap_rules_differ():
    # A skew with [o0, o1] = h, B odd-symmetric with [o0, o1] = -h: under
    # the identity E(o0, o1) = -2h but E(o1, o0) = 0, so E is not graded-skew
    # and the first mismatch, in column o1, lies above the diagonal
    f = GF(5)
    A = SuperAlgebra("A", f, 1, 2, ["h", "o0", "o1"], {(1, 2): {0: 1}},
                     odd_symmetric=False)
    B = SuperAlgebra("B", f, 1, 2, ["h", "o0", "o1"], {(1, 2): {0: -1}},
                     odd_symmetric=True)
    M = np.eye(3, dtype=np.int64)
    assert first_unpreserved_pair_by_columns(M, A, B) == (1, 2)
    assert superalgebra._first_unpreserved_pair(M, A, B) == (1, 2)
    assert verify_isomorphism(M, A, B) is False


@pytest.mark.parametrize("tampered", [False, True], ids=["iso", "tampered"])
def test_keyed_isomorphism_pass_across_blocks(tampered, monkeypatch):
    # a budget of 160 terms cuts the pairs into many blocks, some of
    # whole columns and some inside one column, with the same answer
    f = GF(5)
    A = build_superalgebra(2, "B", f)
    rng = random.Random(29)
    G = parity_preserving(f, A.n0, A.dim, 0.2, rng)
    B = transported(A, G)
    if tampered:
        G[A.dim - 1, A.dim - 1] = (G[A.dim - 1, A.dim - 1] + 1) % 5
    calls, runs_of = [], superalgebra._runs

    def recorded(counts):                   # the sizes of the runs of each call
        sizes = []
        calls.append(sizes)
        for s, e in runs_of(counts):
            sizes.append(e - s)
            yield s, e
    monkeypatch.setattr(superalgebra, "_ISO_BLOCK", 160)
    monkeypatch.setattr(superalgebra, "_runs", recorded)
    want = first_unpreserved_pair_by_columns(G, A, B)
    assert (want is None) is not tampered
    assert superalgebra._first_unpreserved_pair(G, A, B) == want
    assert len(calls) > 1 and len(calls[1]) > 1     # a column cut by rows
    if not tampered:                        # the pass runs to the end
        assert max(calls[0]) > 1            # a block of several columns


def s_squared(f, c):
    """The (1 | 1) odd-symmetric algebra with [s, s] = c h."""
    return SuperAlgebra("ss", f, 1, 1, ["h", "s"], {(1, 1): {0: c}},
                        odd_symmetric=True)


@pytest.mark.parametrize("f", [QQ, GF(5)])
def test_verify_isomorphism_refuses_a_singular_homomorphism(f):
    # the zero map of the one-dimensional abelian algebra preserves every
    # bracket, but it is not bijective
    Z = SuperAlgebra("Z", f, 1, 0, ["z"], {}, odd_symmetric=False)
    assert verify_isomorphism([[1]], Z, Z)
    assert verify_isomorphism([[0]], Z, Z) is False


@pytest.mark.parametrize("f", [QQ, GF(5)])
def test_verify_isomorphism_compares_the_last_diagonal_bracket(f):
    # the two algebras differ only at [s, s], s the last basis element
    A, B = s_squared(f, 1), s_squared(f, 2)
    assert verify_isomorphism([[1, 0], [0, 1]], A, A)
    assert verify_isomorphism([[1, 0], [0, 1]], A, B) is False


@pytest.mark.parametrize("f", [QQ, GF(5)])
def test_derived_algebra_reads_the_diagonal_brackets(f):
    # [A, A] = <h> comes from [s, s] alone
    assert derived_algebra(s_squared(f, 1)) == [[1, 0]]


SL2_NATURAL = [[[0, 1], [0, 0]], [[1, 0], [0, -1]], [[0, 0], [1, 0]]]          # e, h, f
SL2_ADJOINT = [[[0, -2, 0], [0, 0, 1], [0, 0, 0]],
               [[2, 0, 0], [0, 0, 0], [0, 0, -2]],
               [[0, 0, 0], [-1, 0, 0], [0, 2, 0]]]


def random_invertible(rng, n, p):
    """(P, P^-1) for a random invertible n x n matrix over GF(p)."""
    while True:
        P = np.array([[rng.randrange(p) for _ in range(n)] for _ in range(n)],
                     dtype=np.int64)
        try:
            return P, inv_modp(P, p)
        except ValueError:
            continue


def block_sum(left, right, p, seed):
    """The operators of left (+) right, conjugated by a random invertible
    matrix so that no block shows in the coordinates."""
    a, b = len(left[0]), len(right[0])
    n = a + b
    P, Pi = random_invertible(random.Random(seed), n, p)
    ops = []
    for L, R in zip(left, right):
        M = np.zeros((n, n), dtype=np.int64)
        M[:a, :a] = L
        M[a:, a:] = R
        ops.append(P @ M @ Pi % p)
    return ops


@pytest.mark.parametrize("p", [7, 10007, 67108859])
def test_eigenvalues_are_the_roots_in_the_field(p):
    # P diag(d) P^-1 has eigenvalues set(d); a random vector's minimal
    # polynomial misses one only with probability about n/p
    rng = random.Random(p)
    for trial in range(4):
        d = [rng.randrange(p) for _ in range(5)]
        d += d[:3]
        P, Pi = random_invertible(rng, len(d), p)
        x = matmul_modp(matmul_modp(P, np.diag(d), p), Pi, p)
        found = _eigenvalues(x, p, random.Random(trial))
        assert found == sorted(found) and set(found) <= set(d)
        if p > 1000:
            assert found == sorted(set(d))
    c = next(c for c in range(2, p) if pow(c, (p - 1) // 2, p) == p - 1)
    assert _eigenvalues(np.array([[0, c], [1, 0]]), p, random.Random(0)) == []


@pytest.mark.parametrize("p", [5, 7])
def test_norton_finds_a_submodule_of_a_reducible_module(p):
    for seed in range(4):
        ops = block_sum(SL2_NATURAL, SL2_ADJOINT, p, seed)
        # the only proper submodules are the two blocks, of dims 2 and 3
        assert norton_irreducible(ops, 5, p) in (("failed", 2), ("failed", 3))
        assert burnside_irreducible(ops, 5, GF(p)) is False
        trivial = [[[0]], [[0]], [[0]]]
        ops = block_sum(SL2_NATURAL, trivial, p, seed)
        assert norton_irreducible(ops, 3, p) in (("failed", 1), ("failed", 2))


@pytest.mark.parametrize("p,c", [(5, 2), (7, 3), (10007, 5)])
def test_norton_undecided_on_a_module_that_is_not_absolutely_irreducible(p, c):
    # x^2 - c has no root in GF(p): the module is irreducible over GF(p)
    # and splits over GF(p^2), so no element has nullity 1
    assert pow(c, (p - 1) // 2, p) == p - 1
    ops = [[[0, c], [1, 0]]]
    assert norton_irreducible(ops, 2, p) == ("undecided", None)
    assert burnside_irreducible(ops, 2, GF(p)) is False


@pytest.mark.parametrize("p", [3, 5, 7])
def test_norton_never_certifies_a_doubled_module(p):
    # every element acts on V (+) V with even nullity
    assert norton_irreducible(SL2_NATURAL, 2, p) == ("certified", 2)
    for seed in range(3):
        ops = block_sum(SL2_NATURAL, SL2_NATURAL, p, seed)
        assert norton_irreducible(ops, 4, p)[0] != "certified"


def spin_one_image_at_a_time(vec, mats, p):
    """The oracle for _spin: the span of vec grown by one image v @ M at a
    time, each new vector queued for its own images; gauss_jordan's
    (reduced rows, pivots)."""
    red, pivots = gauss_jordan([vec], p)
    queue = [np.asarray(vec, dtype=np.int64) % p] if pivots else []
    while queue:
        v = queue.pop()
        for M in mats:
            w = matmul_modp(v.reshape(1, -1), M, p)[0]
            grown, grown_pivots = gauss_jordan(red + [w.tolist()], p)
            if len(grown_pivots) > len(pivots):
                red, pivots = grown, grown_pivots
                queue.append(w)
    return red, pivots


def spin_cases(p):
    """(vec, mats) pairs over GF(p): dense and sparse seeded operator sets,
    block-triangular (reducible) sets spun from inside and outside their
    submodule, the zero vector and no operators at all."""
    rng = np.random.default_rng(p)
    cases = []
    for n, k, density in ((5, 3, 1.0), (9, 4, 0.15), (12, 2, 0.1), (16, 6, 0.05)):
        mats = [rng.integers(0, p, (n, n)) * (rng.random((n, n)) < density)
                for _ in range(k)]
        cases.append((rng.integers(0, p, n), mats))
    for a, b in ((3, 5), (6, 2)):
        n = a + b
        P, Pi = random_invertible(random.Random(a * p), n, p)
        mats = []
        for _ in range(3):
            M = rng.integers(0, p, (n, n))
            M[a:, :a] = 0           # rows v -> v @ M keep v[:a] == 0
            mats.append(matmul_modp(matmul_modp(Pi, M, p), P, p))
        inside = matmul_modp(np.concatenate([np.zeros(a, np.int64),
                                             rng.integers(1, p, b)])[None], P, p)[0]
        cases += [(inside, mats), (rng.integers(0, p, n), mats)]
    cases += [(rng.integers(1, p, 4), []),
              (np.zeros(4, np.int64), [np.eye(4, dtype=np.int64)])]
    return cases


@pytest.mark.parametrize("p", [3, 5, 7])
def test_spin_matches_the_one_image_at_a_time_closure(p, monkeypatch):
    sizes = []
    insert = RowSpaceModP.insert

    def spy(self, rows):
        sizes.append((self.width, np.asarray(rows).reshape(-1, self.width).shape[0]))
        return insert(self, rows)

    monkeypatch.setattr(RowSpaceModP, "insert", spy)
    dims = []
    for vec, mats in spin_cases(p):
        red, pivots = spin_one_image_at_a_time(vec.tolist(), mats, p)
        sizes.clear()
        space = _spin(vec, mats, p)
        assert space.pivots == pivots
        assert space.basis.tolist() == red
        assert all(rows <= n for n, rows in sizes)
        dims.append((space.dim, len(vec)))
    # the reducible sets spun from inside their submodule stop short of n,
    # and a wave of one row meets every operator in a single insert
    assert (5, 8) in dims and (2, 8) in dims
    sizes.clear()
    vec, mats = spin_cases(p)[1]
    _spin(vec, mats, p)
    assert sizes[1] == (9, len(mats))


def test_norton_spins_the_dual_kernel():
    # diag(1, 2) and e_12 fix the line of e_1 in GF(3)^2.  The kernel v of
    # the first theta of nullity 1 spins to all of GF(3)^2, so only the
    # spin of w, the kernel of theta^T, under the transposes finds it
    assert norton_irreducible([np.diag([1, 2]), [[0, 1], [0, 0]]], 2, 3) == (
        "failed", 1)


def test_norton_one_dimensional_and_empty_inputs():
    assert norton_irreducible([[[3]]], 1, 5) == ("certified", 1)
    assert norton_irreducible([], 1, 5) == ("certified", 1)
    assert norton_irreducible([], 2, 5) == ("undecided", None)
    for n, p in ((0, 5), (2, 2), (2, 9), (2, 0)):
        with pytest.raises(ValueError):
            norton_irreducible([], n, p)


def test_certificate_names_the_submodule_of_a_reducible_odd_part():
    # osp(1,2) + osp(1,2): perfect, but each copy's odd part is a submodule
    A = osp12(GF(5))
    first = {0: 0, 1: 1, 2: 2, 3: 6, 4: 7}
    second = {0: 3, 1: 4, 2: 5, 3: 8, 4: 9}
    br = {}
    for place in (first, second):
        for (i, j), t in A.table.items():
            br[(place[i], place[j])] = {place[k]: v for k, v in t.items()}
    B = SuperAlgebra("osp12x2", GF(5), 6, 4, [f"b{t}" for t in range(10)], br,
                     odd_symmetric=True)
    assert check_jacobi(B, "full").jacobi_pass
    assert simplicity_certificate(B) == (
        "failed", "even action on the odd part has a 2-dimensional submodule")


def test_certificate_refuses_the_rationals_and_algebras_without_odd_part():
    with pytest.raises(ValueError):
        simplicity_certificate(osp12(QQ))
    with pytest.raises(ValueError):
        simplicity_certificate(sl2(GF(5)))       # n1 = 0
    assert classify(4, "B", QQ).simplicity == "not-attempted"


GRID_SMALL = [(kind, l, p) for kind, l in (("B", 1), ("B", 2), ("B", 3), ("B", 4),
                                           ("D", 2), ("D", 4))
              for p in (3, 5, 7)]


@pytest.mark.parametrize("kind,l,p", GRID_SMALL + [("D", 6, 3), ("B", 4, 10007)])
def test_norton_agrees_with_burnside_on_grid_cells(kind, l, p):
    A = build_superalgebra(l, kind, GF(p))
    rep = _block(A, 0, 1, 1)
    verdict, dim = norton_irreducible(rep, A.n1, p)
    assert burnside_irreducible(rep, A.n1, GF(p)) is (verdict == "certified")
    assert (verdict, dim) == ("certified", A.n1)
