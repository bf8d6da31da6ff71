import hashlib
import itertools
import json
import random
import tracemalloc
from fractions import Fraction
from math import gcd, prod

import numpy as np
import pytest

from spinlab import superalgebra
from spinlab.fields import QQ, GF, make_field
from spinlab.superalgebra import (SuperAlgebra, burnside_irreducible,
                                  check_jacobi, derived_algebra,
                                  equivariant_map_dim, even_subalgebra,
                                  ideal_closure, j_triple,
                                  norton_irreducible, simplicity_certificate,
                                  verify_isomorphism, VerificationFailed,
                                  _block, _eigenvalues, _largest_ideal_inside,
                                  _scan_matrices, _scan_moduli, _scan_one_i,
                                  _witness_entry)
from spinlab.construct import build_superalgebra, classify
from spinlab.linalg import (_rank_primes, common_denominator, exact_array,
                            inv_modp, matmul_modp, nullspace_modp, rank_int)

from helpers import rep_and_adjoint

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


def test_scanner_agrees_with_brute_force_on_random_tables():
    for seed, f, sym in itertools.product(range(8), (QQ, GF(3), GF(5), GF(7)),
                                          (False, True)):
        A = random_algebra(seed * 10 + sym, f, sym)
        key = (seed, f.p, sym)
        want = brute_force_triples(A)
        # each row yields the canonical triples i <= j <= z, each with the
        # content of its sums
        mats = _scan_matrices(A)
        rows = [row for i in range(6) for row in _scan_one_i(mats, i)]
        assert [t for t, _ in rows] == [t for t in want if t[0] <= t[1] <= t[2]], key
        for t, g in rows:
            assert g == content(A, t) > 0, key + (t,)
        # check_jacobi expands them to every ordered triple, in order
        full = check_jacobi(A, "full", witness_cap=10 ** 6)
        assert witness_triples(full) == want, key
        for cap in (1, 3, 10):
            capped = check_jacobi(A, "full", witness_cap=cap)
            assert witness_triples(capped) == want[:cap], key + (cap,)


def rescaled(A, exponent):
    """A copy of A on the basis e_i * 2^(exponent * (i mod 3)), an isomorphic algebra."""
    lam = [Fraction(2) ** (exponent * (i % 3)) for i in range(A.dim)]
    table = {(i, j): {k: v * lam[i] * lam[j] / lam[k] for k, v in terms.items()}
             for (i, j), terms in A.table.items()}
    return SuperAlgebra(f"{A.name}_rescaled", A.field, A.n0, A.n1, A.labels,
                        table, odd_symmetric=A.odd_symmetric)


@pytest.mark.parametrize("exponent", [8, 13])
def test_scan_past_the_int64_bound_sums_modulo_fixed_primes(exponent):
    A = rescaled(build_superalgebra(2, "B", QQ), exponent)
    # the fewest leading fixed primes whose product exceeds twice the bound
    # 3*n*max|V|^2 >= 2^63 on the sums
    moduli = _scan_moduli(A)
    top = max(map(abs, A.coo[3].tolist()))
    bound = 3 * A.dim * top * top
    assert bound >= 1 << 63 and moduli == _rank_primes()[:len(moduli)]
    assert prod(moduli[:-1]) <= 2 * bound < prod(moduli)
    assert check_jacobi(A, "full").jacobi_pass
    assert brute_force_triples(A) == []
    # the exact route still sees an identity that holds
    assert check_jacobi(A, "generators", triples=[(0, 1, 10), (10, 11, 12)]).jacobi_pass
    # one entry perturbed: the scan finds exactly the brute-force witnesses,
    # and the contents it recovers by CRT are exact
    table = {key: dict(terms) for key, terms in A.table.items()}
    pair = sorted(table)[len(table) // 2]
    table[pair][min(table[pair])] += 1
    bad = SuperAlgebra("perturbed", QQ, A.n0, A.n1, A.labels, table,
                       odd_symmetric=A.odd_symmetric)
    assert len(_scan_moduli(bad)) > 1
    want = brute_force_triples(bad)
    assert want
    assert witness_triples(check_jacobi(bad, "full", witness_cap=10 ** 6)) == want
    mats = _scan_matrices(bad)
    rows = [row for i in range(bad.dim) for row in _scan_one_i(mats, i)]
    assert [t for t, _ in rows] == [t for t in want if t[0] <= t[1] <= t[2]]
    assert all(g == content(bad, t) for t, g in rows)


def test_scan_refuses_when_the_fixed_primes_run_out():
    # 3*n*max|V|^2 = 9 * 2^600 outruns the 16 primes, whose product is below 2^400
    A = SuperAlgebra("huge", QQ, 3, 0, ["e", "h", "f"], {(H, E): {E: 2 ** 300}},
                     odd_symmetric=False)
    with pytest.raises(ValueError, match="outrun the product of the fixed primes"):
        check_jacobi(A, "full")


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
            M[i][i] = f.inv(f.of_int(lam))
        assert verify_isomorphism(M, A, B) is True
        M[0][0] = f.of_int(2)
        assert verify_isomorphism(M, A, B) is False


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
