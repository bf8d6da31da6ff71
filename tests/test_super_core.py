import itertools
import random
from fractions import Fraction

import numpy as np
import pytest

from spinlab.fields import QQ, GF, make_field
from spinlab.superalgebra import (SuperAlgebra, burnside_irreducible,
                                  check_jacobi, derived_algebra,
                                  equivariant_map_dim, even_subalgebra,
                                  ideal_closure, j_triple,
                                  simplicity_certificate, verify_isomorphism,
                                  VerificationFailed, _scan_matrices,
                                  _scan_one_i, _witness_entry)
from spinlab.construct import build_superalgebra

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
    assert check_jacobi(O, "odd-only").jacobi_pass
    assert not brute_force_triples(O)
    assert len(derived_algebra(O)) == 5


def witness_triples(report):
    return [(w["i"], w["j"], w["k"]) for w in report.witnesses]


def test_scanner_agrees_with_brute_force_on_random_tables():
    for seed, f, sym in itertools.product(range(8), (QQ, GF(3), GF(5), GF(7)),
                                          (False, True)):
        A = random_algebra(seed * 10 + sym, f, sym)
        key = (seed, f.p, sym)
        want = brute_force_triples(A)
        # each row yields the canonical triples i <= j <= z
        par = np.array([A.parity(t) for t in range(6)], dtype=np.int64)
        mats = _scan_matrices(A)
        rows = [t for i in range(6) for t in _scan_one_i(A, mats, par, i, False)]
        assert rows == [t for t in want if t[0] <= t[1] <= t[2]], key
        # check_jacobi expands them to every ordered triple, in order
        full = check_jacobi(A, "full", witness_cap=10 ** 6)
        assert witness_triples(full) == want, key
        odd = check_jacobi(A, "odd-only", witness_cap=10 ** 6)
        assert witness_triples(odd) == [t for t in want if min(t) >= 3], key
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
def test_scan_refuses_constants_past_the_int64_bound(exponent):
    A = rescaled(build_superalgebra(2, "B", QQ), exponent)
    for mode in ("full", "odd-only"):
        with pytest.raises(ValueError, match="int64 scan bound"):
            check_jacobi(A, mode)
    # the exact route still sees an identity that holds
    assert check_jacobi(A, "generators", triples=[(0, 1, 10), (10, 11, 12)]).jacobi_pass


def test_scan_accepts_constants_inside_the_int64_bound():
    A = rescaled(build_superalgebra(2, "B", QQ), 2)
    assert check_jacobi(A, "full").jacobi_pass


def test_scan_refuses_tables_that_are_not_graded_skew():
    # [h,h] = e stored with swap sign -1, reachable only with check=False
    bad = SuperAlgebra("skewdiag", QQ, 3, 0, ["e", "h", "f"],
                       {(H, E): {E: 2}, (H, H): {E: 1}}, odd_symmetric=False,
                       check=False)
    with pytest.raises(ValueError, match="swap sign"):
        check_jacobi(bad, "full")
    off = SuperAlgebra("offgrade", QQ, 3, 2, ["e", "h", "f", "x", "y"],
                       {(H, E): {E: 2}, (H, 3): {E: 1}}, odd_symmetric=True,
                       check=False)
    with pytest.raises(ValueError, match="grading"):
        check_jacobi(off, "full")


def test_vanishing_witness_is_a_verification_failure():
    with pytest.raises(VerificationFailed, match="vanishing witness"):
        _witness_entry(sl2(QQ), (0, 1, 2))


def test_odd_only_mode_matches_restricted_brute_force():
    for seed in (3, 7):
        A = random_algebra(seed, GF(7), True)
        want = [(i, j, k) for (i, j, k) in brute_force_triples(A)
                if i >= 3 and j >= 3 and k >= 3]
        r = check_jacobi(A, "odd-only", witness_cap=10 ** 6)
        assert [(w["i"], w["j"], w["k"]) for w in r.witnesses] == want


def test_witness_detection_and_generators_mode():
    f = QQ
    bad = osp12(f)
    bad.table[(0, 4)] = {3: f.raw(2)}   # tamper: [e,y] = 2x
    bad._coo_cache = None
    r = check_jacobi(bad, "full", witness_cap=4)
    assert not r.jacobi_pass and 1 <= r.witness_count <= 4
    first = brute_force_triples(bad)[0]
    assert (r.witnesses[0]["i"], r.witnesses[0]["j"], r.witnesses[0]["k"]) == first
    g = check_jacobi(bad, "generators", triples=[first, (0, 0, 0)])
    assert not g.jacobi_pass and g.witness_count == 1
    val = dict((w, s) for w, s in g.witnesses[0]["value"])
    assert val == {k: f.to_str(v) for k, v in j_triple(bad, *first).items()}


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


def test_full_mode_subsumes_odd_only():
    A = build_superalgebra(4, "B", QQ)
    assert check_jacobi(A, "full").jacobi_pass
    assert check_jacobi(A, "odd-only").jacobi_pass


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
    for f in (QQ, GF(5)):
        e = [[0, 1], [0, 0]]
        fm = [[0, 0], [1, 0]]
        h = [[1, 0], [0, -1]]
        assert burnside_irreducible([e, fm, h], 2, f) is True
        blocks = [[[1, 0], [0, 2]], [[3, 0], [0, 1]]]
        assert burnside_irreducible(blocks, 2, f) is False


def test_equivariant_dim_for_sl2_two_dim_rep():
    for f in (QQ, GF(3), GF(5)):
        rep = [[[0, 1], [0, 0]], [[0, 0], [1, 0]], [[1, 0], [0, -1]]]
        ad = [
            [[0, -2, 0], [0, 0, 1], [0, 0, 0]],
            [[0, 0, 0], [-1, 0, 0], [0, 2, 0]],
            [[2, 0, 0], [0, 0, 0], [0, 0, -2]],
        ]
        assert equivariant_map_dim(rep, ad, field=f) == 1


def test_equivariant_dim_is_conjugation_invariant():
    # basis change on S must not move the answer (3 random trials, l = 2)
    f = GF(5)
    rep, ad = rep_and_adjoint(2, "B", f)
    base = equivariant_map_dim(rep, ad, field=f)
    assert base == 1
    rng = random.Random(12)
    ds = len(rep[0])
    from spinlab.linalg import inv_modp
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


def test_simplicity_certificate_and_center_negative_control():
    stat, note = simplicity_certificate(osp12(GF(5)))
    assert stat == "certified", (stat, note)
    br = dict(osp12(GF(5)).table)
    shifted = {}
    for (i, j), t in br.items():
        i2 = i if i < 3 else i + 1
        j2 = j if j < 3 else j + 1
        shifted[(i2, j2)] = {(k if k < 3 else k + 1): v for k, v in t.items()}
    Z = SuperAlgebra("ospz", GF(5), 4, 2, ["e", "h", "f", "z", "x", "y"],
                     shifted, odd_symmetric=True)
    assert check_jacobi(Z, "full").jacobi_pass
    stat, note = simplicity_certificate(Z)
    assert stat == "failed"


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
