import ast
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from math import gcd
from pathlib import Path

import numpy as np
import pytest

from spinlab import clifford, construct, superalgebra, tits
from spinlab.fields import QQ, GF, Field, make_field
from spinlab.exterior import b_is_symmetric, bhat_is_symmetric
from spinlab.clifford import gram_pairing, rho_tables
from spinlab.construct import (OddHalfSpinUnsupported, bracket_is_symmetric,
                               build_superalgebra, classify,
                               decompose_type_d_l2, generator_triples,
                               module_masks)
from spinlab.superalgebra import (SuperAlgebra, VerificationFailed, check_jacobi,
                                  j_triple)

from exterior_reference import form_sign
from helpers import CONTENTS, closed_form_cases, gauss_jordan

CHARS = (0, 3, 5, 7)
EXPECT_B = {(1, c) for c in CHARS} | {(2, c) for c in CHARS} | {(3, 3)} \
    | {(4, c) for c in CHARS} | {(5, 5)} | {(6, 3)}
EXPECT_D = {(2, c) for c in CHARS} | {(4, c) for c in CHARS} | {(6, 3)}


@pytest.mark.parametrize("ch", [0, 3, 5])
@pytest.mark.parametrize("l", [3, 4, 5, 6])
def test_closed_forms(l, ch):
    for got, want in closed_form_cases(l, make_field(ch)):
        assert got == want, (l, ch)


def test_pinned_jacobi_values_over_qq():
    A6 = build_superalgebra(6, "B", QQ)
    i1 = A6.n0 + 0
    assert j_triple(A6, i1, A6.n0 + 63, i1) == {i1: Fraction(3)}
    A5 = build_superalgebra(5, "B", QQ)
    assert j_triple(A5, A5.n0, A5.n0 + 31, A5.n0) == {A5.n0: Fraction(5, 2)}
    A3 = build_superalgebra(3, "B", QQ)
    iv1 = A3.n0 + 1
    assert j_triple(A3, A3.n0, A3.n0 + 7, iv1) == {iv1: Fraction(3, 4)}
    # J(1, v1..vl, v1..vr) = ((l-2r)/4) v1..vr at (7,3), (8,3), (8,4)
    for l, r in ((7, 3), (8, 3), (8, 4)):
        A = build_superalgebra(l, "B", QQ)
        m = list(module_masks(l, "B"))
        ir = A.n0 + m.index((1 << r) - 1)
        val = j_triple(A, A.n0, A.n0 + m.index((1 << l) - 1), ir)
        want = Fraction(l - 2 * r, 4)
        assert val == ({ir: want} if want else {}), (l, r, val)


def test_dimensions():
    want_b = {1: (3, 2), 2: (10, 4), 3: (21, 8), 4: (36, 16),
              5: (55, 32), 6: (78, 64)}
    for l, dims in want_b.items():
        A = build_superalgebra(l, "B", QQ)
        assert (A.n0, A.n1) == dims
    want_d = {2: (6, 2), 4: (28, 8), 6: (66, 32), 8: (120, 128)}
    for l, dims in want_d.items():
        A = build_superalgebra(l, "D", QQ)
        assert (A.n0, A.n1) == dims
    with pytest.raises(OddHalfSpinUnsupported):
        build_superalgebra(3, "D", QQ)


def test_classification_sweep():
    for kind, ls, expect in (("B", range(1, 7), EXPECT_B),
                             ("D", (2, 4, 6), EXPECT_D)):
        for l in ls:
            for ch in CHARS:
                r = classify(l, kind, make_field(ch))
                assert r.jacobi_pass == ((l, ch) in expect), (kind, l, ch)
                assert r.mode == "full"


@pytest.mark.parametrize("kind,l", list(CONTENTS))
def test_jacobi_content_decides_every_odd_characteristic(kind, l):
    A = build_superalgebra(l, kind, QQ)
    content = gcd(*(g for i in range(A.dim) for _, g in A._jacobi.row(i)))
    assert content == CONTENTS[(kind, l)]
    for p in (3, 5, 7, 11, 13):
        got = check_jacobi(build_superalgebra(l, kind, GF(p))).jacobi_pass
        assert got == (content % p == 0), p


def _unlinked(A):
    """A copy of A made from its stored COO entries: it scans its own table
    (residues over GF(p)) instead of the shared rows."""
    I, J, K, V, scale = A.coo
    kept = I <= J
    return SuperAlgebra._from_coo(A.name, A.field, A.n0, A.n1, A.labels,
                                  (I[kept], J[kept], K[kept], V[kept], scale),
                                  A.odd_symmetric)


@pytest.mark.parametrize("kind,l", list(CONTENTS))
def test_shared_jacobi_rows_agree_with_each_field_own_scan(kind, l):
    # the per-prime scans stay the independent check of p | content
    for ch in CHARS + ((11, 13) if l <= 6 else ()):
        A = build_superalgebra(l, kind, make_field(ch))
        B = _unlinked(A)
        assert A._jacobi is construct._jacobi_rows(l, kind) and B._jacobi is None
        assert B == A
        assert check_jacobi(A) == check_jacobi(B), (kind, l, ch)
        if l <= 5:
            assert (check_jacobi(A, witness_cap=100)
                    == check_jacobi(B, witness_cap=100)), (kind, l, ch)


def test_jacobi_rows_are_certified_or_scanned_once_and_on_first_use(monkeypatch):
    # warm the tits caches first: the so(M, Q) ⋉ M and ⋉ S scans of a cold
    # cache are Jacobi scans too, but of other algebras
    tits.cross_identify_with_typeB(GF(5))
    calls = []
    scan = superalgebra._scan_rows

    def spy(mats, rows, low):
        calls.append((list(rows), list(low)))
        return scan(mats, rows, low)

    monkeypatch.setattr(superalgebra, "_scan_rows", spy)
    construct._jacobi_rows.cache_clear()
    build_superalgebra(5, "B", GF(5))
    tits.cross_identify_with_typeB(GF(5))
    assert calls == []
    for f in (QQ, GF(3), GF(5), GF(7)):
        classify(8, "D", f)
    # the certificate's calls come first: the full rows of the 17
    # generators and the canonical row 120 = n0.  D8 satisfies the
    # identity, so they certify every row, once, and no block of
    # canonical rows follows
    monkeypatch.undo()
    gens = sorted(construct._chevalley_generators(8, "D"))
    assert [i for rows, _ in calls for i in rows] == gens + [120]
    assert [j for _, low in calls for j in low] == [0] * 17 + [120]
    A = construct._assemble(8, "D", QQ)
    certified = superalgebra._certified_rows(superalgebra._scan_matrices(A), gens)
    assert certified == [()] * 248
    # the plain route scans contiguous ascending blocks of canonical rows
    # that hold every row once, each within 512 first-index entries or a
    # single row
    calls.clear()
    monkeypatch.setattr(superalgebra, "_scan_rows", spy)
    plain = superalgebra._JacobiRows(lambda: A)
    assert [plain.row(i) for i in range(248)] == certified
    assert all(rows == low for rows, low in calls)
    assert [i for rows, _ in calls for i in rows] == list(range(248))
    key1, n = superalgebra._scan_matrices(A)[0][0][0], A.dim
    for rows, _ in calls:
        used = np.searchsorted(key1, (rows[0] * n, rows[-1] * n + n))
        assert len(rows) == 1 or used[1] - used[0] <= superalgebra._SCAN_BLOCK


@pytest.mark.parametrize("kind,l", list(CONTENTS))
def test_every_grid_table_takes_the_certificate_first(kind, l, monkeypatch):
    # the first row asked of the shared Q rows makes only the
    # certificate's calls, whatever the size of the table: the full rows
    # of the generators, then the canonical row n0, and no plain block
    calls = []
    scan = superalgebra._scan_rows

    def spy(mats, rows, low):
        calls.append((list(rows), list(low)))
        return scan(mats, rows, low)

    monkeypatch.setattr(superalgebra, "_scan_rows", spy)
    construct._jacobi_rows.cache_clear()
    try:
        assert construct._jacobi_rows(l, kind).row(0) == ()
    finally:
        construct._jacobi_rows.cache_clear()
    gens, n0 = sorted(construct._chevalley_generators(l, kind)), clifford.so_dim(l, kind)
    assert [i for rows, _ in calls for i in rows] == gens + [n0]
    assert [j for _, low in calls for j in low] == [0] * len(gens) + [n0]


@pytest.mark.parametrize("kind,l", list(CONTENTS))
def test_certified_rows_equal_the_plain_route(kind, l):
    A = construct._assemble(l, kind, QQ)
    gens = construct._chevalley_generators(l, kind)
    assert len(set(gens)) == len(gens) == 2 * l + 1 and max(gens) < A.n0
    plain = superalgebra._JacobiRows(lambda: A)
    want = [plain.row(i) for i in range(A.dim)]
    # the certificate holds in every cell: every row where the identity
    # holds (content 0), else the even rows and the canonical row n0
    certified = superalgebra._certified_rows(superalgebra._scan_matrices(A), gens)
    assert len(certified) == (A.dim if CONTENTS[kind, l] == 0 else A.n0 + 1)
    assert certified == want[:len(certified)] and want[A.n0 - 1] == ()
    rows = superalgebra._JacobiRows(lambda: A, gens)
    assert [rows.row(i) for i in range(A.dim)] == want


def test_cartan_generators_fall_back_to_the_plain_scan(monkeypatch):
    # the Cartan pairs bracket to 0 among themselves: their peel reaches
    # nothing, the certificate proves no row, and every row is scanned
    A = construct._assemble(4, "B", QQ)
    cartan = clifford.pair_basis(4, "B").cartan
    mats = superalgebra._scan_matrices(A)
    assert superalgebra._peel(mats, cartan, cartan, A.n0).sum() == len(cartan)
    assert superalgebra._certified_rows(mats, cartan) == []
    plain = superalgebra._JacobiRows(lambda: A)
    want = [plain.row(i) for i in range(A.dim)]
    calls = []
    scan = superalgebra._scan_rows

    def spy(mats, rows, low):
        calls.append((list(rows), list(low)))
        return scan(mats, rows, low)

    monkeypatch.setattr(superalgebra, "_scan_rows", spy)
    rows = superalgebra._JacobiRows(lambda: A, cartan)
    assert [rows.row(i) for i in range(A.dim)] == want
    # the certificate's one call (full Cartan rows and row 36), then the
    # plain blocks from row 0
    (cert, low), *blocks = calls
    assert (cert, low) == (sorted(cartan) + [A.n0], [0] * 4 + [A.n0])
    assert [i for r, lo in blocks for i in r] == list(range(A.dim))
    assert all(r == lo for r, lo in blocks)


def _shifted(A, stored):
    """A copy of the Q table A with 1 added to the stored entry at position
    stored of its i <= j half, in both orders (the mirror is made by
    _store)."""
    I, J, K, V, scale = A.coo
    kept = np.flatnonzero(I <= J)
    V = V[kept].copy()
    V[stored] += 1
    return SuperAlgebra._from_coo("shifted", QQ, A.n0, A.n1, A.labels,
                                  (I[kept], J[kept], K[kept], V, scale),
                                  A.odd_symmetric)


@pytest.mark.parametrize("block", ["even", "odd"])
def test_a_shifted_structure_constant_is_refused_by_the_certificate(block):
    # a constant of the so part in a pair of two non-generators, or of the
    # odd product, shifted in both orders: some even row no longer
    # vanishes, the certificate proves no row past the plain route's, and
    # the cell fails
    A = construct._assemble(4, "B", QQ)
    gens = set(construct._chevalley_generators(4, "B"))
    I, J, K, V, _ = A.coo
    kept = np.flatnonzero(I <= J)
    I, J = I[kept], J[kept]
    if block == "even":
        hit = (J < A.n0) & ~np.isin(I, list(gens)) & ~np.isin(J, list(gens))
    else:
        hit = I >= A.n0
    B = _shifted(A, np.flatnonzero(hit)[len(np.flatnonzero(hit)) // 2])
    plain = superalgebra._JacobiRows(lambda: B)
    want = [plain.row(i) for i in range(B.dim)]
    assert any(want[:B.n0])
    certified = superalgebra._certified_rows(superalgebra._scan_matrices(B),
                                             sorted(gens))
    assert certified == want[:len(certified)] and len(certified) < B.dim
    rows = superalgebra._JacobiRows(lambda: B, sorted(gens))
    assert [rows.row(i) for i in range(B.dim)] == want
    assert not check_jacobi(B).jacobi_pass


CERTIFICATE_UNDER_O = """
import json
import numpy as np
from spinlab import construct, superalgebra as S
from spinlab.fields import QQ

def check(A, gens):
    plain = S._JacobiRows(lambda: A)
    want = [plain.row(i) for i in range(A.dim)]
    got = S._certified_rows(S._scan_matrices(A), gens)
    return [len(got), got == want[:len(got)]]

out = {}
for l in (4, 7):
    out[l] = check(construct._assemble(l, "B", QQ),
                   construct._chevalley_generators(l, "B"))
A = construct._assemble(4, "B", QQ)
I, J, K, V, scale = A.coo
kept = np.flatnonzero(I <= J)
V = V[kept].copy()
V[np.flatnonzero(J[kept] < A.n0)[100]] += 1
B = S.SuperAlgebra._from_coo("shifted", QQ, A.n0, A.n1, A.labels,
                             (I[kept], J[kept], K[kept], V, scale), A.odd_symmetric)
out["shifted"] = check(B, construct._chevalley_generators(4, "B"))
print(json.dumps(out))
"""


def test_the_certificate_holds_under_optimize():
    # python -O strips assert statements; the certificate's checks must
    # survive it
    env = dict(os.environ)
    src = str(Path(construct.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-O", "-c", CERTIFICATE_UNDER_O], env=env,
                         capture_output=True, text=True, timeout=300, check=True)
    assert json.loads(out.stdout) == {"4": [52, True], "7": [106, True],
                                      "shifted": [0, True]}


def _paper_triple(l, kind, r):
    """(1, top, v1...vr) of generator_triples: the paper's reduction of the
    Jacobi check to l + 1 triples, kept here as a checked prediction."""
    A = build_superalgebra(l, kind, QQ)
    triples = generator_triples(l, kind, A)
    masks = list(module_masks(l, kind))
    want = (A.n0, A.n0 + A.n1 - 1, A.n0 + masks.index((1 << r) - 1))
    assert want in triples
    return want


def test_generators_mode_type_b_l8():
    # the paper predicts a failing generator triple at r = 3
    tr3 = _paper_triple(8, "B", 3)
    for ch in CHARS:
        f = make_field(ch)
        assert j_triple(build_superalgebra(8, "B", f), *tr3), ch
        r = classify(8, "B", f)
        assert r.mode == "full" and not r.jacobi_pass, ch


def test_generators_mode_type_d_l10_fails_at_middle_degree():
    # the paper predicts the failing generator triple at r = (l-2)/2 = 4
    tr4 = _paper_triple(10, "D", 4)
    for ch in CHARS:
        f = make_field(ch)
        assert j_triple(build_superalgebra(10, "D", f), *tr4), ch
        r = classify(10, "D", f)
        assert r.mode == "full" and not r.jacobi_pass, ch


def test_simplicity_attachment():
    assert classify(3, "B", GF(3)).simplicity == "certified"
    assert classify(2, "D", GF(5)).simplicity == "failed"
    assert classify(4, "B", QQ).simplicity == "not-attempted"


@pytest.mark.parametrize("l", [True, 2.0], ids=repr)
def test_l_that_is_no_integer_is_refused(l):
    # refused before any table is built or looked up: True used to build
    # B1 under the name typeB_lTrue, 2.0 died in a shift
    caches = (construct._integer_tensor, construct._jacobi_rows)
    before = [c.cache_info() for c in caches]
    with pytest.raises(ValueError, match="^l must be an integer"):
        build_superalgebra(l, "B", QQ)
    with pytest.raises(ValueError, match="^l must be an integer"):
        classify(l, "B", GF(3))
    assert [c.cache_info() for c in caches] == before
    assert build_superalgebra(np.int64(2), "B", QQ).name == "typeB_l2"


def test_decompose_type_d_l2():
    for ch in (0, 3, 5, 7):
        one, two = decompose_type_d_l2(make_field(ch))
        assert len(one) == 5 and len(two) == 3


@pytest.mark.parametrize("kind,l", [("B", 2), ("B", 3), ("B", 4), ("B", 5),
                                    ("D", 2), ("D", 4)])
def test_spin_bracket_invariance(kind, l):
    # [sigma, [s,t]] = [rho(sigma)s, t] + [s, rho(sigma)t]: the Jacobi
    # triple (sigma, s, t) of the built algebra vanishes, in every cell
    f = GF(7)
    rng = random.Random(31 * l + ord(kind))
    A = build_superalgebra(l, kind, f)
    for _ in range(100):
        k = rng.randrange(A.n0)
        s, t = A.n0 + rng.randrange(A.n1), A.n0 + rng.randrange(A.n1)
        assert j_triple(A, k, s, t) == {}, (kind, l, k, s, t)


@pytest.mark.parametrize("kind,ls", [("B", (1, 2, 3, 4, 5, 6)),
                                     ("D", (2, 4, 6))])
def test_spin_bracket_symmetry_parity(kind, ls):
    # the odd block as built, both orders of every pair of module indices
    # (construct._odd_products), before the gate drops one of them
    for l in ls:
        form_sym = (b_is_symmetric(l) if kind == "B"
                    else bhat_is_symmetric(l))
        want_sym = bracket_is_symmetric(l, kind)
        assert want_sym == (not form_sym)   # opposite parity of the form
        sign = 1 if want_sym else -1
        si, ti, k, num, den = construct._odd_products(
            l, kind, construct._spin_action(l, kind))
        entries = {(s, t, x): Fraction(a, b) for s, t, x, a, b in
                   zip(*(arr.tolist() for arr in (si, ti, k, num, den)))}
        assert len(entries) == si.size
        for (s, t, x), v in entries.items():
            assert entries.get((t, s, x)) == sign * v, (kind, l, s, t, x)


def test_algebra_symmetry_flag_matches_bracket_parity():
    for kind, ls in (("B", range(1, 9)), ("D", (2, 4, 6, 8))):
        for l in ls:
            A = build_superalgebra(l, kind, QQ)
            assert A.odd_symmetric == bracket_is_symmetric(l, kind), (kind, l)


@pytest.mark.parametrize("kind,l", [("B", 3), ("B", 4), ("D", 4)])
def test_spin_bracket_against_permuted_full_solve(kind, l):
    # independent oracle: assemble the defining system trace(B_a, X) =
    # form(rho(B_a)s, t) over the whole pair basis, shuffle the equation
    # order, solve by generic elimination, compare with the built odd block
    f = QQ
    A = build_superalgebra(l, kind, f)
    npairs = A.n0
    perm, coef = gram_pairing(l, kind)
    G = np.zeros((npairs, npairs), dtype=np.int64)
    G[np.arange(npairs), perm] = coef
    tgt, cof = rho_tables(l, kind)
    top = (1 << l) - 1
    masks = module_masks(l, kind)
    rng = random.Random(l)
    for _ in range(12):
        si, ti = rng.randrange(len(masks)), rng.randrange(len(masks))
        s, t = masks[si], masks[ti]
        rows = list(range(npairs))
        rng.shuffle(rows)
        aug = [G[a].tolist() + [int(cof[a, s]) * form_sign(int(tgt[a, s]), t, top,
                                                            kind == "D")]
               for a in rows]
        red, pivots = gauss_jordan(aug, f.p)
        assert all(p < npairs for p in pivots)      # consistent system
        got = [f.zero()] * npairs
        for row, piv in zip(red, pivots):
            got[piv] = row[-1]
        built = A.bracket_terms(A.n0 + si, A.n0 + ti)
        assert got == [built.get(k, f.zero()) for k in range(npairs)], (kind, l, s, t)


@pytest.mark.parametrize("kind,ls", [("B", (1, 2, 3, 4, 5, 6)),
                                     ("D", (2, 4, 6))])
def test_gf_structure_constants_are_mod_p_reductions(kind, ls):
    for l in ls:
        AQ = build_superalgebra(l, kind, QQ)
        for p in (3, 5, 7):
            f = make_field(p)
            Ap = build_superalgebra(l, kind, f)
            assert Ap.table.keys() >= AQ.table.keys() - {
                k for k, cell in AQ.table.items()
                if all(f.raw(v) == 0 for v in cell.values())}
            for key, cell in AQ.table.items():
                reduced = {k: f.raw(v) for k, v in cell.items()
                           if f.raw(v) != 0}
                assert Ap.table.get(key, {}) == reduced, (kind, l, p, key)
            for key in Ap.table:
                assert key in AQ.table, (kind, l, p, key)


def test_generator_triples_shape():
    A = build_superalgebra(5, "B", QQ)
    trs = generator_triples(5, "B", A)
    masks = list(module_masks(5, "B"))
    assert len(trs) == 6           # r = 0..5
    i_one = A.n0 + masks.index(0)
    i_top = A.n0 + masks.index(31)
    assert all(t[0] == i_one and t[1] == i_top for t in trs)
    D = build_superalgebra(4, "D", QQ)
    trs_d = generator_triples(4, "D", D)
    assert len(trs_d) == 3         # even r only: 0, 2, 4


# content hashes of the 48 scan-grid tables, pinned so that a change of
# how they are built cannot change what is built
GRID_HASHES = {
    ("B", 1, 0):
        "de56b648389b07fc8641fbad524a5d6acebd4bcc1bf613d909229cb6e688c383",
    ("B", 1, 3):
        "b92a64e842a51ef1f1d6baa44af53b9ba2980c5603a7b2a84f741450fb87194b",
    ("B", 1, 5):
        "007ed6768eb3c21a68b2a430773a5c0bafb64f551b70d9063da17789fdab7459",
    ("B", 1, 7):
        "9bcac560662d6d3950a8f8401f90891fb73e74f880113cc681902d451ce182a8",
    ("B", 2, 0):
        "4e67004f046f320346893171b8cc5958cec2015463b515a77a35e1a4aa91bc75",
    ("B", 2, 3):
        "f21481409936a7b9bc701f0e240affada00f6354214232562739a509721f703a",
    ("B", 2, 5):
        "6288260b8359f90d587d2351d013b3dc74a36f7f694f71414caa5fc4d104ff35",
    ("B", 2, 7):
        "f42ee30089aec7d4048b5d1ef1dc2adb22f8be950a12fc370acd303e7e1bfd95",
    ("B", 3, 0):
        "b577eaa6c06163bb2fda8d081fc9fb91f7bcd4ba10bc7d12104cf19d08c52d8c",
    ("B", 3, 3):
        "6dae6610f3eb9fc7c4624af35a578eb8407cb9d8c4268407002dd381fc742e39",
    ("B", 3, 5):
        "b766682061938376bd30ffd521187e1f8fff83654b9d67914089da91e4a42e2d",
    ("B", 3, 7):
        "a313159013c52d0c42c065ec28ab765b65e407e031976102de7f854958c1377b",
    ("B", 4, 0):
        "37265af82abb1078dc83d1696f4fbf43e70bd16e73a67f29847ef291640721b3",
    ("B", 4, 3):
        "1a8fe3e6490175a4eb3495a8466e439ac9174ee40ea9baf608ab0c2a2bbe571c",
    ("B", 4, 5):
        "a4d31edb581a4270fedf6bbd7a52532fc849f674c5cc4af9076a737e1621d96c",
    ("B", 4, 7):
        "6ab33fac071b4059528f1d3c1547dad3f771c0422e1de867bc995b3415875567",
    ("B", 5, 0):
        "afadffe44f0e7a750e9a72f46e137249eb910346325d4195ee9684438eed1797",
    ("B", 5, 3):
        "8033d4b37052372e8a357f237e255645dfcb68265ab66c48377733fa5581c57b",
    ("B", 5, 5):
        "540067eab5c7a8fd0a87f8bc9f6dc2828ad8220c733a05603a46ca43b9dbf0b7",
    ("B", 5, 7):
        "3326535efbf33c22e22b6b5e3e44053a2042d4bfa4d0a12fc2576093de63d787",
    ("B", 6, 0):
        "fb21bcd90529e22e960e8307e64435db943c0ee9cdfdb336eba7bad242bdea01",
    ("B", 6, 3):
        "7c6ee8f59fbd47a8f97d3a022deefba4f0254c09bb1a711dd64b46e5ab88bc08",
    ("B", 6, 5):
        "1b5a11f8f4c002e2fc45537617840cbdd89b65a9800222d2f9415bd7cd7ae944",
    ("B", 6, 7):
        "1a0bd37e540ba24ec3d7885823b9367b6c156522c07adeb2758e36172c675fe2",
    ("B", 7, 0):
        "49d53b4d240380bd3bd2531f95499674782f8023fda3a5dec418ed144991ad0e",
    ("B", 7, 3):
        "de497c0716bf72259955c0d3fb1d009900c3fa6c971a645c2736479c91f2eb6d",
    ("B", 7, 5):
        "f781e29a321a997a06879ca35360cb19efa566eb1033f6896afc1f5111dacd7d",
    ("B", 7, 7):
        "5d7a5052dc5aab67ebca6a90ba80f23da646c29a999dbbff458d35a440a67ab3",
    ("B", 8, 0):
        "085936413438aa20cbaad359dfcf43701c39135331eec74fe59a876833d67366",
    ("B", 8, 3):
        "d9a4fe96dd20ee9c023f7cd573c0107992791b69b865439e868fc4fbf2c2db27",
    ("B", 8, 5):
        "e7d329b41d7b2c2a52662af0a2aa2f82a3a072b93493200c46c8ad5cc42e44a8",
    ("B", 8, 7):
        "1ddb24e26e56aa071767cbd6697d2a3c851ad2dacbcafdfbda097c0d6e41b45f",
    ("D", 2, 0):
        "8016265c347b9667fb1bb34f8a271d0237315f1989340a252dd473cc5b3d43cd",
    ("D", 2, 3):
        "a54f1e184d1245c2452dff702efb9f22d706370c1cbf617d0b78fe7889ae1ee5",
    ("D", 2, 5):
        "32c4ff462e45c8f1cb2550191456212da2e0ed4bd271ba15fdf89e9e5ee9ac86",
    ("D", 2, 7):
        "a794bb456a8013d4dce5cbfdd2e3d4745bb17fafa121cfd8c77018581275aa9e",
    ("D", 4, 0):
        "5ca1f28b0fde6b2fc86cdc474c0d3113d9c7e84efcba3abc96b150e65a4c53a0",
    ("D", 4, 3):
        "337c4dcb5a9bf4904a268485bd0f4e5feecc2fcaac0ad08e1df8aa76c90871c0",
    ("D", 4, 5):
        "c543d9bd54d7ec00c16f384c63b093bedfea1aa037bd1f701c5d17c6f9327a71",
    ("D", 4, 7):
        "6741e131df96c72fd1fc3fd2efc785b0e27fa6899b66c7435ae3e1c6139d22ee",
    ("D", 6, 0):
        "69fe7a08c31aacf6c2eb5c5c1702f98ec8d234f949cb33999d0d4bc96d4bdc7a",
    ("D", 6, 3):
        "e026f829f16245d73db0c9d8fdd4ad9c92b4e92377a2b072eb2e586e46faf264",
    ("D", 6, 5):
        "ee9dd298827bbc1acd77173b57157ed400f89515e2e9b84e2dd9c1c4d110235f",
    ("D", 6, 7):
        "b1e5de6ddf6ab607cea4a9a263eb14f2a66b5623571eed192fae5a34567dabfe",
    ("D", 8, 0):
        "5660752e7d019d18deee16d07809d06b8673d43c074e5dd087f1db3939a4ccaa",
    ("D", 8, 3):
        "e5b4c9481ecd7c74ebaca2cd62b137195d52a8993ee0d0fdcf3c32920a04a28c",
    ("D", 8, 5):
        "5de9c660c8b53ca0f9fa30866e98f80199f5f004b37713cc129213fbafa6a51d",
    ("D", 8, 7):
        "8eb858306b843b607ab83c967cb466c52e94daa7efb9065c2e85bde555218eb9",
}


@pytest.mark.parametrize("kind,l,char", list(GRID_HASHES))
def test_grid_table_content_hash_pinned(kind, l, char):
    A = build_superalgebra(l, kind, make_field(char))
    assert A.to_dict()["content_hash"] == GRID_HASHES[(kind, l, char)]


# content hashes of the B9 and D10 tables over Q, past the grid
TENSOR_HASHES = {
    ("B", 9): "d82572e76650dbb431e58c70ca20eede131b2b37d8b65706dfec42c04e86695b",
    ("D", 10): "ed8c4b3f24ff9cb9d303680cc5de2b142d4fd124e4131be725ba32adb0a6c8d6",
}


@pytest.mark.parametrize("kind,l", list(TENSOR_HASHES))
def test_tensor_content_hash_past_the_grid_pinned(kind, l):
    A = build_superalgebra(l, kind, QQ)
    assert A.to_dict()["content_hash"] == TENSOR_HASHES[(kind, l)]


def _build_with_tampered_block(monkeypatch, block, tamper):
    """Build B2/Q with tamper applied to a copy of the arrays of one block
    that _integer_tensor reads."""
    built = getattr(construct, block)
    monkeypatch.setattr(construct, block, lambda *args: tamper(
        [a.copy() for a in built(*args)]))
    construct._integer_tensor.cache_clear()
    try:
        build_superalgebra(2, "B", QQ)
    finally:
        construct._integer_tensor.cache_clear()


def _flip_one_off_diagonal(arrays):
    x = np.flatnonzero(arrays[0] != arrays[1])[0]
    arrays[3][x] *= -1          # num of _odd_products, c of so_bracket_table
    return tuple(arrays)


def test_flipped_odd_product_fails_the_symmetry_check(monkeypatch):
    with pytest.raises(VerificationFailed, match="odd product symmetry fails"):
        _build_with_tampered_block(monkeypatch, "_odd_products",
                                   _flip_one_off_diagonal)


def test_flipped_so_constant_fails_the_symmetry_check(monkeypatch):
    with pytest.raises(VerificationFailed, match="^bracket symmetry fails"):
        _build_with_tampered_block(monkeypatch, "so_bracket_table",
                                   _flip_one_off_diagonal)


def test_an_entry_given_twice_is_refused(monkeypatch):
    with pytest.raises(VerificationFailed, match="given twice"):
        _build_with_tampered_block(monkeypatch, "_odd_products", lambda arrays: tuple(
            np.concatenate([a, a[:1]]) for a in arrays))


@pytest.mark.parametrize("block", ["so_bracket_table", "_odd_products"])
def test_an_entry_without_its_other_order_is_refused(block, monkeypatch):
    # both blocks list the two orders of a pair as entries of their own
    def drop_one_off_diagonal(arrays):
        x = np.flatnonzero(arrays[0] != arrays[1])[0]
        return tuple(np.delete(a, x) for a in arrays)

    with pytest.raises(VerificationFailed,
                       match=r"symmetry fails: inconsistent bracket orders"):
        _build_with_tampered_block(monkeypatch, block, drop_one_off_diagonal)


def test_build_does_no_per_monomial_work():
    # the tables read their signs as whole arrays (complement_form_signs,
    # rho_tables): no package file names a sign function of one monomial
    # or one pair of monomials, whose references live in
    # tests/exterior_reference.py, and exterior.py defines none
    per_monomial = ("wedge_sign", "bar_sign", "hat_sign", "form_sign")
    field_of = {ast.Name: "id", ast.Attribute: "attr", ast.alias: "name",
                ast.FunctionDef: "name"}
    package = Path(construct.__file__).resolve().parent
    found = []
    for path in sorted(package.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            name = getattr(node, field_of.get(type(node), ""), None)
            if name in per_monomial or (path.name == "exterior.py" and isinstance(
                    node, ast.FunctionDef) and name.endswith("_sign")):
                found.append(f"{path.name}:{node.lineno} names {name}")
    assert not found, found


@pytest.mark.parametrize("kind,l", [("B", 21), ("D", 22), ("B", 10 ** 9),
                                    ("D", 10 ** 9)])
def test_rank_past_the_key_bound_is_refused(kind, l):
    with pytest.raises(ValueError, match="2\\^63"):
        build_superalgebra(l, kind, QQ)
    with pytest.raises(ValueError, match="2\\^63"):
        construct._check_key_bound(l, kind)


def test_largest_ranks_inside_the_key_bound():
    for kind in ("B", "D"):
        construct._check_key_bound(20, kind)       # no allocation: arithmetic only


def test_gf_build_does_no_per_entry_field_arithmetic(monkeypatch):
    calls = []
    raw = Field.raw

    def counted(self, v):
        calls.append(v)
        return raw(self, v)

    monkeypatch.setattr(Field, "raw", counted)
    build_superalgebra(8, "B", GF(7))
    assert calls == []
