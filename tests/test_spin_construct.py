import itertools
import random
from fractions import Fraction

import pytest

from spinlab.fields import QQ, GF, make_field
from spinlab.exterior import (Multivector, b_is_symmetric, bhat_is_symmetric,
                              form_b, form_bhat)
from spinlab.clifford import (SoElement, pair_basis, rho_of, so_bracket,
                              so_dim, gram_matrix)
from spinlab.construct import (OddHalfSpinUnsupported, bracket_is_symmetric,
                               build_superalgebra, classify,
                               decompose_type_d_l2, generator_triples,
                               module_masks, spin_bracket)
from spinlab.superalgebra import j_triple
from spinlab.linalg import rref_field

CHARS = (0, 3, 5, 7)
EXPECT_B = {(1, c) for c in CHARS} | {(2, c) for c in CHARS} | {(3, 3)} \
    | {(4, c) for c in CHARS} | {(5, 5)} | {(6, 3)}
EXPECT_D = {(2, c) for c in CHARS} | {(4, c) for c in CHARS} | {(6, 3)}


def so_vec(l, f, *terms):
    pb = pair_basis(l, "B")
    v = [f.zero()] * so_dim(l, "B")
    for c, lab in terms:
        v[list(pb.labels).index(lab)] = f.raw(c)
    return SoElement(l, "B", f, v)


@pytest.mark.parametrize("ch", [0, 3, 5])
@pytest.mark.parametrize("l", [3, 4, 5, 6])
def test_closed_forms(l, ch):
    f = make_field(ch)
    ctx = (l, "B", f)
    one = Multivector.one(l, f)
    top = Multivector.top(l, f)

    # [1, v1...vl] = -(1/4) sum [vi,fi]
    got = spin_bracket(one, top, ctx)
    assert got == so_vec(l, f, *[(Fraction(-1, 4), f"[v{i+1},f{i+1}]")
                                 for i in range(l)])
    # [1, v1...v_{l-1}] = ((-1)^l/4) [u,fl]
    got = spin_bracket(one, Multivector.monomial(l, f, range(1, l)), ctx)
    assert got == so_vec(l, f, (Fraction((-1) ** l, 4), f"[u,f{l}]"))
    # [1, v1...v_{l-2}] = (1/2) [f_{l-1},f_l]
    got = spin_bracket(one, Multivector.monomial(l, f, range(1, l - 1)), ctx)
    assert got == so_vec(l, f, (Fraction(1, 2), f"[f{l-1},f{l}]"))
    # [v1...vl, v1] = -(sign/4) [u,v1],  sign = (-1)^binom(l+1,2)
    sign = (-1) ** ((l + 1) * l // 2)
    got = spin_bracket(top, Multivector.monomial(l, f, [1]), ctx)
    assert got == so_vec(l, f, (Fraction(-sign, 4), "[u,v1]"))
    # [v1...vl, v1v2] = -(sign/2) [v1,v2]
    got = spin_bracket(top, Multivector.monomial(l, f, [1, 2]), ctx)
    assert got == so_vec(l, f, (Fraction(-sign, 2), "[v1,v2]"))
    # [1, v1...vr] = 0 for r <= l-3
    for r in range(l - 2):
        assert spin_bracket(one, Multivector.monomial(l, f, range(1, r + 1)),
                            ctx).is_zero(), r


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


def test_generators_mode_type_b_l8():
    A8 = build_superalgebra(8, "B", QQ)
    m8 = list(module_masks(8, "B"))
    for ch in CHARS:
        r = classify(8, "B", make_field(ch))
        assert r.mode == "generators" and not r.jacobi_pass
        tr3 = (A8.n0 + 0, A8.n0 + 255, A8.n0 + m8.index(0b111))
        assert any((w["i"], w["j"], w["k"]) == tr3 for w in r.witnesses)


def test_generators_mode_type_d_l10_fails_at_middle_degree():
    # witness expected at r = (l-2)/2 = 4
    m10 = list(module_masks(10, "D"))
    n0 = so_dim(10, "D")
    tr4 = (n0 + m10.index(0), n0 + m10.index((1 << 10) - 1),
           n0 + m10.index(0b1111))
    for ch in CHARS:
        r = classify(10, "D", make_field(ch), mode="generators")
        assert not r.jacobi_pass, ch
        assert any((w["i"], w["j"], w["k"]) == tr4 for w in r.witnesses), ch


def test_simplicity_attachment():
    assert classify(3, "B", GF(3)).simplicity == "certified"
    assert classify(2, "D", GF(5)).simplicity == "failed"
    assert classify(4, "B", QQ).simplicity == "not-attempted"


def test_decompose_type_d_l2():
    for ch in (0, 3, 5, 7):
        one, two = decompose_type_d_l2(make_field(ch))
        assert len(one) == 5 and len(two) == 3


@pytest.mark.parametrize("kind,l", [("B", 2), ("B", 3), ("B", 4), ("B", 5),
                                    ("D", 2), ("D", 4)])
def test_spin_bracket_invariance(kind, l):
    # [sigma, [s,t]] = [rho(sigma)s, t] + [s, rho(sigma)t]
    f = GF(7)
    rng = random.Random(31 * l + ord(kind))
    ctx = (l, kind, f)
    masks = module_masks(l, kind)
    npairs = len(pair_basis(l, kind).pairs)
    for _ in range(100):
        k = rng.randrange(npairs)
        coords = [f.zero()] * npairs
        coords[k] = f.one()
        sigma = SoElement(l, kind, f, coords)
        op = rho_of(sigma)
        s = Multivector.from_mask(l, f, masks[rng.randrange(len(masks))])
        t = Multivector.from_mask(l, f, masks[rng.randrange(len(masks))])
        lhs = so_bracket(sigma, spin_bracket(s, t, ctx))
        rhs = spin_bracket(op.apply(s), t, ctx) + spin_bracket(s, op.apply(t), ctx)
        assert lhs == rhs, (kind, l, k, s, t)


@pytest.mark.parametrize("kind,ls", [("B", (1, 2, 3, 4, 5, 6)),
                                     ("D", (2, 4, 6))])
def test_spin_bracket_symmetry_parity(kind, ls):
    f = QQ
    for l in ls:
        form_sym = (b_is_symmetric(l) if kind == "B"
                    else bhat_is_symmetric(l))
        want_sym = bracket_is_symmetric(l, kind)
        assert want_sym == (not form_sym)   # opposite parity of the form
        sign = 1 if want_sym else -1
        ctx = (l, kind, f)
        masks = module_masks(l, kind)
        for ms, mt in itertools.product(masks, repeat=2):
            s = Multivector.from_mask(l, f, ms)
            t = Multivector.from_mask(l, f, mt)
            st = spin_bracket(s, t, ctx)
            ts = spin_bracket(t, s, ctx)
            assert st == (ts if sign > 0 else -ts), (kind, l, ms, mt)


def test_algebra_symmetry_flag_matches_bracket_parity():
    for kind, ls in (("B", range(1, 9)), ("D", (2, 4, 6, 8))):
        for l in ls:
            A = build_superalgebra(l, kind, QQ, check=False)
            assert A.odd_symmetric == bracket_is_symmetric(l, kind), (kind, l)


@pytest.mark.parametrize("kind,l", [("B", 3), ("B", 4), ("D", 4)])
def test_spin_bracket_against_permuted_full_solve(kind, l):
    # independent oracle: assemble the defining system trace(B_a, X) =
    # form(rho(B_a)s, t) over the whole pair basis, shuffle the equation
    # order, solve by generic elimination, compare coordinates
    f = QQ
    ctx = (l, kind, f)
    pb = pair_basis(l, kind)
    npairs = len(pb.pairs)
    G = gram_matrix(l, kind, f)
    form = form_b if kind == "B" else form_bhat
    basis = []
    for k in range(npairs):
        coords = [f.zero()] * npairs
        coords[k] = f.one()
        basis.append(SoElement(l, kind, f, coords))
    ops = [rho_of(X) for X in basis]
    masks = module_masks(l, kind)
    rng = random.Random(l)
    for _ in range(12):
        s = Multivector.from_mask(l, f, masks[rng.randrange(len(masks))])
        t = Multivector.from_mask(l, f, masks[rng.randrange(len(masks))])
        rows = list(range(npairs))
        rng.shuffle(rows)
        aug = [[G[a][k] for k in range(npairs)] + [form(ops[a].apply(s), t)]
               for a in rows]
        red, pivots = rref_field(aug, f)
        assert all(p < npairs for p in pivots)      # consistent system
        got = [f.zero()] * npairs
        for row, piv in zip(red, pivots):
            got[piv] = row[-1]
        assert got == spin_bracket(s, t, ctx).coords, (kind, l, s, t)


@pytest.mark.parametrize("kind,ls", [("B", (1, 2, 3, 4, 5, 6)),
                                     ("D", (2, 4, 6))])
def test_gf_structure_constants_are_mod_p_reductions(kind, ls):
    for l in ls:
        AQ = build_superalgebra(l, kind, QQ, check=False)
        for p in (3, 5, 7):
            f = make_field(p)
            Ap = build_superalgebra(l, kind, f, check=False)
            assert Ap.table.keys() >= AQ.table.keys() - {
                k for k, cell in AQ.table.items()
                if all(f.is_zero(f.raw(v)) for v in cell.values())}
            for key, cell in AQ.table.items():
                reduced = {k: f.raw(v) for k, v in cell.items()
                           if not f.is_zero(f.raw(v))}
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
