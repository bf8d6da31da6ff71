import itertools
import random
from fractions import Fraction

import numpy as np
import pytest

from spinlab.fields import QQ, GF, make_field
from spinlab.exterior import Multivector, form_b, form_bhat
from spinlab.clifford import (SoElement, ambient_space, cartan_indices,
                              gram_matrix, half_spin_masks, lambda_op,
                              natural_matrix, nat_entries, pair_basis, qpair,
                              rho_of, rho_pair, rho_tables, so_bracket,
                              so_bracket_table, so_dim, trace_form,
                              _pair_action)


def test_ambient_space_layout():
    sp = ambient_space(3, "B")
    assert sp.labels == ("u", "v1", "v2", "v3", "f1", "f2", "f3")
    assert qpair(sp, 0, 0) == -2          # q(u, u)
    assert qpair(sp, 1, 4) == 1 and qpair(sp, 4, 1) == 1
    assert qpair(sp, 1, 1) == 0 and qpair(sp, 1, 5) == 0
    spd = ambient_space(3, "D")
    assert spd.labels == ("v1", "v2", "v3", "f1", "f2", "f3")
    assert so_dim(3, "B") == 21 and so_dim(3, "D") == 15


def test_lambda_squares_to_quadratic_form():
    rng = random.Random(4)
    for l, f in ((3, QQ), (4, GF(5))):
        n = 1 << l
        ident = lambda_op(l, f, [0] * l, [0] * l).identity(l, f)
        for _ in range(50):
            va = [rng.randint(-3, 3) for _ in range(l)]
            fa = [rng.randint(-3, 3) for _ in range(l)]
            op = lambda_op(l, f, va, fa)
            q = f.raw(sum(a * b for a, b in zip(va, fa)))
            assert op @ op == ident.scale(q), (l, f.p, va, fa)


@pytest.mark.parametrize("l", [2, 3, 4, 5])
def test_lambda_is_skew_for_b_and_selfadjoint_for_bhat(l):
    f = QQ
    rng = random.Random(l)
    basis = [Multivector.from_mask(l, f, m) for m in range(1 << l)]
    for _ in range(2 * l):
        va = [rng.randint(-2, 2) for _ in range(l)]
        fa = [rng.randint(-2, 2) for _ in range(l)]
        op = lambda_op(l, f, va, fa)
        for s, t in itertools.product(basis, repeat=2):
            lhs = form_b(op.apply(s), t)
            rhs = form_b(s, op.apply(t))
            assert lhs == -rhs, ("b", l, va, fa)
            lhs = form_bhat(op.apply(s), t)
            rhs = form_bhat(s, op.apply(t))
            assert lhs == rhs, ("bhat", l, va, fa)


def rho_basis(l, kind, f, parity=None):
    pb = pair_basis(l, kind)
    out = []
    for k in range(len(pb.pairs)):
        coords = [f.zero()] * len(pb.pairs)
        coords[k] = f.one()
        out.append(rho_of(SoElement(l, kind, f, coords), parity=parity))
    return out


@pytest.mark.parametrize("kind", ["B", "D"])
@pytest.mark.parametrize("f", [QQ, GF(5)], ids=repr)
def test_rho_is_a_lie_homomorphism_small_l(kind, f):
    for l in (2, 3, 4):
        pb = pair_basis(l, kind)
        ops = rho_basis(l, kind, f)
        for k1, k2 in itertools.product(range(len(pb.pairs)), repeat=2):
            X = SoElement.pair(l, kind, f, *pb.labels[k1][1:-1].split(","))
            Y = SoElement.pair(l, kind, f, *pb.labels[k2][1:-1].split(","))
            lhs = rho_of(so_bracket(X, Y))
            rhs = ops[k1] @ ops[k2] - ops[k2] @ ops[k1]
            assert lhs == rhs, (kind, l, pb.labels[k1], pb.labels[k2])


@pytest.mark.parametrize("kind,l", [("B", 5), ("B", 6), ("D", 5), ("D", 6)])
def test_rho_is_a_lie_homomorphism_randomized(kind, l):
    f = GF(7)
    rng = random.Random(100 * l)
    pb = pair_basis(l, kind)
    n = len(pb.pairs)
    for _ in range(200):
        k1, k2 = rng.randrange(n), rng.randrange(n)
        c1 = [f.zero()] * n
        c2 = [f.zero()] * n
        c1[k1] = f.one()
        c2[k2] = f.one()
        X, Y = SoElement(l, kind, f, c1), SoElement(l, kind, f, c2)
        lhs = rho_of(so_bracket(X, Y))
        rX, rY = rho_of(X), rho_of(Y)
        assert lhs == rX @ rY - rY @ rX, (kind, l, k1, k2)


@pytest.mark.parametrize("kind,l", [("B", 3), ("B", 4), ("D", 4)])
def test_natural_matrix_lands_in_so(kind, l):
    f = QQ
    space = ambient_space(l, kind)
    pb = pair_basis(l, kind)
    G = [[f.of_int(qpair(space, a, b)) for b in range(space.dim)]
         for a in range(space.dim)]
    for k in range(len(pb.pairs)):
        coords = [f.zero()] * len(pb.pairs)
        coords[k] = f.one()
        N = natural_matrix(SoElement(l, kind, f, coords))
        n = space.dim
        for a in range(n):
            for b in range(n):
                lhs = sum(N[c][a] * G[c][b] for c in range(n))
                rhs = sum(G[a][c] * N[c][b] for c in range(n))
                assert lhs + rhs == 0, (kind, l, k, a, b)


@pytest.mark.parametrize("l", [2, 3, 4, 5, 6])
def test_spin_weights_have_multiplicity_one(l):
    # Cartan pairs act diagonally on monomials; the per-monomial tuple of
    # eigenvalues must be 2^l distinct weight vectors (characteristic 0)
    tgt, cof = rho_tables(l, "B")
    weights = set()
    for m in range(1 << l):
        w = []
        for k in cartan_indices(l, "B"):
            assert tgt[k, m] == m, (l, k, m)
            w.append(int(cof[k, m]))
        weights.add(tuple(w))
    assert len(weights) == 1 << l


@pytest.mark.parametrize("kind", ["B", "D"])
@pytest.mark.parametrize("l", [2, 3, 4, 5, 6])
def test_trace_form_matches_matrix_trace(kind, l):
    # oracle: (X,Y) = (1/2) tr(nat(X) nat(Y)) computed from the two-entry
    # sparse adjoint, entrywise over the whole pair basis
    f = QQ
    ents = nat_entries(l, kind)
    npairs = len(pair_basis(l, kind).pairs)

    def sparse_trace(k1, k2):
        acc = 0
        e2 = {(r, c): v for r, c, v in ents[k2]}
        for r, c, v in ents[k1]:
            acc += v * e2.get((c, r), 0)
        return Fraction(acc, 2)

    basis = []
    for k in range(npairs):
        coords = [f.zero()] * npairs
        coords[k] = f.one()
        basis.append(SoElement(l, kind, f, coords))
    G = gram_matrix(l, kind, f)
    for k1 in range(npairs):
        for k2 in range(npairs):
            want = sparse_trace(k1, k2)
            assert trace_form(basis[k1], basis[k2]) == want
            assert G[k1][k2] == want


def test_gram_matrix_entries_never_vanish_odd_char():
    for ch in (3, 5, 7):
        for kind, l in (("B", 4), ("D", 4)):
            gram_matrix(l, kind, make_field(ch))   # DegenerateForm would raise


@pytest.mark.parametrize("l", [3, 4])
def test_half_spin_blocks_close_under_rho(l):
    f = GF(5)
    for parity in (0, 1):
        masks = half_spin_masks(l, parity)
        assert len(masks) == 1 << (l - 1)
        for op in rho_basis(l, "D", f, parity=parity):
            assert set(op.masks) == set(masks)
            for m, col in op.cols.items():
                assert set(col) <= set(masks)


def test_rho_pair_matches_rho_of():
    l, f = 3, QQ
    for a, b in (("u", "v1"), ("v1", "f2"), ("v2", "v3"), ("f1", "f3")):
        assert rho_pair(l, f, a, b) == rho_of(SoElement.pair(l, "B", f, a, b))
    with pytest.raises(ValueError):
        rho_pair(l, f, "u", "u")
    with pytest.raises(ValueError):
        rho_pair(l, f, "u", "w9")


@pytest.mark.parametrize("kind,l", [("B", l) for l in range(1, 8)]
                         + [("D", 2), ("D", 4), ("D", 6)])
def test_rho_tables_match_the_per_monomial_rule(kind, l):
    space = ambient_space(l, kind)
    tgt, cof = rho_tables(l, kind)
    for k, (a, b) in enumerate(pair_basis(l, kind).pairs):
        for m in range(1 << l):
            t, c = _pair_action(space, a, b, m)
            assert (int(tgt[k, m]), int(cof[k, m])) == (t, c), (kind, l, k, m)


@pytest.mark.parametrize("kind,l", [("B", l) for l in range(1, 6)]
                         + [("D", l) for l in range(2, 6)])
def test_so_bracket_table_is_the_commutator_of_natural_matrices(kind, l):
    dim = ambient_space(l, kind).dim
    npairs = len(pair_basis(l, kind).pairs)
    N = np.zeros((npairs, dim, dim), dtype=np.int64)
    for k, ents in enumerate(nat_entries(l, kind)):
        for r, c, v in ents:
            N[k, r, c] += v
    want = np.einsum("irs,jst->ijrt", N, N) - np.einsum("jrs,ist->ijrt", N, N)
    got = np.zeros_like(want)
    k1, k2, k3, c = so_bracket_table(l, kind)
    np.add.at(got, (k1, k2), c[:, None, None] * N[k3])
    assert (got == want).all()
    assert (c != 0).all() and not any(a.flags.writeable for a in (k1, k2, k3, c))
