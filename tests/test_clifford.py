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
                              so_bracket_table, so_constants, so_dim,
                              trace_form, _pair_action)


def test_ambient_space_layout():
    sp = ambient_space(3, "B")
    assert sp.labels == ("u", "v1", "v2", "v3", "f1", "f2", "f3")
    assert qpair(sp, 0, 0) == -2          # q(u, u)
    assert qpair(sp, 1, 4) == 1 and qpair(sp, 4, 1) == 1
    assert qpair(sp, 1, 1) == 0 and qpair(sp, 1, 5) == 0
    spd = ambient_space(3, "D")
    assert spd.labels == ("v1", "v2", "v3", "f1", "f2", "f3")
    assert so_dim(3, "B") == 21 and so_dim(3, "D") == 15


@pytest.mark.parametrize("l,kind,match", [
    (3, "C", "kind must be"), (1, "b", "kind must be"), (0, "B", "need l >= 1"),
    (-2, "D", "need l >= 1"), (1, "D", "kind D needs l >= 2")])
def test_so_dim_refuses_what_has_no_pair_basis(l, kind, match):
    # so_dim(3, "C") was 15 and so_dim(-2, "D") was 10: the bounds are
    # those of pair_basis, which refuses the same arguments
    for fn in (so_dim, pair_basis, so_bracket_table):
        with pytest.raises(ValueError, match=match):
            fn(l, kind)


@pytest.mark.parametrize("l,parity,match", [
    (3, 2, "parity must be 0 or 1"), (3, -1, "parity must be 0 or 1"),
    (0, 0, "need l >= 1"), (-1, 1, "need l >= 1")])
def test_half_spin_masks_refuses_a_bad_parity_or_rank(l, parity, match):
    # half_spin_masks(3, 2) was ()
    with pytest.raises(ValueError, match=match):
        half_spin_masks(l, parity)
    assert half_spin_masks(3, 1) == (1, 2, 4, 7)


@pytest.mark.parametrize("kind", ["B", "D"])
def test_qpair_refuses_an_index_outside_the_ambient_basis(kind):
    # qpair(ambient_space(2, "B"), -1, 2) was 1: space.partner[-1] is 2
    space = ambient_space(2, kind)
    for a, b in ((-1, 2), (2, -1), (space.dim, 0), (0, space.dim + 3)):
        with pytest.raises(ValueError, match=rf"outside range\({space.dim}\)"):
            qpair(space, a, b)
    assert [qpair(space, space.dim - 1, b) for b in range(space.dim)].count(1) == 1


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


def natural_operators(q):
    """[w_a,w_b]. for a < b in index order as dense matrices on the ambient
    space of the Gram matrix q: w -> 2 q(b,w) w_a - 2 q(a,w) w_b."""
    a, b = np.triu_indices(len(q), 1)
    N = np.zeros((len(a), len(q), len(q)), dtype=np.int64)
    N[np.arange(len(a)), a] = 2 * q[b]
    N[np.arange(len(a)), b] = -2 * q[a]
    return N


@pytest.mark.parametrize("p", [0, 5])
@pytest.mark.parametrize("dim", [2, 3, 4, 6, 7])
def test_so_constants_on_random_gram_matrices(dim, p):
    # the kernel against the dense commutators of the natural operators,
    # over Q (integer q of both signs) and GF(5) (q and the check mod 5)
    rng = np.random.default_rng(10 * dim + p)
    for _ in range(3):
        q = rng.integers(-3, 4, (dim, dim))
        q = q + q.T
        if p:
            q %= p
        N = natural_operators(q)
        want = np.einsum("irs,jst->ijrt", N, N) - np.einsum("jrs,ist->ijrt", N, N)
        got = np.zeros_like(want)
        k1, k2, k3, c = so_constants(q)
        np.add.at(got, (k1, k2), c[:, None, None] * N[k3])
        assert ((got - want) % p == 0).all() if p else (got == want).all()
        key = (k1 * len(N) + k2) * len(N) + k3
        assert (c != 0).all() and (np.diff(key) > 0).all()


def test_so_constants_refuses_a_gram_matrix_it_cannot_read():
    for q in (np.array([[0, 1], [2, 0]]), np.eye(3), np.zeros((2, 3), dtype=int),
              np.zeros(4, dtype=int)):
        with pytest.raises(ValueError, match="square symmetric integer"):
            so_constants(q)
