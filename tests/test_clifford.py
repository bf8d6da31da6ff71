import importlib
import inspect
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import spinlab
from helpers import mask_signs, rho_witness, traces
from spinor_reference import model
from spinlab.fields import QQ, GF
from spinlab.exterior import complement_form_signs
from spinlab import clifford
from spinlab.superalgebra import VerificationFailed
from spinlab.clifford import (ambient_space, ambient_gram,
                              gram_pairing, half_spin_masks, natural_matrices,
                              pair_basis, qpair, rho_tables, so_bracket_table,
                              so_constants, so_dim)

PACKAGE = Path(spinlab.__file__).resolve().parent


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


# (module, function, arguments, start of the refusal, the warm call whose
# cache entry the arguments hash as)
NO_BASIS = [
    ("clifford", "so_dim", (True, "B"), "l must be an integer", (1, "B")),
    ("clifford", "ambient_space", (True, "B"), "l must be an integer", (1, "B")),
    ("clifford", "half_spin_masks", (4, True), "parity must be 0 or 1", (4, 1)),
    ("clifford", "half_spin_masks", (4, 0.0), "parity must be 0 or 1", (4, 0)),
    ("construct", "module_masks", (0, "B"), "need l >= 1", (1, "B")),
    ("construct", "module_masks", (True, "D"), "l must be an integer", (2, "D")),
    ("clifford", "pair_basis", (2.0, "B"), "l must be an integer", (2, "B")),
    ("clifford", "rho_tables", (True, "B"), "l must be an integer", (1, "B")),
    ("clifford", "gram_pairing", (True, "B"), "l must be an integer", (1, "B")),
    ("clifford", "so_bracket_table", (2.0, "B"), "l must be an integer", (2, "B")),
    ("clifford", "ambient_gram", (2.0, "D"), "l must be an integer", (2, "D")),
]


def refusal(module, name, args):
    """The message of the ValueError that spinlab.module.name(*args)
    raises, or None."""
    try:
        getattr(importlib.import_module(f"spinlab.{module}"), name)(*args)
    except ValueError as e:
        return str(e)
    return None


def test_no_basis_is_refused_before_any_cache_lookup():
    # True hashes as 1 and 2.0 as 2, so a cache looked up first answered
    # for them: ambient_space(True, "B").l was True, and pair_basis(2.0,
    # "B") raised a bare TypeError cold but gave the l = 2 basis warm.
    # Each case cold, in a fresh process, then here after its warm call
    code = ("import importlib, json, sys\n" + inspect.getsource(refusal)
            + "print(json.dumps([refusal(m, n, a) for m, n, a in json.loads(sys.argv[1])]))")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(PACKAGE.parent),
                                                      env.get("PYTHONPATH")]))
    cases = json.dumps([(m, n, a) for m, n, a, _, _ in NO_BASIS])
    cold = json.loads(subprocess.run([sys.executable, "-c", code, cases],
                                     capture_output=True, text=True, check=True,
                                     env=env, timeout=300).stdout)
    for (module, name, args, want, warm), got in zip(NO_BASIS, cold):
        assert got is not None and got.startswith(want), (name, args, got)
        assert refusal(module, name, warm) is None, (name, warm)
        got = refusal(module, name, args)
        assert got is not None and got.startswith(want), (name, args, got)


@pytest.mark.parametrize("kind", ["B", "D"])
def test_qpair_refuses_an_index_outside_the_ambient_basis(kind):
    # qpair(ambient_space(2, "B"), -1, 2) was 1: space.partner[-1] is 2
    space = ambient_space(2, kind)
    for a, b in ((-1, 2), (2, -1), (space.dim, 0), (0, space.dim + 3)):
        with pytest.raises(ValueError, match=rf"outside range\({space.dim}\)"):
            qpair(space, a, b)
    assert [qpair(space, space.dim - 1, b) for b in range(space.dim)].count(1) == 1


@pytest.mark.parametrize("l", [2, 3, 4, 5])
def test_lambda_is_skew_for_b_and_selfadjoint_for_bhat(l):
    # Lambda(x) = rho([u,x]) / 2 on the forms the builders read, the signed
    # permutations F[m, ~m] = complement_form_signs: skew for b, self-adjoint
    # for bhat, and every other pair skew for both (F rho + rho^T F = 0);
    # so kind B reads b, kind D bhat
    top, N = (1 << l) - 1, 1 << l
    masks = np.arange(N)
    for kind, hat in (("B", False), ("D", True), ("B", True)):
        F = np.zeros((N, N), dtype=np.int64)
        F[masks, top ^ masks] = complement_form_signs(l, hat)
        tgt, cof = rho_tables(l, kind)
        for k, label in enumerate(pair_basis(l, kind).labels):
            R = np.zeros((N, N), dtype=np.int64)
            R[tgt[k], masks] = cof[k]
            sign = -1 if hat and kind == "B" and label.startswith("[u,") else 1
            assert (F @ R + sign * R.T @ F == 0).all(), (kind, hat, l, label)


@pytest.mark.parametrize("kind", ["B", "D"])
@pytest.mark.parametrize("f", [QQ, GF(5)], ids=repr)
def test_rho_is_a_lie_homomorphism_small_l(kind, f):
    # the Jacobi scan of so x| S, the spin action on the whole exterior
    # algebra, decides it on every pair of pairs
    for l in (2, 3, 4):
        assert rho_witness(l, kind, f) is None, (kind, l)


@pytest.mark.parametrize("kind,l", [("B", 5), ("B", 6), ("D", 5), ("D", 6)])
def test_rho_is_a_lie_homomorphism_randomized(kind, l):
    assert rho_witness(l, kind, GF(7)) is None


def test_rho_witness_finds_a_broken_action():
    # one flipped cof entry of B3 is a witness
    tgt, cof = rho_tables(3, "B")
    cof = cof.copy()
    cof[np.nonzero(cof)[0][0], np.nonzero(cof)[1][0]] *= -1
    assert rho_witness(3, "B", GF(7), tables=(tgt, cof)) is not None


@pytest.mark.parametrize("kind,l", [("B", 3), ("B", 4), ("D", 4)])
def test_natural_matrix_lands_in_so(kind, l):
    # N^T G + G N = 0 for the matrix N of each pair on the ambient space
    G = ambient_gram(l, kind)
    for k, N in enumerate(natural_matrices(G)):
        assert (N.T @ G + G @ N == 0).all(), (kind, l, k)


@pytest.mark.parametrize("l", [2, 3, 4, 5, 6])
def test_spin_weights_have_multiplicity_one(l):
    # Cartan pairs act diagonally on monomials; the per-monomial tuple of
    # eigenvalues must be 2^l distinct weight vectors (characteristic 0)
    tgt, cof = rho_tables(l, "B")
    weights = set()
    for m in range(1 << l):
        w = []
        for k in pair_basis(l, "B").cartan:
            assert tgt[k, m] == m, (l, k, m)
            w.append(int(cof[k, m]))
        weights.add(tuple(w))
    assert len(weights) == 1 << l


@pytest.mark.parametrize("kind", ["B", "D"])
@pytest.mark.parametrize("l", [2, 3, 4, 5, 6])
def test_trace_form_matches_matrix_trace(kind, l):
    # oracle: (X,Y) = (1/2) tr(nat(X) nat(Y)) computed from dense matrix
    # products of the natural matrices, entrywise over the whole pair basis
    nat = natural_matrices(ambient_gram(l, kind))
    npairs = len(pair_basis(l, kind).pairs)

    def dense_trace(k1, k2):
        return Fraction(int(np.trace(nat[k1] @ nat[k2])), 2)

    perm, coef = gram_pairing(l, kind)
    G = np.zeros((npairs, npairs), dtype=np.int64)
    G[np.arange(npairs), perm] = coef
    for k1 in range(npairs):
        for k2 in range(npairs):
            assert G[k1, k2] == dense_trace(k1, k2), (k1, k2)


def test_gram_matrix_entries_never_vanish_odd_char():
    # the trace form is nondegenerate over GF(3), GF(5), GF(7)
    for ch in (3, 5, 7):
        for kind, l in (("B", 4), ("D", 4)):
            assert (gram_pairing(l, kind)[1] % ch != 0).all(), (ch, kind)


@pytest.mark.parametrize("l", [3, 4])
def test_half_spin_blocks_close_under_rho(l):
    # each pair of kind D maps a monomial to one of the same parity, so
    # both half-spin blocks are invariant
    tgt, cof = rho_tables(l, "D")
    masks = np.arange(1 << l)
    for parity in (0, 1):
        block = half_spin_masks(l, parity)
        assert len(block) == 1 << (l - 1)
        hit = cof[:, list(block)] != 0
        par = np.bitwise_count(tgt[:, list(block)]) % 2
        assert (par[hit] == parity).all(), (l, parity)
    assert (tgt[cof == 0] == np.broadcast_to(masks, tgt.shape)[cof == 0]).all()


@pytest.mark.parametrize("kind,l", [("B", l) for l in range(1, 8)]
                         + [("D", 2), ("D", 4), ("D", 6)])
def test_rho_tables_match_the_per_monomial_rule(kind, l):
    # monomial by monomial, D rho(B_a) D is the sum of its trace coordinates
    # times the gamma-matrix sigma_k of spinor_reference, D the signs of
    # helpers.mask_signs, on the whole exterior algebra
    tgt, cof = rho_tables(l, kind)
    eps = mask_signs(l, kind)
    m = model(l, kind)
    perm, sign = m.sigma
    N = 1 << l
    T = traces(l, kind, eps) * m.inverse_sign
    for a in range(len(tgt)):
        got = np.zeros((N, N), dtype=np.int64)
        for k in np.flatnonzero(T[a]):
            got[perm[k], np.arange(N)] += T[a, k] * sign[k]
        want = np.zeros((N, N), dtype=np.int64)
        want[tgt[a], np.arange(N)] = N * eps[tgt[a]] * eps * cof[a]
        assert (got == want).all(), (kind, l, a)


@pytest.mark.parametrize("kind,l", [("B", l) for l in range(1, 6)]
                         + [("D", l) for l in range(2, 6)])
def test_so_bracket_table_is_the_commutator_of_natural_matrices(kind, l):
    N = natural_matrices(ambient_gram(l, kind))
    assert N.shape == (len(pair_basis(l, kind).pairs),) + (ambient_space(l, kind).dim,) * 2
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
        assert np.array_equal(natural_matrices(q), N)
        want = np.einsum("irs,jst->ijrt", N, N) - np.einsum("jrs,ist->ijrt", N, N)
        got = np.zeros_like(want)
        k1, k2, k3, c = so_constants(q)
        np.add.at(got, (k1, k2), c[:, None, None] * N[k3])
        assert ((got - want) % p == 0).all() if p else (got == want).all()
        key = (k1 * len(N) + k2) * len(N) + k3
        assert (c != 0).all() and (np.diff(key) > 0).all()


def test_so_constants_refuses_a_gram_matrix_it_cannot_read():
    # both so kernels share one input check
    for kernel in (so_constants, natural_matrices):
        for q in (np.array([[0, 1], [2, 0]]), np.eye(3), np.zeros((2, 3), dtype=int),
                  np.zeros(4, dtype=int)):
            with pytest.raises(ValueError, match="square symmetric integer"):
                kernel(q)


def _tampered_pairing(monkeypatch, l, kind, tamper):
    """gram_pairing(l, kind) uncached, with tamper applied to a writable
    copy of the natural matrices it reads; tamper returns the stack."""
    kernel = clifford.natural_matrices
    monkeypatch.setattr(clifford, "natural_matrices", lambda q: tamper(kernel(q).copy()))
    gram_pairing.cache_clear()
    try:
        return gram_pairing(l, kind)
    finally:
        monkeypatch.undo()
        gram_pairing.cache_clear()


def _diagonal_one(N):
    # the Cartan pair [v1,f1] of B3 is its own mate; a 1 on its diagonal
    # at u adds 1 * 1 to its trace
    N[pair_basis(3, "B").cartan[0], 0, 0] = 1
    return N


def _zeroed(N):
    # pair 5 of B3 and its mate, pair 2, now trace to 0
    N[5] = 0
    return N


def _one_short(N):
    return N[:-1]


def _tripled(N):
    N[5] *= 3
    return N


@pytest.mark.parametrize("tamper,match", [
    (_diagonal_one, r"^trace pairing of pair 8 is 9, not a nonzero even integer$"),
    (_zeroed, r"^trace pairing of pair 2 is 0, not a nonzero even integer$"),
    (_one_short, r"^trace-form partner pairs are not a permutation$"),
    (_tripled, r"^a trace-form coefficient does not divide 8$")])
def test_gram_pairing_refuses_a_tampered_natural_stack(tamper, match, monkeypatch):
    # an odd trace, a zero trace, a stack one pair short of the mate map,
    # and a coefficient 3 * 4 = 12: each is refused by name
    want = gram_pairing(3, "B")
    with pytest.raises(VerificationFailed, match=match):
        _tampered_pairing(monkeypatch, 3, "B", tamper)
    got = gram_pairing(3, "B")
    assert all(np.array_equal(a, b) for a, b in zip(got, want))
    assert _tampered_pairing(monkeypatch, 3, "B", lambda N: N)[1].tolist() == want[1].tolist()
