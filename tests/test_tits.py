from fractions import Fraction

import numpy as np
import pytest

from spinlab.cli import _hash_matrix
from spinlab.fields import GF, QQ
from spinlab.kac import K_FORM, KacElement, inner_derivation_J
from spinlab.linalg import inv_modp, nullspace_modp
from spinlab.superalgebra import VerificationFailed, check_jacobi, j_triple
from spinlab.tits import (TITS_DIMS, UU_INDICES, UU_PAIRS, _odd_intertwiner,
                          build_so_MQ, build_tits, cross_identify_with_typeB, phi0,
                          phi1_intertwine, spin_map_psi, tits_bracket,
                          tits_model, unit_ideal_split)

F5 = GF(5)


@pytest.mark.parametrize("kind", list(TITS_DIMS))
def test_dims_and_jacobi_char5(kind):
    A = build_tits(kind, F5)
    assert (A.n0, A.n1) == TITS_DIMS[kind]
    assert check_jacobi(A, mode="full").jacobi_pass


def test_octonion_fails_jacobi_char7():
    A = build_tits("octonion", GF(7))
    rep = check_jacobi(A, mode="full", witness_cap=1)
    assert not rep.jacobi_pass
    w = rep.witnesses[0]
    assert j_triple(A, w["i"], w["j"], w["k"]) != {}


def test_unit_passes_octonion_fails_over_qq():
    assert check_jacobi(build_tits("unit", QQ), mode="full").jacobi_pass
    rep = check_jacobi(build_tits("octonion", QQ), mode="full", witness_cap=1)
    assert not rep.jacobi_pass
    w = rep.witnesses[0]
    assert j_triple(build_tits("octonion", QQ), w["i"], w["j"], w["k"]) != {}


# --- the defining bracket rules, recomputed from first principles ----------


def mid(m, ai, xj, coeff=None):
    el = m.zero()
    el.middle[(ai, xj)] = coeff if coeff is not None else m.field.one()
    return el


def czero_coords(m, vec):
    return m.C.coords_in_czero(vec)


def test_der_acts_componentwise():
    # [D, a⊗x] = D(a)⊗x, with D(a) applied as a raw matrix on C
    m = tits_model("octonion", F5)
    f = F5
    for di in range(m.nder):
        D = m.derC[di]
        dEl = m.basis_element(m.index[("der", di)])
        for ai in range(m.ncz):
            a = m.cz[ai]
            img = [sum((f.mul(D[r][c], a[c]) for c in range(8)), f.zero())
                   for r in range(8)]
            cc = czero_coords(m, img)
            for xj in (1, 5, 2):
                got = tits_bracket(dEl, mid(m, ai, xj))
                want = m.zero()
                for bi, v in enumerate(cc):
                    if not f.is_zero(v):
                        want.middle[(bi, xj)] = v
                assert got == want, (di, ai, xj)


def test_inner_derivations_act_componentwise():
    # [d, a⊗x] = a⊗d(x) for every inner derivation of J, both parities
    m = tits_model("octonion", F5)
    f = F5
    for t in range(10):
        d = m.inder[t]
        dEl = m.basis_element(m.index[("inj", t)])
        for ai in (0, 3, 6):
            for xj in range(1, 10):
                got = tits_bracket(dEl, mid(m, ai, xj))
                want = m.zero()
                for k in range(9):
                    v = d[k][xj - 1]
                    if not f.is_zero(v):
                        want.middle[(ai, k + 1)] = v
                assert got == want, (t, ai, xj)


def test_der_C_commutes_with_inder_J():
    m = tits_model("octonion", F5)
    for di in range(m.nder):
        dEl = m.basis_element(m.index[("der", di)])
        for t in range(10):
            jEl = m.basis_element(m.index[("inj", t)])
            assert tits_bracket(dEl, jEl).is_zero()
            assert tits_bracket(jEl, dEl).is_zero()


def test_even_inder_kills_e_tensor_e():
    m = tits_model("octonion", F5)
    for t in range(m.n_inder_even):
        jEl = m.basis_element(m.index[("inj", t)])
        for ai in range(m.ncz):
            assert tits_bracket(jEl, mid(m, ai, 1)).is_zero()


def test_e_tensor_e_middle_bracket_exact():
    # [a⊗(e⊗e), b⊗(u⊗v)] = (1/4)[a,b]⊗(u⊗v), exact over the rationals
    m = tits_model("octonion", QQ)
    f = QQ
    quarter = f.raw(Fraction(1, 4))
    for ai in range(7):
        for bi in range(7):
            comm = czero_coords(m, m.C.commutator(m.cz[ai], m.cz[bi]))
            for yj in UU_INDICES:
                got = tits_bracket(mid(m, ai, 1), mid(m, bi, yj))
                want = m.zero()
                for ci, v in enumerate(comm):
                    w = f.mul(quarter, v)
                    if not f.is_zero(w):
                        want.middle[(ci, yj)] = w
                assert got == want, (ai, bi, yj)


def test_LL_on_UU_is_half_sigma_Q():
    # [L_{u1⊗u2}, L_{v1⊗v2}] restricted to U⊗U = ½ σ^Q, with
    # Q(u1⊗u2, v1⊗v2) = -(u1|v1)(u2|v2) and σ^Q_{x,y}(z) = Q(x,z)y - Q(y,z)x
    f = QQ

    def q_uu(j1, j2):
        (u1, u2) = UU_PAIRS[UU_INDICES.index(j1)]
        (v1, v2) = UU_PAIRS[UU_INDICES.index(j2)]
        return -Fraction(K_FORM[u1][v1] * K_FORM[u2][v2])

    for xj in UU_INDICES:
        for yj in UU_INDICES:
            d = inner_derivation_J(KacElement.basis(f, xj),
                                   KacElement.basis(f, yj))
            for zj in UU_INDICES:
                col = {k + 1: d[k][zj - 1] for k in range(9)
                       if not f.is_zero(d[k][zj - 1])}
                assert set(col) <= set(UU_INDICES), (xj, yj, zj)
                want = {}
                cx = Fraction(1, 2) * q_uu(xj, zj)
                cy = Fraction(1, 2) * q_uu(yj, zj)
                if cx:
                    want[yj] = want.get(yj, 0) + cx
                if cy:
                    want[xj] = want.get(xj, 0) - cy
                want = {k: v for k, v in want.items() if v}
                assert col == want, (xj, yj, zj)


# --- the characteristic-5 identification pipeline --------------------------


def test_unit_ideal_split():
    r = unit_ideal_split(F5)
    assert r["pass"]
    assert r["dims"] == (5, 5) and r["joint_span"] == 10


def test_so_MQ_gram_blocks():
    somq = build_so_MQ(F5)
    assert somq.algebra.n0 == 55 and somq.algebra.n1 == 0
    f = F5
    for i in range(7):
        for j in range(7):
            want = f.neg(f.raw(somq.C.norm_polar(somq.cz[i], somq.cz[j])))
            assert somq.gram[i][j] == want
        for r in range(4):
            assert f.is_zero(somq.gram[i][7 + r])
            assert f.is_zero(somq.gram[7 + r][i])
    uu = [[int(somq.gram[7 + r][7 + s]) % 5 for s in range(4)]
          for r in range(4)]
    assert uu == [[0, 0, 0, 4], [0, 0, 1, 0], [0, 1, 0, 0], [4, 0, 0, 0]]


def test_requires_characteristic_5():
    with pytest.raises(ValueError):
        phi0(GF(7))
    with pytest.raises(ValueError):
        spin_map_psi(QQ)


def test_phi0_is_verified_iso():
    r = phi0(F5)
    assert r["verified"] and r["rank"] == 55
    assert len(r["matrix"]) == 55 and len(r["matrix"][0]) == 55


def test_phi0_respects_grading():
    # even T basis: der C and e⊗e-middles land in the C⁰ block, the even
    # inner derivations in the U⊗U block, the U⊗U-middles across blocks
    m = tits_model("octonion", F5)
    somq = build_so_MQ(F5)
    mat = phi0(F5)["matrix"]
    f = F5
    czero_pairs = {k for k, (i, j) in enumerate(somq.pairs) if j < 7}
    uu_pairs = {k for k, (i, j) in enumerate(somq.pairs) if i >= 7}
    mixed = {k for k, (i, j) in enumerate(somq.pairs) if i < 7 <= j}
    for col in range(55):
        slot = m.slots[col]
        support = {r for r in range(55) if not f.is_zero(mat[r][col])}
        if slot[0] == "der" or (slot[0] == "mid" and slot[2] == 1):
            assert support <= czero_pairs, (col, slot)
        elif slot[0] == "inj":
            assert support <= uu_pairs, (col, slot)
        else:
            assert support <= mixed, (col, slot)


def test_spin_map_relations():
    r = spin_map_psi(F5)
    assert r["verified"]
    assert r["checked"] == 1579
    assert len(r["psi"]) == 11


def test_phi1_intertwines():
    r = phi1_intertwine(F5)
    assert r["pass"] and r["witness"] is None
    assert r["checked"] == 1760


def test_phi1_negative_control():
    r = phi1_intertwine(F5, negate_index=0)
    assert not r["pass"]
    assert r["witness"] is not None
    assert r["witness"]["lhs"] != r["witness"]["rhs"]


def test_cross_identification_pinned():
    r = cross_identify_with_typeB(F5, seed=0)
    assert r["status"] == "isomorphism"
    assert r["verified"]
    assert r["scale"] == 1
    assert r["mu"] == 1
    assert r["proportionality"] == 1
    assert r["equivariant_dim"] == 1
    assert not r["spinor_twist"]
    # pins the normalisation of S as well as the transported θ
    assert _hash_matrix(r["matrix"]) == (
        "4f4681470f41477844158085be76e702b7fd1adc9d1eb51fea78307374c594da")
    again = cross_identify_with_typeB(F5, seed=0)
    assert again == r


@pytest.mark.parametrize("seed", range(6))
def test_cross_identification_every_seed(seed):
    # seeds 1-3 meet a non-square proportionality first and need the twist
    r = cross_identify_with_typeB(F5, seed=seed)
    assert r["status"] == "isomorphism" and r["verified"]
    assert r["equivariant_dim"] == 1
    assert r["mu"] ** 2 % 5 == r["proportionality"]
    assert r["spinor_twist"] == (seed in (1, 2, 3))


# --- the odd intertwiner solve, against a Kronecker-nullspace reference ----


def _kronecker_intertwiners(rep1, rep2, p):
    """Rows vec(S) spanning {S : rep2[a]·S = S·rep1[a] for all a}."""
    n = rep1[0].shape[0]
    eye = np.eye(n, dtype=np.int64)
    K = np.vstack([(np.kron(r2, eye) - np.kron(eye, r1.T)) % p
                   for r1, r2 in zip(rep1, rep2)])
    return nullspace_modp(K, p)


def _random_invertible(rng, n, p):
    while True:
        P = rng.integers(0, p, size=(n, n), dtype=np.int64)
        try:
            return P, inv_modp(P, p)
        except ValueError:
            pass


@pytest.mark.parametrize("p", [5, 7])
@pytest.mark.parametrize("seed", range(4))
def test_odd_intertwiner_of_conjugate_reps(p, seed):
    rng = np.random.default_rng(100 * p + seed)
    n = 5
    rep1 = [rng.integers(0, p, size=(n, n), dtype=np.int64) for _ in range(3)]
    P, Pi = _random_invertible(rng, n, p)
    rep2 = [P @ r @ Pi % p for r in rep1]
    S = _odd_intertwiner(rep1, rep2, p)
    ref = _kronecker_intertwiners(rep1, rep2, p)
    assert ref.shape[0] == 1
    # S spans the same line as the reference and as P
    for line in (ref[0], P.reshape(-1)):
        k = int(np.nonzero(line)[0][0])
        lam = int(S.reshape(-1)[k]) * pow(int(line[k]), p - 2, p) % p
        assert lam and np.array_equal(S.reshape(-1), line * lam % p)


def test_odd_intertwiner_absent():
    # I·S = S·0 forces S = 0
    p, n = 5, 4
    rep1 = [np.zeros((n, n), dtype=np.int64)]
    rep2 = [np.eye(n, dtype=np.int64)]
    assert _kronecker_intertwiners(rep1, rep2, p).shape[0] == 0
    with pytest.raises(VerificationFailed, match="no odd intertwiner exists"):
        _odd_intertwiner(rep1, rep2, p)


def test_odd_intertwiner_not_unique():
    # equal scalar reps: every S intertwines, a space of dim n²
    p, n = 7, 3
    rep = [3 * np.eye(n, dtype=np.int64), 5 * np.eye(n, dtype=np.int64)]
    assert _kronecker_intertwiners(rep, rep, p).shape[0] == n * n
    with pytest.raises(VerificationFailed, match="dim 9, expected 1"):
        _odd_intertwiner(rep, rep, p)
