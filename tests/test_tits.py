import hashlib
import json
import random
import sys
from fractions import Fraction

import numpy as np
import pytest

from spinlab import cli, composition, kac
from spinlab.cli import _hash_matrix
from spinlab.fields import GF, QQ, Field, make_field
from spinlab.kac import K_FORM, _j_tensor
from spinlab.linalg import SpanSolver, inv_modp, matmul_modp, nullspace_modp, rank_modp
from spinlab.construct import build_superalgebra
from spinlab.superalgebra import (SuperAlgebra, VerificationFailed, _block,
                                  _brackets_into, _first_unpreserved_pair,
                                  _lowering, burnside_irreducible, check_jacobi,
                                  even_subalgebra, j_triple, verify_isomorphism)
from spinlab import tits
from spinlab.clifford import (ambient_gram, ambient_space, natural_matrices, pair_basis,
                              qpair)
from spinlab.tits import (TITS_DIMS, UU_INDICES, UU_PAIRS, IsometryNotFound,
                          ScalingNotFound, _hyperbolic_basis,
                          _odd_intertwiner, _odd_scale,
                          build_so_MQ, build_tits, cross_identify_with_typeB, phi0,
                          phi1_intertwine, spin_map_psi, tits_bracket,
                          tits_model, unit_ideal_split)

from helpers import (first_bad_pair, first_unpreserved_pair_by_columns,
                     lmul_brackets_by_loops)
from zorn_reference import (LABELS, zorn_commutator, zorn_inner_derivation,
                            zorn_polar, zorn_product)

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


# the table bytes of every T(C, Kac) built here: a change of the bracket
# route must leave each content hash as it is
TABLE_HASHES = {
    (0, "unit"):
        "2f1da5c2532ff85d3887bf9aa8676ac09595caaff007fde62600765977af59c4",
    (0, "binarion"):
        "026c423257718571ffede97be609e2fbf5e6026cd88491248a3cfe1b653aa5fe",
    (0, "quaternion"):
        "2f19e38336c26e4fd1aa3497abb7075ddd2ceb215ca6e9fe7d9f5e8096b1c588",
    (0, "octonion"):
        "46190ffeca0e832cb2eb04575205f720061c23424f1440f45e6c6a2662721e78",
    (5, "unit"):
        "346f1eedcbeb90290af455a89fd13385d70ebe43963b76be8351b87d933a1b67",
    (5, "binarion"):
        "81e704fd6a7c91680fcd4d1f195e7c2e3ea6c5c23c5535a0e6fa52e59671fd7b",
    (5, "quaternion"):
        "a49f4312f40cd4d26816a10d58dcf01fef83ae5148c10407a869d96071f0c9be",
    (5, "octonion"):
        "b5fd2fbb34cac2306d4d7a331478a5d3f1105daceae4c64cb12e629f15bbf15a",
    (7, "unit"):
        "bbb8ad21e7ddbb8567702350f9195a3d76ce19676e6f9a033cc6a082b9fa5597",
    (7, "binarion"):
        "8098210a4e10233f073e8b5a74abb7578cb091e97b8154a4cee403ba27ffd957",
    (7, "quaternion"):
        "51a0cf77c723c480b1f086bd850fb1f11bcc900d70b160ed7f58943da52d856d",
    (7, "octonion"):
        "8562b34f6e400435691e2e618f305e9939278685b886c27b8575e02fac6a56cc",
}


@pytest.mark.parametrize("char,kind", list(TABLE_HASHES))
def test_table_content_hash_pinned(char, kind):
    A = build_tits(kind, make_field(char))
    assert A.to_dict()["content_hash"] == TABLE_HASHES[(char, kind)]


@pytest.mark.parametrize("kind", list(TITS_DIMS))
@pytest.mark.parametrize("p", [5, 7])
def test_rational_table_reduces_to_the_prime_table(kind, p):
    # V·scale⁻¹ mod p of the table over Q is the table over GF(p), entry
    # by entry, whichever route assembled the two
    I, J, K, V, scale = build_tits(kind, QQ).coo
    red = np.array([v * pow(scale, -1, p) % p for v in V.tolist()], dtype=np.int64)
    keep = red != 0
    want = sorted(zip(I[keep].tolist(), J[keep].tolist(), K[keep].tolist(),
                      red[keep].tolist()))
    Ip, Jp, Kp, Vp, scale_p = build_tits(kind, GF(p)).coo
    assert scale_p == 1
    assert sorted(zip(Ip.tolist(), Jp.tolist(), Kp.tolist(), Vp.tolist())) == want


@pytest.mark.parametrize("kind,field", [(kind, F5) for kind in TITS_DIMS]
                         + [("octonion", QQ)])
def test_assembled_table_matches_the_rule_reference(kind, field):
    # the array assembly of build_tits against tits_bracket on all n² pairs
    A, m = build_tits(kind, field), tits_model(kind, field)
    for i in range(A.dim):
        for j in range(A.dim):
            assert A.bracket_terms(i, j) == tits_bracket(m, i, j), (i, j)


def _flip_one_entry(table, p, to=lambda v: -v):
    """A copy of a rule table with one off-diagonal nonzero entry v set to
    to(v) mod p, negated by default (off-diagonal in its first two axes,
    so that the two bracket orders of some pair read different entries)."""
    out = np.array(table)
    hot = np.argwhere(out != 0)
    at = tuple(next(ix for ix in hot if ix[0] != ix[1]))
    out[at] = to(out[at]) % p
    return out


def _build_with_tampered_table(monkeypatch, name, to=lambda v: -v):
    """The uncached octonion build over GF(5) from a model whose table
    name has one entry changed by _flip_one_entry."""
    model = tits.TitsModel("octonion", F5)
    setattr(model, name, _flip_one_entry(getattr(model, name), 5, to))
    monkeypatch.setattr(tits, "tits_model", lambda kind, field: model)
    return build_tits.__wrapped__("octonion", F5)


RULE_TABLES = ["DD", "Dab", "comm_cz", "dd", "LL", "t_tab"]


@pytest.mark.parametrize("name", RULE_TABLES)
def test_a_flipped_rule_entry_is_refused(name, monkeypatch):
    # the two bracket orders come from their own rules; negating one entry
    # of a table that the two orders read at different places must be
    # caught by the cross-check of build_tits
    with pytest.raises(VerificationFailed,
                       match=r"inconsistent bracket orders for \(\d+,\d+\)"):
        _build_with_tampered_table(monkeypatch, name)


@pytest.mark.parametrize("name", RULE_TABLES)
def test_a_rule_entry_missing_in_one_order_is_refused(name, monkeypatch):
    # zeroing the entry instead leaves a component in one order only
    with pytest.raises(VerificationFailed,
                       match=r"inconsistent bracket orders for \(\d+,\d+\)"):
        _build_with_tampered_table(monkeypatch, name, to=lambda v: 0)


def test_a_diagonal_entry_given_twice_is_refused(monkeypatch):
    # [s, s] of an odd s is its own other order, so only the duplicate
    # check sees it twice; stored twice, bracket_terms would read one copy
    # and the Jacobi scan would sum both (4 + 4 = 3 mod 5)
    gate = tits._stored_half

    def doubled(I, J, K, V, *rest):
        x = np.flatnonzero(I == J)[:1]
        return gate(*(np.concatenate([a, a[x]]) for a in (I, J, K, V)), *rest)

    monkeypatch.setattr(tits, "_stored_half", doubled)
    with pytest.raises(VerificationFailed,
                       match=r"^odd product \((\d+),\1\) is given twice"):
        build_tits.__wrapped__("octonion", F5)


def _tampered_so_constants(monkeypatch, tamper):
    """Route build_so_MQ through clifford.so_constants with tamper applied
    in place to writable copies of its arrays (k1, k2, k3, c)."""
    kernel = tits.so_constants

    def tampered(q):
        arrays = [np.array(a) for a in kernel(q)]
        tamper(*arrays)
        return arrays
    monkeypatch.setattr(tits, "so_constants", tampered)


def test_a_sigma_coordinate_flipped_in_one_order_is_refused(monkeypatch):
    # the first constant of the kernel negated in one order only: every
    # entry is still given once, and only the comparison of the two orders
    # at the gate of superalgebra._stored_half sees it
    flipped = []

    def flip(k1, k2, k3, c):
        x = np.flatnonzero(c % 5)[0]
        c[x] = -c[x]
        flipped.append((k1[x], k2[x], k3[x]))
    _tampered_so_constants(monkeypatch, flip)
    with pytest.raises(VerificationFailed) as caught:
        build_so_MQ.__wrapped__(F5)
    (a, b, k), = flipped
    assert a == 0 < b
    assert str(caught.value) == ("bracket symmetry fails: inconsistent bracket "
                                 f"orders for (0,{b}) at component {k}")


@pytest.mark.parametrize("name,at,witness", [("Dcz", (0, 0, 4), (0, 3, 14)),
                                              ("dJcol", (0, 3, 2), (14, 49, 56))])
def test_a_flipped_source_entry_is_caught_by_the_jacobi_scan(
        name, at, witness, monkeypatch):
    # the two bracket orders of [D, a⊗x] (or [d, a⊗x]) read the same Dcz
    # (or dJcol) entry, one with the opposite sign, so the cross-check of
    # build_tits cannot see a flipped entry: the build goes through, and
    # the Jacobi scan of the result is the check
    model = tits.TitsModel("octonion", F5)
    table = np.array(getattr(model, name))
    table[at] = (-table[at]) % 5
    assert table[at] != getattr(model, name)[at]
    setattr(model, name, table)
    monkeypatch.setattr(tits, "tits_model", lambda kind, field: model)
    A = build_tits.__wrapped__("octonion", F5)      # the uncached build
    rep = check_jacobi(A, witness_cap=1)
    assert not rep.jacobi_pass
    assert [(w["i"], w["j"], w["k"]) for w in rep.witnesses] == [witness]


def _spy_everywhere(monkeypatch, original, calls):
    """Replace original by a call-recording wrapper in every spinlab module
    that holds it."""
    def spy(*args, **kwargs):
        calls.append(original.__name__)
        return original(*args, **kwargs)
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "spinlab":
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, spy)


def _clear_model_caches():
    for fn in (tits.build_tits, tits.tits_model, tits._j_tables,
               kac._j_fractions, kac._j_tensor, kac._lmul_brackets,
               kac._inder_basis, composition._int_tables):
        fn.cache_clear()


def test_build_makes_no_per_pair_or_per_entry_calls(monkeypatch):
    calls = []
    _spy_everywhere(monkeypatch, tits.tits_bracket, calls)
    for owner, attr in ((SpanSolver, "coords"), (Field, "raw")):
        original = getattr(owner, attr)

        def spy(*args, _original=original, **kwargs):
            calls.append(_original.__name__)
            return _original(*args, **kwargs)
        monkeypatch.setattr(owner, attr, spy)
    _clear_model_caches()
    try:
        A = build_tits("octonion", GF(7))
    finally:
        _clear_model_caches()
    assert (A.n0, A.n1) == TITS_DIMS["octonion"]
    assert calls == []


# --- the defining bracket rules, recomputed from first principles ----------


def mid(m, ai, xj):
    return m.index[("mid", ai, xj)]


# the C⁰ basis (E1 − E2, u1..u3, w1..w3) in the coordinates of Zorn's model
CZERO = [[1, -1] + [0] * 6] + [[int(t == i) for t in range(8)] for i in range(2, 8)]
UNIT = [1, 1] + [0] * 6


def czero_coords(f, vec):
    # over the basis (E1 - E2, b_2, ...) of the trace-zero part
    assert f.raw(zorn_polar(UNIT, vec)) == 0
    return [f.raw(vec[0])] + [f.raw(v) for v in vec[2:]]


def test_der_acts_componentwise():
    # [D, a⊗x] = D(a)⊗x, with D(a) applied as a raw matrix on C
    m = tits_model("octonion", F5)
    f = F5
    for di in range(m.nder):
        D = m.derC[di]
        dEl = m.index[("der", di)]
        for ai in range(m.ncz):
            a = CZERO[ai]
            img = [f.raw(sum(f.mul(D[r][c], a[c]) for c in range(8)))
                   for r in range(8)]
            cc = czero_coords(f, img)
            for xj in (1, 5, 2):
                got = tits_bracket(m, dEl, mid(m, ai, xj))
                want = {mid(m, bi, xj): v for bi, v in enumerate(cc)
                        if v != 0}
                assert got == want, (di, ai, xj)


@pytest.mark.parametrize("kind,field", [("octonion", F5), ("quaternion", QQ)])
def test_left_multiplications_match_the_product(kind, field):
    # La[a], which Ψ reads, column by column against Zorn's product a·e_c,
    # the quaternions being the span of E1, E2, u1, w1 in it
    m = tits_model(kind, field)
    sel = [LABELS.index(lab) for lab in composition._int_tables(kind).labels]
    czero = CZERO[:1] + [CZERO[t - 1] for t in sel[2:]]     # E1 − E2, then b_t
    assert len(czero) == m.ncz
    for ai, a in enumerate(czero):
        for c, t in enumerate(sel):
            prod = zorn_product(a, [int(s == t) for s in range(8)])
            assert not any(prod[s] for s in range(8) if s not in sel)
            assert ([field.raw(v) for v in m.La[ai][:, c]]
                    == [field.raw(prod[s]) for s in sel]), (ai, c)
    with pytest.raises(ValueError):      # the model's tables are read-only
        m.La[0, 0, 0] = 1


def test_inner_derivations_act_componentwise():
    # [d, a⊗x] = a⊗d(x) for every inner derivation of J, both parities
    m = tits_model("octonion", F5)
    f = F5
    for t in range(10):
        d = m.inder[t]
        dEl = m.index[("inj", t)]
        for ai in (0, 3, 6):
            for xj in range(1, 10):
                got = tits_bracket(m, dEl, mid(m, ai, xj))
                want = {mid(m, ai, k + 1): d[k][xj - 1] for k in range(9)
                        if d[k][xj - 1] != 0}
                assert got == want, (t, ai, xj)


def test_der_C_commutes_with_inder_J():
    m = tits_model("octonion", F5)
    for di in range(m.nder):
        dEl = m.index[("der", di)]
        for t in range(10):
            jEl = m.index[("inj", t)]
            assert tits_bracket(m, dEl, jEl) == {}
            assert tits_bracket(m, jEl, dEl) == {}


def test_even_inder_kills_e_tensor_e():
    m = tits_model("octonion", F5)
    for t in range(m.n_inder_even):
        jEl = m.index[("inj", t)]
        for ai in range(m.ncz):
            assert tits_bracket(m, jEl, mid(m, ai, 1)) == {}


def test_e_tensor_e_middle_bracket_exact():
    # [a⊗(e⊗e), b⊗(u⊗v)] = (1/4)[a,b]⊗(u⊗v), exact over the rationals
    m = tits_model("octonion", QQ)
    f = QQ
    quarter = f.raw(Fraction(1, 4))
    for ai in range(7):
        for bi in range(7):
            comm = czero_coords(f, zorn_commutator(CZERO[ai], CZERO[bi]))
            for yj in UU_INDICES:
                got = tits_bracket(m, mid(m, ai, 1), mid(m, bi, yj))
                want = {mid(m, ci, yj): f.mul(quarter, v)
                        for ci, v in enumerate(comm)
                        if f.mul(quarter, v) != 0}
                assert got == want, (ai, bi, yj)


def test_middle_bracket_rule_on_all_pairs():
    # [a⊗x, b⊗y] = t(xy)·D_{a,b} + [a,b]⊗(x*y) − 2n(a,b)·[L_x, L_y] on
    # every pair of middle basis elements, compared as matrices: the der
    # part against D_{a,b} on C, the inj part against [L_x, L_y] on K⊗K,
    # the middle part against [a,b] ⊗ (x*y) from the J product; D_{a,b},
    # [a, b] and n(a, b) come from Zorn's model
    m = tits_model("octonion", F5)
    f, p = F5, 5
    cz = CZERO

    def arr(mats):
        return np.array([[[int(v) % p for v in row] for row in mat]
                         for mat in mats], dtype=np.int64)

    derC, inder = arr(m.derC), arr(m.inder)
    czero = arr([cz])[0]                                    # (7, 8)
    D_ab = {}
    LL_ref = lmul_brackets_by_loops(p)
    mids = [(k, s[1], s[2]) for k, s in enumerate(m.slots) if s[0] == "mid"]
    assert len(mids) == 63
    checked = 0
    for i, a, x in mids:
        for j, b, y in mids:
            if (a, b) not in D_ab:
                D_ab[(a, b)] = arr([zorn_inner_derivation(cz[a], cz[b])])[0]
            xy = _j_tensor(p)[x, y].tolist()
            n_ab = zorn_polar(cz[a], cz[b]) % p
            got = tits_bracket(m, i, j)
            cd = np.zeros(m.nder, dtype=np.int64)
            cj = np.zeros(10, dtype=np.int64)
            cm = np.zeros((7, 10), dtype=np.int64)          # (C⁰ index, J index)
            for k, v in got.items():
                s = m.slots[k]
                if s[0] == "der":
                    cd[s[1]] = int(v) % p
                elif s[0] == "inj":
                    cj[s[1]] = int(v) % p
                else:
                    cm[s[1], s[2]] = int(v) % p
            assert np.array_equal(np.tensordot(cd, derC, axes=1) % p,
                                  xy[0] * D_ab[(a, b)] % p), (i, j)
            assert np.array_equal(np.tensordot(cj, inder, axes=1) % p,
                                  -2 * n_ab * arr([LL_ref[x, y]])[0] % p), (i, j)
            comm = np.array(zorn_commutator(cz[a], cz[b]), dtype=np.int64) % p
            star = np.array([0] + xy[1:], dtype=np.int64)
            assert np.array_equal(czero.T @ cm % p,
                                  np.outer(comm, star) % p), (i, j)
            checked += 1
    assert checked == 63 * 63


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
            d = lmul_brackets_by_loops(0)[xj, yj]
            for zj in UU_INDICES:
                col = {k + 1: d[k][zj - 1] for k in range(9)
                       if d[k][zj - 1] != 0}
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
            want = f.raw(-zorn_polar(CZERO[i], CZERO[j]))
            assert somq.gram[i][j] == want
        for r in range(4):
            assert somq.gram[i][7 + r] == 0
            assert somq.gram[7 + r][i] == 0
    uu = [[int(somq.gram[7 + r][7 + s]) % 5 for s in range(4)]
          for r in range(4)]
    assert uu == [[0, 0, 0, 4], [0, 0, 1, 0], [0, 1, 0, 0], [4, 0, 0, 0]]


def test_so_MQ_brackets_are_read_off_the_commutators():
    # the stored table against [σ_a, σ_b] = Σ_k c_k σ_k, solved by elimination
    somq = build_so_MQ(F5)
    solver = SpanSolver(F5, [m.reshape(-1).tolist() for m in somq.mats])
    ad = _block(somq.algebra, 0, 0, 0)             # ad[a, k, b]
    for a in range(55):
        for b in range(55):
            com = (somq.mats[a] @ somq.mats[b] - somq.mats[b] @ somq.mats[a]) % 5
            assert solver.coords(com.reshape(-1).tolist()) == ad[a, :, b].tolist()


def rep_by_pairs(so, rep, p):
    """The first basis pair a < b of the Lie algebra so with [rep(a),
    rep(b)] ≠ rep([e_a, e_b]), by dense numpy products, or None: the
    reference for the Jacobi scan of so ⋉ V in tits._rep_witness."""
    ad = _block(so, 0, 0, 0)                       # ad[a, k, b]
    for a in range(len(rep)):
        for b in range(a + 1, len(rep)):
            com = rep[a] @ rep[b] - rep[b] @ rep[a]
            if ((com - np.tensordot(ad[a, :, b], rep, axes=1)) % p).any():
                return a, b
    return None


def test_so_MQ_refuses_a_commutator_outside_so(monkeypatch):
    # σ_3 with one entry shifted, as the scan of so(M, Q) ⋉ M sees it: its
    # commutators are no longer the brackets of the table, and the refusal
    # names the first such pair
    somq = build_so_MQ(F5)                         # built before the tamper
    mats = somq.mats.copy()
    mats[3, 0, 0] = (mats[3, 0, 0] + 1) % 5
    a, b = rep_by_pairs(somq.algebra, mats, 5)
    check = tits._rep_witness
    monkeypatch.setattr(tits, "_rep_witness",
                        lambda so, rep, field: check(so, mats, field))
    with pytest.raises(VerificationFailed) as e:
        build_so_MQ.__wrapped__(F5)                # the uncached build
    assert str(e.value) == (f"sigma commutator at pairs {somq.pairs[a]},"
                            f"{somq.pairs[b]} is not its bracket")


@pytest.mark.parametrize("entry,triple", [(0, "0,1,3"), (247, "0,8,36"),
                                          (-1, "6,52,54")])
def test_so_MQ_refuses_a_shifted_constant(entry, triple, monkeypatch):
    # one constant of the kernel shifted in both orders passes the gate;
    # the scan of so(M, Q) ⋉ M refuses the table
    def shift(k1, k2, k3, c):
        x = np.flatnonzero(k1 < k2)[entry]
        y = np.flatnonzero((k1 == k2[x]) & (k2 == k1[x]) & (k3 == k3[x]))[0]
        c[x] += 1
        c[y] -= 1
    _tampered_so_constants(monkeypatch, shift)
    with pytest.raises(VerificationFailed) as e:
        build_so_MQ.__wrapped__(F5)
    assert str(e.value) == f"so(M,Q) fails the Jacobi identity on σ triple {triple}"


def test_so_MQ_refuses_coordinates_that_do_not_rebuild(monkeypatch):
    # swapped row and column indices read every so(M, Q) coordinate with
    # the wrong sign: Φ₀'s images stay inside so(M, Q), and the bracket
    # check of Φ₀ refuses −Φ₀ at its first bracketed pair
    somq = build_so_MQ(F5)
    T0 = even_subalgebra(build_tits("octonion", F5))
    i, j = first_unpreserved_pair_by_columns(-tits._phi0(F5) % 5, T0, somq.algebra)
    so_coords = tits._so_coords
    monkeypatch.setattr(tits, "_so_coords", lambda X, ginv, rows, cols, p:
                        so_coords(X, ginv, cols, rows, p))
    with pytest.raises(VerificationFailed) as e:
        tits._phi0.__wrapped__(F5)
    assert str(e.value) == (f"phi0 bracket mismatch at pair "
                            f"{(T0.labels[i], T0.labels[j])}")


def test_so_coordinates_closed_form_matches_span_solver():
    # σ_ij·G⁻¹ = e_j e_iᵀ − e_i e_jᵀ, against the elimination route
    somq = build_so_MQ(F5)
    solver = SpanSolver(F5, [m.reshape(-1).tolist() for m in somq.mats])
    rng = np.random.default_rng(2005)
    for _ in range(20):
        c = rng.integers(0, 5, 55)
        X = np.tensordot(c, somq.mats, axes=1) % 5
        coords, inside = somq.coords(X)
        assert inside
        assert coords.tolist() == c.tolist() == solver.coords(X.reshape(-1).tolist())
    Y = rng.integers(0, 5, (20, 11, 11))
    Y[:10] = (Y[:10] - np.swapaxes(Y[:10], 1, 2)) @ somq.gram % 5   # in so(M, Q)
    _, inside = somq.coords(Y)
    assert inside.tolist() == [solver.coords(y.reshape(-1).tolist()) is not None
                               for y in Y] == [True] * 10 + [False] * 10


def _natural_coordinates(q, pairs):
    """_so_coords of the natural matrices of q over GF(5), read with
    ½·q⁻¹ at the pairs (a, b)."""
    rows, cols = np.array(pairs).T
    half_qinv = inv_modp(q % 5, 5) * pow(2, -1, 5) % 5
    return tits._so_coords(natural_matrices(q) % 5, half_qinv, rows, cols, 5)


def test_natural_so_basis_coordinates_come_in_closed_form():
    # N_ab·q⁻¹ = 2(e_a e_bᵀ − e_b e_aᵀ): each natural matrix lies in so(q)
    # and has coordinate vector e_ab, for the Gram matrix of the l=5 kind B
    # model that cross_identify_with_typeB reads in this closed form, and
    # for random nondegenerate q over GF(5)
    coords, inside = _natural_coordinates(ambient_gram(5, "B"), pair_basis(5, "B").pairs)
    assert inside.all() and np.array_equal(coords, np.eye(55, dtype=np.int64))
    rng = np.random.default_rng(2005)
    checked = set()
    for dim in (2, 3, 4, 7, 11) * 4:
        q = rng.integers(0, 5, (dim, dim))
        q = (q + q.T) % 5
        if rank_modp(q, 5) < dim:
            continue
        pairs = list(zip(*np.triu_indices(dim, 1)))
        coords, inside = _natural_coordinates(q, pairs)
        assert inside.all() and np.array_equal(coords, np.eye(len(pairs), dtype=np.int64))
        checked.add(dim)
    assert checked == {2, 3, 4, 7, 11}


def test_requires_characteristic_5():
    with pytest.raises(ValueError):
        phi0(GF(7))
    with pytest.raises(ValueError):
        spin_map_psi(QQ)
    with pytest.raises(ValueError):
        build_so_MQ(GF(7))
    with pytest.raises(ValueError):
        cross_identify_with_typeB(GF(3))
    with pytest.raises(ValueError):
        phi1_intertwine(QQ)


def test_phi0_is_verified_iso():
    r = phi0(F5)
    assert r["verified"] and r["rank"] == 55
    assert len(r["matrix"]) == 55 and len(r["matrix"][0]) == 55
    assert _hash_matrix(r["matrix"]) == (
        "77196148feecfecf2db055981bd2b6bf71cf0298983e562c15c84ef32a6ab84a")


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
        support = {r for r in range(55) if mat[r][col] != 0}
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


def test_a_shifted_rho_entry_names_the_first_failing_sigma_pair(monkeypatch):
    so, (_, rho, _) = build_so_MQ(F5).algebra, tits._spin_rep(F5)
    assert rep_by_pairs(so, rho, 5) is None
    assert tits._rep_witness(so, rho, F5) is None
    check = tits._rep_witness
    rng = np.random.default_rng(29)
    for _ in range(6):
        shifted = rho.copy()
        a, k, j = rng.integers(55), rng.integers(32), rng.integers(32)
        shifted[a, k, j] = (shifted[a, k, j] + rng.integers(1, 5)) % 5
        want = rep_by_pairs(so, shifted, 5)
        assert want is not None
        witness = check(so, shifted, F5)
        assert witness[:2] == want and witness[2] >= 55
        # _spin_rep names the pair, with the check seeing the shifted ρ
        monkeypatch.setattr(tits, "_rep_witness", lambda so, rep, field:
                            check(so, shifted, field))
        with pytest.raises(tits.RelationFailed) as caught:
            tits._spin_rep.__wrapped__(F5)
        assert str(caught.value) == "spin rep fails on σ pairs {},{}".format(*want)


def test_rep_check_on_the_abelian_plane():
    # two commuting matrices represent the abelian 2-dimensional Lie
    # algebra and two that do not commute fail on its only pair, with the
    # witness at the first coordinate of V
    plane = SuperAlgebra("plane", F5, 2, 0, ("x", "y"), {}, odd_symmetric=False)
    assert tits._rep_witness(
        plane, np.array([[[1, 2], [0, 1]], [[3, 4], [0, 3]]]), F5) is None
    assert tits._rep_witness(
        plane, np.array([[[0, 1], [0, 0]], [[0, 0], [1, 0]]]), F5) == (0, 1, 2)


@pytest.mark.parametrize("entry", [0, 247, -1])
def test_a_shifted_so_constant_is_refused_as_so(entry, monkeypatch):
    # one stored structure constant of so(M, Q) moved: the scan of
    # so(M, Q) ⋉ S finds an all-even witness first, and _spin_rep names
    # so(M, Q)
    somq, (_, rho, _) = build_so_MQ(F5), tits._spin_rep(F5)
    so = somq.algebra
    I, J, K, V, _ = so.coo
    stored = np.flatnonzero(I <= J)
    V = V[stored].copy()
    V[entry] = (V[entry] + 1) % 5
    shifted = SuperAlgebra._from_coo(so.name, F5, 55, 0, so.labels,
                                     (I[stored], J[stored], K[stored], V, 1),
                                     odd_symmetric=False)
    witness = tits._rep_witness(shifted, rho, F5)
    assert witness[2] < 55
    monkeypatch.setattr(tits, "build_so_MQ",
                        lambda field: somq._replace(algebra=shifted))
    with pytest.raises(tits.RelationFailed) as caught:
        tits._spin_rep.__wrapped__(F5)
    assert str(caught.value) == ("so(M,Q) fails the Jacobi identity on σ triple "
                                 "{},{},{}".format(*witness))


def test_the_sparse_checks_make_no_dense_products(monkeypatch):
    so, (_, rho, _) = build_so_MQ(F5).algebra, tits._spin_rep(F5)
    M = np.array(cross_identify_with_typeB(F5)["matrix"], dtype=np.int64)
    T, B5 = build_tits("octonion", F5), build_superalgebra(5, "B", F5)
    tits_model("octonion", F5)                 # cached before the uncached build
    calls = []
    for original in (matmul_modp, _brackets_into):
        _spy_everywhere(monkeypatch, original, calls)
    assert tits._rep_witness(so, rho, F5) is None
    assert _first_unpreserved_pair(M, T, B5) is None
    assert build_so_MQ.__wrapped__(F5).algebra.coo[0].size == so.coo[0].size
    assert calls == []
    assert tits._spin_rep.__wrapped__(F5)[2] == 1579
    assert calls == ["matmul_modp"]            # Ψ_i·Ψ_j, for the Clifford relations


def test_phi1_intertwines():
    r = phi1_intertwine(F5)
    assert r["pass"] and r["witness"] is None
    assert r["checked"] == 1760


def test_phi1_negative_control():
    # the same check on Φ₁ with column 0 negated, from the same call
    r = phi1_intertwine(F5)["negative_control"]
    assert set(r) == {"pass", "witness"}
    assert not r["pass"]
    assert r["witness"] is not None
    assert r["witness"]["lhs"] != r["witness"]["rhs"]


def test_a_negated_phi1_column_is_caught(monkeypatch):
    # a Φ₁ with column 3 negated fails the check itself, and still fails
    # its control, which negates column 0 as well
    phi1 = tits._phi1(F5).copy()
    phi1[:, 3] = (-phi1[:, 3]) % 5
    monkeypatch.setattr(tits, "_phi1", lambda field: phi1)
    r = phi1_intertwine(F5)
    assert not r["pass"] and r["checked"] < 1760
    assert r["witness"]["lhs"] != r["witness"]["rhs"]
    assert not r["negative_control"]["pass"]


@pytest.mark.parametrize("i,j", [(-1, 60), (87, 1), (1, 87), (True, 60),
                                 (60, 2.0)])
def test_tits_bracket_refuses_an_index_outside_the_basis(i, j):
    # -1 used to read the bracket of (86, 60), and 87 raised IndexError
    m = tits_model("octonion", F5)
    bad = next(x for x in (i, j) if not (type(x) is int and 0 <= x < 87))
    with pytest.raises(ValueError, match=rf"basis index {bad!r} outside range\(87\)"):
        tits_bracket(m, i, j)


def test_char5_steps_run_in_any_order():
    # each step builds what it needs: none relies on another having run
    for fn in (tits._phi1, tits._spin_rep, tits._phi0, build_so_MQ):
        fn.cache_clear()
    assert phi1_intertwine(F5)["pass"]
    assert phi0(F5)["verified"]
    with pytest.raises(ValueError):      # the cached arrays are read-only
        tits._phi0(F5)[0, 0] = 1


def test_cross_identification_pinned():
    r = cross_identify_with_typeB(F5)
    assert r["status"] == "isomorphism"
    assert r["verified"]
    assert set(r) == {"status", "verified", "matrix", "mu", "proportionality",
                      "equivariant_dim"}
    assert r["mu"] == 2
    assert r["proportionality"] == 4
    assert r["mu"] ** 2 % 5 == r["proportionality"]
    assert r["equivariant_dim"] == 1
    # pins the normalisation of S as well as the transported θ
    assert _hash_matrix(r["matrix"]) == (
        "705f4ffbc8c18122494ed8bf59f75ca24adc03d9ec29c1e10864e6a20d436a68")
    # and the whole result as sorted JSON, the odd block read off the
    # kernel lines of the strictly upper triangular operators included
    assert hashlib.sha256(json.dumps(r, sort_keys=True).encode()).hexdigest() == (
        "c7db0bbc0e4269851516062843fbb5e147be605f89e3ab9e908526feb1601e3c")
    again = cross_identify_with_typeB(F5)
    assert again == r



def test_verify_tits_draws_no_random_numbers(monkeypatch, tmp_path):
    # verify tits, type-b and type-d, every cache cleared, so nothing a
    # run needs was built before it
    made = []
    Random = random.Random

    def spy(*args):
        made.append(args)
        return Random(*args)

    monkeypatch.setattr(random, "Random", spy)
    for target in ("tits", "type-b", "type-d"):
        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "spinlab":
                for value in list(vars(module).values()):
                    if callable(getattr(value, "cache_clear", None)):
                        value.cache_clear()
        out = tmp_path / f"{target}.json"
        assert cli.main(["verify", target, "--out", str(out)]) == 0
        assert json.loads(out.read_text())["expectation_met"], target
    assert made == []
    # the spy sees a call of random.Random made through the module
    random.Random(20050)
    assert made == [(20050,)]


def _gram_w():
    space = ambient_space(5, "B")
    return np.array([[qpair(space, a, b) for b in range(11)]
                     for a in range(11)], dtype=np.int64) % 5


def test_hyperbolic_basis_is_a_monomial_isometry():
    gram = build_so_MQ(F5).gram
    tau = _hyperbolic_basis(gram, 5)
    # one nonzero entry in every row and every column
    assert ((tau != 0).sum(axis=0) == 1).all()
    assert ((tau != 0).sum(axis=1) == 1).all()
    assert np.array_equal(tau.T @ gram @ tau % 5, _gram_w())
    # u = a·h with a = 2, the smallest root of a²·Q(h,h) = a²·2 = −2
    assert tau[0, 0] == 2 and gram[0, 0] == 2


def test_hyperbolic_basis_refuses_other_shapes():
    gram = np.array(build_so_MQ(F5).gram)
    coupled = gram.copy()
    coupled[1, 2] = coupled[2, 1] = 1       # one off-diagonal pair added
    assert _hyperbolic_basis(coupled, 5) is None
    # Q(h,h) = 4 asks a² = −2/4 = 2, a non-square mod 5
    assert _hyperbolic_basis(2 * gram % 5, 5) is None


def test_cross_identification_refuses_a_failed_isometry(monkeypatch):
    # τᵀ·G·τ = G_W is checked, not taken on trust
    monkeypatch.setattr(tits, "_hyperbolic_basis",
                        lambda gram, p: np.eye(11, dtype=np.int64))
    with pytest.raises(IsometryNotFound):
        cross_identify_with_typeB(F5)
    monkeypatch.setattr(tits, "_hyperbolic_basis", lambda gram, p: None)
    with pytest.raises(IsometryNotFound):
        cross_identify_with_typeB(F5)


def test_cross_identification_refuses_a_non_square_proportionality(monkeypatch):
    monkeypatch.setattr(tits, "_odd_scale", lambda *args: 3)
    with pytest.raises(ScalingNotFound, match="3 is not a square"):
        cross_identify_with_typeB(F5)


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


def _of_nullity(rng, n, p, nullity):
    """A random n×n matrix over GF(p) whose kernel has dimension nullity."""
    while True:
        M = (rng.integers(0, p, size=(n, n - nullity), dtype=np.int64)
             @ rng.integers(0, p, size=(n - nullity, n), dtype=np.int64)) % p
        if rank_modp(M, p) == n - nullity:
            return M


def _low_b5():
    """B5 pair-basis indices of the lowering root vectors [u,f1] .. [u,f5]."""
    return [pair_basis(5, "B").labels.index(f"[u,f{i}]") for i in range(1, 6)]


def _jordan(*sizes):
    """The nilpotent Jordan matrix with blocks of the given sizes: ones on
    the superdiagonal inside each block, so strictly upper triangular, its
    kernel spanned by the first basis vector of each block."""
    J = np.eye(sum(sizes), k=1, dtype=np.int64)
    for end in np.cumsum(sizes)[:-1]:
        J[end - 1, end] = 0
    return J


def _irreducible_rep(rng, n, p, nullity=None, first=None, count=3):
    """count random n×n generators acting absolutely irreducibly (their
    Burnside span is all of End); generator 0 is first, or has kernel
    dimension nullity, when one is given."""
    while True:
        rep = [rng.integers(0, p, size=(n, n), dtype=np.int64)
               for _ in range(count)]
        if nullity is not None:
            rep[0] = _of_nullity(rng, n, p, nullity)
        if first is not None:
            rep[0] = first
        if burnside_irreducible(rep, n, GF(p)):
            return rep


@pytest.mark.parametrize("p", [5, 7])
@pytest.mark.parametrize("seed", range(4))
def test_odd_intertwiner_of_conjugate_reps(p, seed):
    # generator 0 of rep2 is a Jordan block, its one strictly upper
    # triangular operator, so the lowering kernel is one line
    rng = np.random.default_rng(100 * p + seed)
    n = 5
    rep2 = _irreducible_rep(rng, n, p, first=_jordan(n))
    assert _lowering(np.stack(rep2)).tolist() == [True, False, False]
    P, Pi = _random_invertible(rng, n, p)
    rep1 = [Pi @ r @ P % p for r in rep2]
    S = _odd_intertwiner(rep1, rep2, p)
    ref = _kronecker_intertwiners(rep1, rep2, p)
    assert ref.shape[0] == 1
    # S spans the same line as the reference and as P
    for line in (ref[0], P.reshape(-1)):
        k = int(np.nonzero(line)[0][0])
        lam = int(S.reshape(-1)[k]) * pow(int(line[k]), p - 2, p) % p
        assert lam and np.array_equal(S.reshape(-1), line * lam % p)


def test_odd_intertwiner_absent():
    # J·S = S·(2·1) with J nilpotent forces S = 0: J − 2 is invertible
    p, n = 5, 4
    rep1 = [2 * np.eye(n, dtype=np.int64)]
    rep2 = [_jordan(n)]
    assert _kronecker_intertwiners(rep1, rep2, p).shape[0] == 0
    with pytest.raises(VerificationFailed,
                       match="not one line: it has dimension 0 on rep1 and 1 on rep2"):
        _odd_intertwiner(rep1, rep2, p)


def test_odd_intertwiner_not_unique():
    # equal scalar reps: every S intertwines, a space of dim n²; the zero
    # operator is the strictly upper triangular one, its kernel everything
    p, n = 7, 3
    rep = [0 * np.eye(n, dtype=np.int64), 5 * np.eye(n, dtype=np.int64)]
    assert _kronecker_intertwiners(rep, rep, p).shape[0] == n * n
    with pytest.raises(VerificationFailed,
                       match="not one line: it has dimension 3 on rep1 and 3 on rep2"):
        _odd_intertwiner(rep, rep, p)


def assert_line_of(S, P, p):
    k = int(np.nonzero(P.reshape(-1))[0][0])
    lam = int(S.reshape(-1)[k]) * pow(int(P.reshape(-1)[k]), p - 2, p) % p
    assert lam and np.array_equal(S, P * lam % p)


def test_odd_intertwiner_of_the_conjugated_spin_rep():
    p = 5
    rep2 = _block(build_superalgebra(5, "B", F5), 0, 1, 1)       # n = 32
    P, Pi = _random_invertible(np.random.default_rng(32), 32, p)
    rep1 = np.stack([Pi @ r @ P % p for r in rep2])
    S = _odd_intertwiner(rep1, rep2, p)
    assert_line_of(S, P, p)
    last = S.reshape(-1)[np.flatnonzero(S)[-1]]
    assert last == 1


def test_lowering_kernel_of_b5_is_the_empty_monomial():
    # the strictly upper triangular operators of B5's spin action are 25
    # of the 55, [u,f1] .. [u,f5] among them, and they kill exactly
    # monomial 0, as the five [u,fi] alone do; without [u,f5] the kernel
    # is a plane, and the solve refuses that generator subset
    rep = _block(build_superalgebra(5, "B", F5), 0, 1, 1)
    low = _low_b5()
    lowering = _lowering(rep)
    assert lowering.sum() == 25 and lowering[low].all()
    kernel = nullspace_modp(rep[lowering].reshape(-1, 32), 5)
    assert kernel.tolist() == [[1] + [0] * 31]
    assert nullspace_modp(rep[low].reshape(-1, 32), 5).tolist() == kernel.tolist()
    assert nullspace_modp(rep[low[:4]].reshape(-1, 32), 5).shape[0] == 2
    with pytest.raises(VerificationFailed,
                       match="not one line: it has dimension 2 on rep1 and 2 on rep2"):
        _odd_intertwiner(rep[low[:4]], rep[low[:4]], 5)


# seeds 0-1: generator 0 of rep2 is a Jordan matrix of two blocks, so its
# kernel is a plane where that of rep1 is a line; seeds 5 and 7: one line
# on both, and the spin of the kernel pair is not a graph
@pytest.mark.parametrize("seed, match", [
    (0, "not one line: it has dimension 1 on rep1 and 2 on rep2"),
    (1, "not one line: it has dimension 1 on rep1 and 2 on rep2"),
    (5, "no odd intertwiner exists: the spin"),
    (7, "no odd intertwiner exists: the spin")])
def test_odd_intertwiner_of_non_isomorphic_reps(seed, match):
    p, n = 7, 5
    rng = np.random.default_rng(700 + seed)
    rep1 = _irreducible_rep(rng, n, p, nullity=1)
    rep2 = _irreducible_rep(rng, n, p, first=_jordan(2, 3) if seed <= 1 else _jordan(n))
    assert _kronecker_intertwiners(rep1, rep2, p).shape[0] == 0
    with pytest.raises(VerificationFailed, match=match):
        _odd_intertwiner(rep1, rep2, p)


def _direct_sum(reps_a, reps_b):
    n, m = reps_a[0].shape[0], reps_b[0].shape[0]
    out = []
    for a, b in zip(reps_a, reps_b):
        blk = np.zeros((n + m, n + m), dtype=np.int64)
        blk[:n, :n], blk[n:, n:] = a, b
        out.append(blk)
    return out


@pytest.mark.parametrize("sizes", [(3, 2), (3, 3), (4, 1)])
@pytest.mark.parametrize("seed", range(3))
def test_odd_intertwiner_refuses_a_reducible_rep(sizes, seed):
    # A ⊕ B has intertwiners with its conjugate, but not a single line of
    # them: the solve must refuse rather than answer with one S.  Generator
    # 0 is J_a ⊕ J_b, so each summand holds a line of the lowering kernel,
    # a plane.  Glued by generator 0 = J_{a+b}, which keeps A invariant,
    # the kernel is one line, and it spins only A
    p = 5
    rng = np.random.default_rng(500 + 10 * seed + sum(sizes))
    a = _irreducible_rep(rng, sizes[0], p, first=_jordan(sizes[0]))
    b = a if sizes[0] == sizes[1] else _irreducible_rep(rng, sizes[1], p,
                                                        first=_jordan(sizes[1]))
    n = sum(sizes)
    summed = _direct_sum(a, b)
    glued = [_jordan(n)] + summed[1:]
    P, Pi = _random_invertible(rng, n, p)
    rep1 = [Pi @ r @ P % p for r in summed]
    assert _kronecker_intertwiners(rep1, summed, p).shape[0] > 1
    with pytest.raises(VerificationFailed, match="dimension 2 on rep1 and 2 on rep2"):
        _odd_intertwiner(rep1, summed, p)
    rep1 = [Pi @ r @ P % p for r in glued]
    assert _kronecker_intertwiners(rep1, glued, p).shape[0] >= 1      # P's line
    with pytest.raises(VerificationFailed, match="rep1 is reducible: the kernel "
                       f"vector spins a {sizes[0]}-dimensional"):
        _odd_intertwiner(rep1, glued, p)


# ---------------------------------------------------------------------------
# structure blocks read from the COO table, against the dictionary route


def block_by_dictionary(A, first, second, target, p):
    """R[a, k, j] = coefficient of the k-th target-part basis element in
    [e_a, e_j], e_a in the first part and e_j in the second, read pair by
    pair through bracket_terms (the reference for _block)."""
    parts = (range(A.n0), range(A.n0, A.dim))
    out = np.zeros((len(parts[first]), len(parts[target]), len(parts[second])),
                   dtype=np.int64)
    for a, x in enumerate(parts[first]):
        for j, y in enumerate(parts[second]):
            for k, v in A.bracket_terms(x, y).items():
                if A.parity(k) == target:
                    out[a, k - parts[target].start, j] = int(v) % p
    return out


ORIENTATIONS = [(0, 1, 1), (0, 0, 0), (1, 1, 0), (1, 0, 1)]


@pytest.mark.parametrize("name,build,p", [
    ("T(octonion)/GF(5)", lambda: build_tits("octonion", F5), 5),
    ("B5/GF(5)", lambda: build_superalgebra(5, "B", F5), 5),
    ("D4/GF(7)", lambda: build_superalgebra(4, "D", GF(7)), 7),
])
def test_block_matches_the_dictionary_route(name, build, p):
    A = build()
    for first, second, target in ORIENTATIONS:
        got = _block(A, first, second, target)
        want = block_by_dictionary(A, first, second, target, p)
        assert got.dtype == np.int64
        assert np.array_equal(got, want), (name, first, second, target)
        assert got.any(), (name, first, second, target)
    # a target of the wrong parity holds nothing in a graded table
    assert not _block(A, 0, 1, 0).any()


def test_block_refuses_the_rationals():
    with pytest.raises(ValueError, match="GF"):
        _block(build_superalgebra(1, "B", QQ), 0, 1, 1)


def test_verify_isomorphism_agrees_with_first_bad_pair():
    # single-entry perturbations inside the parity blocks of the
    # isomorphism: the array route and the pair-by-pair dictionary route
    # agree on the verdict and on the first pair they name
    M = cross_identify_with_typeB(F5)["matrix"]
    T, B5 = build_tits("octonion", F5), build_superalgebra(5, "B", F5)
    assert verify_isomorphism(M, T, B5)
    assert _first_unpreserved_pair(np.array(M, dtype=np.int64), T, B5) is None
    rng = random.Random(2005)
    for _ in range(20):
        lo, hi = (0, 55) if rng.randrange(2) == 0 else (55, 87)
        r, c = rng.randrange(lo, hi), rng.randrange(lo, hi)
        N = [row[:] for row in M]
        N[r][c] = (N[r][c] + rng.randrange(1, 5)) % 5
        bad = first_bad_pair(N, T, B5)
        assert verify_isomorphism(N, T, B5) is (bad is None), (r, c, bad)
        pair = _first_unpreserved_pair(np.array(N, dtype=np.int64), T, B5)
        assert (pair and (T.labels[pair[0]], T.labels[pair[1]])) == bad, (r, c)


def test_verify_isomorphism_refuses_one_parity_violating_entry():
    M = np.array(cross_identify_with_typeB(F5)["matrix"], dtype=np.int64)
    T, B5 = build_tits("octonion", F5), build_superalgebra(5, "B", F5)
    assert verify_isomorphism(M, T, B5) and verify_isomorphism(M.tolist(), T, B5)
    for r, c in ((0, 55), (86, 54)):           # odd into even, even into odd
        N = M.copy()
        N[r, c] = 1
        assert verify_isomorphism(N, T, B5) is False
        assert verify_isomorphism(N.tolist(), T, B5) is False
    assert verify_isomorphism(M[:86, :86], T, B5) is False     # wrong shape
    # on an abelian (1 | 1) algebra every invertible matrix preserves the
    # bracket, so only the parity check can refuse the mixing entry
    for f in (F5, QQ):
        A = SuperAlgebra("abelian", f, 1, 1, ("e", "o"), {}, odd_symmetric=True)
        N = np.array([[1, 1], [0, 1]], dtype=np.int64)
        assert verify_isomorphism(np.eye(2, dtype=np.int64), A, A)
        assert verify_isomorphism(N, A, A) is False
        assert verify_isomorphism(N.tolist(), A, A) is False


def test_phi0_mismatch_names_the_pair(monkeypatch):
    good = phi0(F5)["matrix"]
    bad = [row[:] for row in good]
    for row in bad:                      # doubling one column keeps it invertible
        row[0] = row[0] * 2 % 5
    pair = first_bad_pair(bad, even_subalgebra(build_tits("octonion", F5)),
                          build_so_MQ(F5).algebra)
    assert pair is not None
    monkeypatch.setattr(tits, "_phi0_matrix",
                        lambda model, somq: np.array(bad, dtype=np.int64))
    with pytest.raises(VerificationFailed) as e:
        tits._phi0.__wrapped__(F5)       # the uncached build and check
    assert str(e.value) == f"phi0 bracket mismatch at pair {pair}"


def proportionality_by_dictionary(T, B5, theta, S, p):
    """The odd-odd proportionality pair by pair through bracket_vectors, on
    all 528 pairs (the reference for _odd_scale): the c with θ([x, y]) =
    c·[Sx, Sy] for all odd x, y, or a ScalingNotFound message."""
    def even_part(A, x, y):
        return np.array(A.bracket_vectors([0] * 55 + x.tolist(),
                                          [0] * 55 + y.tolist())[:55],
                        dtype=np.int64) % p

    eye = np.eye(32, dtype=np.int64)
    c_val = None
    for i in range(32):
        for j in range(i, 32):
            lhs = theta @ even_part(T, eye[i], eye[j]) % p
            rhs = even_part(B5, S[:, i], S[:, j])
            if (not lhs.any()) != (not rhs.any()):
                raise ScalingNotFound(f"odd bracket support differs at ({i},{j})")
            if not lhs.any():
                continue
            k = int(np.nonzero(rhs)[0][0])
            r = int(lhs[k]) * pow(int(rhs[k]), p - 2, p) % p
            if not np.array_equal(lhs, rhs * r % p):
                raise ScalingNotFound(f"odd brackets not proportional at ({i},{j})")
            if c_val is None:
                c_val = r
            elif c_val != r:
                raise ScalingNotFound(f"inconsistent proportionality {c_val} vs {r}")
    return c_val


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ScalingNotFound as exc:
        return str(exc)


def _verified_blocks():
    """θ and μS of the verified isomorphism, with T and B5."""
    M = np.array(cross_identify_with_typeB(F5)["matrix"], dtype=np.int64)
    T, B5 = build_tits("octonion", F5), build_superalgebra(5, "B", F5)
    return M[:55, :55], M[55:, 55:], T, B5


def test_odd_proportionality_matches_the_dictionary_route():
    # c read at one pair is the all-pairs value on the verified map and its
    # rescalings: 1 on (θ, μS), a/λ² on (a·θ, λ·μS), so 4 on S = 3·μS, the
    # c of the report; a = 2 gives the non-squares 2 and 3
    theta, S, T, B5 = _verified_blocks()
    scalings = [(a, lam) for a in (1, 2) for lam in range(1, 5)]
    got = [_odd_scale(T, B5, a * theta % 5, lam * S % 5, 5) for a, lam in scalings]
    assert got == [proportionality_by_dictionary(T, B5, a * theta % 5, lam * S % 5, 5)
                   for a, lam in scalings]
    assert got == [1, 4, 4, 1, 2, 3, 3, 2]
    assert cross_identify_with_typeB(F5)["proportionality"] == got[2]


def _feed(monkeypatch, theta, S):
    """Make cross_identify_with_typeB read θ and S: Φ₀ is tampered so that
    its transport through τ is θ, and _odd_intertwiner returns S."""
    good, phi0 = _verified_blocks()[0], tits._phi0(F5)
    tampered = matmul_modp(matmul_modp(phi0, inv_modp(good, 5), 5), theta, 5)
    monkeypatch.setattr(tits, "_phi0", lambda field: tampered)
    monkeypatch.setattr(tits, "_odd_intertwiner", lambda *args: S)


def _mismatch_message(theta, S, T, B5):
    """The refusal of the map θ ⊕ S, naming the reference's first pair it
    does not preserve, and that pair."""
    iso = np.zeros((87, 87), dtype=np.int64)
    iso[:55, :55], iso[55:, 55:] = theta, S
    i, j = first_unpreserved_pair_by_columns(iso, T, B5)
    return ("assembled isomorphism fails verification: bracket mismatch at pair "
            f"{(T.labels[i], T.labels[j])}"), (i, j)


def _tampered_for_each_refusal(theta, S):
    """(theta, S, error) for the three refusals of the all-pairs pass, each
    now refused by cross_identify_with_typeB: at the one pair c is read
    (ScalingNotFound) or by the check of the assembled map, which names the
    first pair it does not preserve (VerificationFailed)."""
    cut = S.copy()
    cut[:, 0] = 0                     # [S o_0, S o_j] = 0, θ([o_0, o_j]) is not
    off = theta.copy()
    off[0, 1] = (off[0, 1] + 1) % 5   # θ moves one coordinate out of line
    scaled = S.copy()
    scaled[:, 0] = scaled[:, 0] * 2 % 5   # the pairs of o_0 get another ratio
    return [(theta, cut, ScalingNotFound),
            (off, S, VerificationFailed),
            (theta, scaled, VerificationFailed)]


@pytest.mark.parametrize("case", range(3))
def test_odd_proportionality_refusals(case, monkeypatch):
    theta, S, T, B5 = _verified_blocks()
    th, s, error = _tampered_for_each_refusal(theta, S)[case]
    assert isinstance(_outcome(proportionality_by_dictionary, T, B5, th, s, 5), str)
    _feed(monkeypatch, th, s)
    with pytest.raises((ScalingNotFound, VerificationFailed)) as caught:
        cross_identify_with_typeB(F5)
    assert type(caught.value) is error
    if error is ScalingNotFound:
        assert str(caught.value) == "the odd bracket [S o_0, S o_0] vanishes"
        return
    mu = tits._sqrt_modp(_odd_scale(T, B5, th, s, 5), 5)
    assert str(caught.value) == _mismatch_message(th, mu * s % 5, T, B5)[0]


def test_odd_proportionality_of_vanishing_brackets(monkeypatch):
    theta, _, T, B5 = _verified_blocks()
    _feed(monkeypatch, theta, np.zeros((32, 32), dtype=np.int64))
    with pytest.raises(ScalingNotFound, match=r"the odd bracket \[S o_0, S o_0\] vanishes"):
        cross_identify_with_typeB(F5)


def test_a_wrong_square_scale_is_caught_at_an_odd_pair(monkeypatch):
    # μ = 1 where c = 4 keeps S an intertwiner, so every even-even and
    # even-odd pair is preserved: only the check of the assembled map on
    # the odd pairs, which the one-pair read leaves to it, refuses it
    theta, S, T, B5 = _verified_blocks()
    monkeypatch.setattr(tits, "_odd_scale", lambda *args: 1)
    with pytest.raises(VerificationFailed) as caught:
        cross_identify_with_typeB(F5)
    message, (i, j) = _mismatch_message(theta, 3 * S % 5, T, B5)   # S = μ⁻¹·μS
    assert str(caught.value) == message
    assert min(i, j) >= T.n0

