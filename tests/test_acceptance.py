"""End-to-end acceptance checks.

One test per headline property.  `pytest -v tests/test_acceptance.py`
prints a pass/fail line for each.  Everything is exact arithmetic:
assertions are equalities, never tolerances.
"""
import hashlib
import time
from fractions import Fraction

import numpy as np

from envelope_reference import EnvelopeElement, ch3
from helpers import (closed_form_cases, j_associators, j_product,
                     rep_and_adjoint)
from spinor_reference import model
from spinlab import kac
from spinlab.cli import main
from spinlab.composition import (_czero_maps, _int_tables, check_lemma_C,
                                 derivation_algebra, make_composition)
from spinlab.construct import (bracket_is_symmetric, build_superalgebra,
                               classify, decompose_type_d_l2, module_masks)
from spinlab.exterior import (b_is_symmetric, bhat_is_symmetric,
                              complement_form_signs)
from spinlab.fields import GF, QQ, make_field
from spinlab.kac import J_DIM, J_PARITY, ODD_INDICES, _inder_basis, _j_tensor, ch3_scan
from spinlab.linalg import _red, exact_array, rank_modp
from spinlab.superalgebra import (check_jacobi, equivariant_map_dim, j_triple,
                                  simplicity_certificate)
from spinlab.tits import (TITS_DIMS, build_tits, cross_identify_with_typeB,
                          phi0, phi1_intertwine, spin_map_psi,
                          unit_ideal_split)

CHARS = (0, 3, 5, 7)


def test_type_b_jacobi_grid():
    expect = {(1, c) for c in CHARS} | {(2, c) for c in CHARS} | {(3, 3)} \
        | {(4, c) for c in CHARS} | {(5, 5)} | {(6, 3)}
    t0 = time.monotonic()
    for l in range(1, 9):
        for ch in CHARS:
            r = classify(l, "B", make_field(ch))
            assert r.jacobi_pass == ((l, ch) in expect), (l, ch)
            assert r.mode == "full"
    assert time.monotonic() - t0 < 120


def test_pinned_rational_jacobi_values():
    A6 = build_superalgebra(6, "B", QQ)
    one6 = A6.n0 + 0
    assert j_triple(A6, one6, A6.n0 + 63, one6) == {one6: Fraction(3)}
    A5 = build_superalgebra(5, "B", QQ)
    assert j_triple(A5, A5.n0, A5.n0 + 31, A5.n0) == {A5.n0: Fraction(5, 2)}
    A3 = build_superalgebra(3, "B", QQ)
    iv1 = A3.n0 + 1
    assert j_triple(A3, A3.n0, A3.n0 + 7, iv1) == {iv1: Fraction(3, 4)}
    for l, r in ((7, 3), (8, 3), (8, 4)):
        A = build_superalgebra(l, "B", QQ)
        m = list(module_masks(l, "B"))
        ir = A.n0 + m.index((1 << r) - 1)
        got = j_triple(A, A.n0, A.n0 + m.index((1 << l) - 1), ir)
        want = Fraction(l - 2 * r, 4)
        assert got == ({ir: want} if want else {}), (l, r)


def test_closed_form_brackets():
    # the paper's closed forms, read off the built algebra by label
    for l in (3, 4, 5, 6):
        for ch in (0, 3, 5):
            for got, want in closed_form_cases(l, make_field(ch)):
                assert got == want, (l, ch)


def test_type_d_jacobi_grid():
    expect = {(2, c) for c in CHARS} | {(4, c) for c in CHARS} | {(6, 3)} \
        | {(8, c) for c in CHARS}
    for l in (2, 4, 6, 8):
        for ch in CHARS:
            r = classify(l, "D", make_field(ch))
            assert r.jacobi_pass == ((l, ch) in expect), (l, ch)
    for ch in CHARS:
        assert not classify(10, "D", make_field(ch)).jacobi_pass, ch
    for ch in CHARS:
        one, two = decompose_type_d_l2(make_field(ch))
        assert (len(one), len(two)) == (5, 3), ch


def test_dimension_ledger():
    want_b = {1: (3, 2), 2: (10, 4), 3: (21, 8), 4: (36, 16),
              5: (55, 32), 6: (78, 64)}
    for l, dims in want_b.items():
        A = build_superalgebra(l, "B", QQ)
        assert (A.n0, A.n1) == dims, ("B", l)
    want_d = {2: (6, 2), 4: (28, 8), 6: (66, 32), 8: (120, 128)}
    for l, dims in want_d.items():
        A = build_superalgebra(l, "D", QQ)
        assert (A.n0, A.n1) == dims, ("D", l)


def _form_symmetry(l, hat, kind):
    """Whether the pairing form the builders read, F[m, ~m] =
    complement_form_signs, is symmetric (else skew), and the same for the
    gamma-matrix model's form C of the kind."""
    got = complement_form_signs(l, hat)
    top = (1 << l) - 1
    flipped = got[[top ^ m for m in range(1 << l)]]
    sym, skew = (flipped == got).all(), (flipped == -got).all()
    assert sym != skew, l          # the forms are never identically zero
    assert model(l, kind).symmetric == sym, (l, kind)
    return sym


def _table_symmetry(A, trials=25):
    import random
    rng = random.Random(5)
    f = A.field
    sym = True
    for _ in range(trials):
        i = A.n0 + rng.randrange(A.n1)
        j = A.n0 + rng.randrange(A.n1)
        ij, ji = A.bracket_terms(i, j), A.bracket_terms(j, i)
        if ij != ji:
            sym = False
            assert ij == {k: f.neg(v) for k, v in ji.items()}, (i, j)
    return sym


def test_symmetry_parities():
    for l in range(1, 9):
        b_sym = _form_symmetry(l, False, "B")
        bh_sym = _form_symmetry(l, True, "D")
        assert b_sym == b_is_symmetric(l) == (l % 4 in (0, 3)), l
        assert bh_sym == bhat_is_symmetric(l) == (l % 4 in (0, 1)), l
        # odd-odd bracket carries the opposite parity of its pairing form
        assert bracket_is_symmetric(l, "B") == (not b_sym), l
        if l % 2 == 0:
            assert bracket_is_symmetric(l, "D") == (not bh_sym), l
    for l, kind in ((3, "B"), (4, "B"), (2, "D"), (4, "D")):
        A = build_superalgebra(l, kind, QQ)
        got_sym = _table_symmetry(A)
        assert got_sym == bracket_is_symmetric(l, kind), (l, kind)
        assert A.odd_symmetric == got_sym


def test_equivariant_map_dimensions():
    for l in (1, 2, 3):
        for f in (QQ, GF(3), GF(5)):
            rep, adj = rep_and_adjoint(l, "B", f)
            assert equivariant_map_dim(rep, adj, field=f) == 1, (l, f.p)
    rep, adj = rep_and_adjoint(3, "D", QQ, parity=0)
    assert equivariant_map_dim(rep, adj, field=QQ) == 0
    for l in (2, 4):
        rep, adj = rep_and_adjoint(l, "D", QQ, parity=0)
        assert equivariant_map_dim(rep, adj, field=QQ) == 1, l


def test_simplicity_certificates():
    status, _ = simplicity_certificate(build_superalgebra(3, "B", GF(3)))
    assert status == "certified"
    status, _ = simplicity_certificate(build_superalgebra(5, "B", GF(5)))
    assert status == "certified"
    for kind in ("B", "D"):
        status, why = simplicity_certificate(build_superalgebra(6, kind, GF(3)))
        assert status == "certified", (kind, why)


def test_octonion_structure_suite():
    # Lemma C, and on the integer tables of C: n(b_x b_y) = n(b_x) n(b_y),
    # (x, x, y) = (x, y, y) = 0 on all basis pairs, ab + ba = -n(a, b) 1
    # on the C0 basis, and the derivation algebras of C and of Mat2
    tables = _int_tables("octonion")
    mult, gram, unit = (a.astype(object) for a in tables[:3])
    czero = _czero_maps(8)[1].astype(object)
    q = np.diag(gram)                                       # 2 n(b_x)
    comp = 2 * np.einsum("xyk,kl,xyl->xy", mult, gram, mult) - np.outer(q, q)
    assoc = (np.einsum("xyw,wzk->xyzk", mult, mult)
             - np.einsum("yzw,xwk->xyzk", mult, mult))
    anti = (np.einsum("ax,by,xyk->abk", czero, czero, mult + mult.transpose(1, 0, 2))
            + np.einsum("ab,k->abk", czero @ gram @ czero.T, unit))
    for ch in (0, 5, 7):
        f = make_field(ch)
        C = make_composition("octonion", f)
        rep = check_lemma_C(C)
        assert rep["pass"], (ch, rep)
        assert (rep["so_dim"], rep["der_dim"], rep["ad_dim"]) == (21, 14, 7)
        for identity in (comp, np.einsum("xxyk->xyk", assoc),
                         np.einsum("xyyk->xyk", assoc), anti):
            assert not _red(identity, ch).any(), ch
        assert len(derivation_algebra(C)) == 14
        assert len(derivation_algebra(make_composition("quaternion", f))) == 3


def test_kac_superalgebra_axioms():
    for p in (0, 5):
        fld = make_field(p)
        T = _j_tensor(p)
        eye = np.eye(J_DIM, dtype=np.int64)
        assert (T[0] == eye).all() and (T[:, 0] == eye).all()
        assert T[0, 0, 0] == fld.of_int(1) and 0 not in ODD_INDICES
        for i in range(J_DIM):
            for j in range(J_DIM):
                sign = -1 if J_PARITY[i] and J_PARITY[j] else 1
                assert (T[i, j] == _red(sign * T[j, i], p)).all(), (i, j)
        assoc = j_associators(p)
        assert not assoc[..., 0].any()
        assert rank_modp(assoc.reshape(-1, J_DIM), p) == 9
        ff = exact_array([Fraction(-1, 2)] + [2] + [0] * 8, p)   # -1/2 + 2 e(x)e
        assert j_product(p, ff, ff).tolist() == ff.tolist()
        assert ff[0] == fld.raw(Fraction(-1, 2))
        basis, n_even = _inder_basis(p)
        assert (n_even, len(basis) - n_even) == (6, 4)


def test_degree_three_identity_gate(monkeypatch):
    r5 = ch3_scan(GF(5))
    assert r5["verdict"] == "pass" and r5["checked"] == 220
    rq = ch3_scan(QQ)
    assert rq["verdict"] == "witness" and rq["checked"] == 56
    assert rq["witness"]["x"] == [[3, 1, "1"], [12, 1, "1"], [48, 1, "1"]]
    assert rq["witness"]["value"] == [[63, 1, "105/16"]]
    r7 = ch3_scan(GF(7))
    assert r7["verdict"] == "witness" and r7["checked"] == 60
    assert r7["witness"]["value"] == [[63, 5, "4"]]
    # a pinned element on 4 generators where ch3 does not vanish, evaluated
    # in the reference envelope
    old_x = {(1, 2): 1, (2, 2): 1, (4, 3): 1, (8, 4): 1}
    assert ch3(EnvelopeElement(4, QQ, old_x)).support() == \
        [[13, 4, "-15/8"], [14, 4, "-15/8"]]
    assert ch3(EnvelopeElement(4, GF(7), old_x)).support() == \
        [[13, 4, "6"], [14, 4, "6"]]
    # vanishing polarizations prove nothing where 3! = 0: not "pass"
    monkeypatch.setattr(kac, "ch3", lambda: (np.zeros((220, J_DIM), dtype=np.int64), 512))
    empty = ch3_scan(GF(3))
    assert empty["verdict"] == "inconclusive" and empty["witness"] is None


def test_tits_construction_suite():
    t0 = time.monotonic()
    f = GF(5)
    for kind, dims in TITS_DIMS.items():
        A = build_tits(kind, f)
        assert (A.n0, A.n1) == dims
        assert check_jacobi(A, mode="full").jacobi_pass, kind
    split = unit_ideal_split(f)
    assert split["pass"] and split["dims"] == (5, 5)
    assert phi0(f)["verified"]
    assert spin_map_psi(f)["verified"]
    inter = phi1_intertwine(f)
    assert inter["pass"] and inter["checked"] == 1760
    cross = cross_identify_with_typeB(f)
    assert cross["status"] == "isomorphism" and cross["verified"]
    assert time.monotonic() - t0 < 300


def test_deterministic_output_and_reduction(tmp_path):
    for argv in (["verify", "type-b", "--l", "1..3", "--chars", "0,3,5,7"],
                 ["verify", "tits"]):
        blobs = []
        for name in ("one.json", "two.json"):
            out = tmp_path / name
            assert main(argv + ["--out", str(out)]) == 0
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1], argv
    # the default tits report, byte for byte
    assert hashlib.sha256(blobs[0]).hexdigest() == (
        "7e3227f44538441dc5be7b6ff103733718c1e22b927d08f1ce820fdfb9777102")
    # rational structure constants reduce mod p to the native GF(p) ones
    for kind, ls in (("B", (1, 2, 3, 4, 5, 6)), ("D", (2, 4, 6))):
        for l in ls:
            Aq = build_superalgebra(l, kind, QQ)
            for p in (3, 5, 7):
                f = GF(p)
                Ap = build_superalgebra(l, kind, f)
                reduced = {}
                for key, cell in Aq.table.items():
                    entry = {k: f.raw(v) for k, v in cell.items()}
                    entry = {k: v for k, v in entry.items()
                             if v != 0}
                    if entry:
                        reduced[key] = entry
                assert reduced == Ap.table, (kind, l, p)
