"""End-to-end acceptance checks.

One test per headline property.  `pytest -v tests/test_acceptance.py`
prints a pass/fail line for each.  Everything is exact arithmetic:
assertions are equalities, never tolerances.
"""
import hashlib
import itertools
import json
import time
from fractions import Fraction

import pytest

from helpers import rep_and_adjoint
from spinlab import kac
from spinlab.cli import main
from spinlab.clifford import SoElement, pair_basis, so_dim
from spinlab.composition import (check_lemma_C, derivation_algebra,
                                 make_composition)
from spinlab.construct import (bracket_is_symmetric, build_superalgebra,
                               classify, decompose_type_d_l2, module_masks,
                               spin_bracket)
from spinlab.exterior import (Multivector, b_is_symmetric, bhat_is_symmetric,
                              form_b, form_bhat)
from spinlab.fields import GF, QQ, make_field
from spinlab.kac import (J_DIM, J_PARITY, ODD_INDICES, EnvelopeElement,
                         KacElement, ch3, ch3_scan, idempotent_f, inder_j_span,
                         normalized_trace)
from spinlab.linalg import RowSpace
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
            assert r.mode == ("full" if 2 ** l <= 128 else "generators")
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
    for l in (3, 4, 5, 6):
        for ch in (0, 3, 5):
            f = make_field(ch)
            ctx = (l, "B", f)
            pb = pair_basis(l, "B")

            def so_vec(*terms):
                v = [f.zero()] * so_dim(l, "B")
                for c, lab in terms:
                    v[list(pb.labels).index(lab)] = f.raw(c)
                return SoElement(l, "B", f, v)

            one = Multivector.one(l, f)
            top = Multivector.top(l, f)
            sign = (-1) ** ((l + 1) * l // 2)
            cases = [
                (spin_bracket(one, top, ctx),
                 so_vec(*[(Fraction(-1, 4), f"[v{i+1},f{i+1}]")
                          for i in range(l)])),
                (spin_bracket(one, Multivector.monomial(l, f, range(1, l)),
                              ctx),
                 so_vec((Fraction((-1) ** l, 4), f"[u,f{l}]"))),
                (spin_bracket(one,
                              Multivector.monomial(l, f, range(1, l - 1)),
                              ctx),
                 so_vec((Fraction(1, 2), f"[f{l-1},f{l}]"))),
                (spin_bracket(top, Multivector.monomial(l, f, [1]), ctx),
                 so_vec((Fraction(-sign, 4), "[u,v1]"))),
                (spin_bracket(top, Multivector.monomial(l, f, [1, 2]), ctx),
                 so_vec((Fraction(-sign, 2), "[v1,v2]"))),
            ]
            for got, want in cases:
                assert got == want, (l, ch)
            for r in range(l - 2):
                assert spin_bracket(
                    one, Multivector.monomial(l, f, range(1, r + 1)),
                    ctx).is_zero(), (l, ch, r)


def test_type_d_jacobi_grid():
    expect = {(2, c) for c in CHARS} | {(4, c) for c in CHARS} | {(6, 3)} \
        | {(8, c) for c in CHARS}
    for l in (2, 4, 6, 8):
        for ch in CHARS:
            r = classify(l, "D", make_field(ch))
            assert r.jacobi_pass == ((l, ch) in expect), (l, ch)
    for ch in CHARS:
        assert not classify(10, "D", make_field(ch),
                            mode="generators").jacobi_pass, ch
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


def _scan_form_symmetry(l, form):
    f = QQ
    sym = skew = True
    for a in range(1 << l):
        for b in range(1 << l):
            ab = form(Multivector.from_mask(l, f, a),
                      Multivector.from_mask(l, f, b))
            ba = form(Multivector.from_mask(l, f, b),
                      Multivector.from_mask(l, f, a))
            sym = sym and ab == ba
            skew = skew and ab == f.neg(ba)
    assert sym != skew, l          # the forms are never identically zero
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
        b_sym = _scan_form_symmetry(l, form_b)
        bh_sym = _scan_form_symmetry(l, form_bhat)
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
    for ch in (0, 5, 7):
        f = make_field(ch)
        C = make_composition("octonion", f)
        rep = check_lemma_C(C)
        assert rep["pass"], (ch, rep)
        assert (rep["so_dim"], rep["der_dim"], rep["ad_dim"]) == (21, 14, 7)
        basis = []
        for i in range(8):
            e = C.zero()
            e[i] = f.one()
            basis.append(e)
        for x, y in itertools.product(basis, repeat=2):
            assert C.norm(C.multiply(x, y)) == f.mul(C.norm(x), C.norm(y))
            assert all(f.is_zero(c) for c in C.associator(x, x, y))
            assert all(f.is_zero(c) for c in C.associator(x, y, y))
        for a, b in itertools.product(C.czero_basis(), repeat=2):
            lhs = [f.add(p, q) for p, q in
                   zip(C.multiply(a, b), C.multiply(b, a))]
            want = [f.neg(f.mul(C.norm_polar(a, b), u)) for u in C.unit]
            assert lhs == want
        assert len(derivation_algebra(C)) == 14
        assert len(derivation_algebra(make_composition("quaternion", f))) == 3


def test_kac_superalgebra_axioms():
    for f in (QQ, GF(5)):
        one = KacElement.unit(f)
        for i in range(J_DIM):
            bi = KacElement.basis(f, i)
            assert one * bi == bi and bi * one == bi
            if i in ODD_INDICES:
                assert f.is_zero(normalized_trace(bi))
        assert normalized_trace(one) == f.one()
        span = RowSpace(f, J_DIM)
        for i in range(J_DIM):
            bi = KacElement.basis(f, i)
            for j in range(J_DIM):
                bj = KacElement.basis(f, j)
                if J_PARITY[i] and J_PARITY[j]:
                    assert bi * bj == -(bj * bi), (i, j)
                else:
                    assert bi * bj == bj * bi, (i, j)
                for k in range(J_DIM):
                    bk = KacElement.basis(f, k)
                    assoc = (bi * bj) * bk - bi * (bj * bk)
                    assert f.is_zero(assoc.coords[0]), (i, j, k)
                    if not assoc.is_zero():
                        span.insert([assoc.coords])
        assert span.dim == 9
        ff = idempotent_f(f)
        assert ff * ff == ff
        assert normalized_trace(ff) == f.raw(Fraction(-1, 2))
        ev, od = inder_j_span(f)
        assert (len(ev), len(od)) == (6, 4)


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
    # a pinned element on 4 generators where ch3 does not vanish
    old_x = {(1, 2): 1, (2, 2): 1, (4, 3): 1, (8, 4): 1}
    assert ch3(EnvelopeElement(4, QQ, old_x)).support() == \
        [[13, 4, "-15/8"], [14, 4, "-15/8"]]
    assert ch3(EnvelopeElement(4, GF(7), old_x)).support() == \
        [[13, 4, "6"], [14, 4, "6"]]
    # vanishing polarizations prove nothing where 3! = 0: not "pass"
    monkeypatch.setattr(kac, "ch3", lambda x: EnvelopeElement.zero(x.m, x.field))
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
    cross = cross_identify_with_typeB(f, seed=0)
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
        "146467c5225c4f9e86ede7ff0cc210e79ff89c13b2bb90296e78ef1091614be2")
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
                             if not f.is_zero(v)}
                    if entry:
                        reduced[key] = entry
                assert reduced == Ap.table, (kind, l, p)
