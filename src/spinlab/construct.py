"""Builders for the Z2-graded algebras g = so(q) (+) S.

Kind B puts the full exterior algebra on l generators in the odd slot
(spin module of so_{2l+1}); kind D keeps the even-degree half (half-spin
module of so_{2l}).  The odd-odd product [s,t] is the unique so element
X with

    (1/2) tr(natural(B_a) natural(X)) = b(rho(B_a) s, t)   for all a,

with b the pairing form of the kind (bhat for D).  Because the trace
form is monomial on the pair basis -- row a touches only the mate pair
perm[a] -- the defining system splits into one-step solves

    X[perm[a]] = b(rho(B_a) s, t) / coef[a],

which is how the full table is filled: one pass over (a, s), each hit
landing on the single t complementary to rho's target mask.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .clifford import (gram_pairing, half_spin_masks, pair_basis, rho_tables,
                       so_bracket_table, so_dim)
from .exterior import (Multivector, b_is_symmetric, bhat_is_symmetric,
                       complement, form_sign, monomial_label)
from .fields import Field, FieldMismatch
from .superalgebra import (SuperAlgebra, VerificationFailed, VerificationReport,
                           check_jacobi)
from . import superalgebra as _super


class OddHalfSpinUnsupported(ValueError):
    """Kind D with odd l: the pairing form vanishes identically on the
    half-spin module, so the odd bracket is not defined."""


def module_masks(l: int, kind: str) -> tuple:
    """Monomial masks spanning the odd part, in increasing order."""
    if kind == "B":
        return tuple(range(1 << l))
    if kind == "D":
        return half_spin_masks(l, 0)
    raise ValueError(f"unknown kind {kind!r}")


def bracket_is_symmetric(l: int, kind: str) -> bool:
    """Whether the odd-odd product is symmetric (a Lie superalgebra
    candidate) rather than skew (a plain Z2-graded Lie algebra).  The
    product inherits the opposite symmetry of the pairing form."""
    if kind == "B":
        return not b_is_symmetric(l)
    if kind == "D":
        return not bhat_is_symmetric(l)
    raise ValueError(f"unknown kind {kind!r}")


def _check_kind(l: int, kind: str):
    if kind == "B":
        if l < 1:
            raise ValueError("kind B needs l >= 1")
    elif kind == "D":
        if l < 2:
            raise ValueError("kind D needs l >= 2")
        if l % 2:
            raise OddHalfSpinUnsupported(
                f"the pairing form vanishes on the half-spin module for odd l={l}")
    else:
        raise ValueError(f"unknown kind {kind!r}")


@lru_cache(maxsize=8)
def _ss_integer_table(l: int, kind: str) -> dict:
    """Odd-odd structure constants as exact integer pairs.

    Returns {(si, ti): {pair_k: (num, den)}} over module-basis indices,
    all ordered pairs, with X = sum (num/den) B_k the product of the
    si-th and ti-th monomials.
    """
    masks = module_masks(l, kind)
    midx = {m: i for i, m in enumerate(masks)}
    top = (1 << l) - 1
    hat = kind == "D"
    tgt, cof = rho_tables(l, kind)
    perm, coef = gram_pairing(l, kind)
    out: dict = {}
    for a in range(tgt.shape[0]):
        pa, ca = int(perm[a]), int(coef[a])
        trow, crow = tgt[a], cof[a]
        for s in masks:
            c = int(crow[s])
            if not c:
                continue
            m2 = int(trow[s])
            t = complement(m2, l)
            if t not in midx:
                continue
            fs = form_sign(m2, t, top, hat)
            key = (midx[s], midx[t])
            out.setdefault(key, {})[pa] = (c * fs, ca)
    return out


def spin_bracket(s: Multivector, t: Multivector, ctx):
    """Odd-odd product of two module elements, as an SoElement.

    ctx is (l, kind, field).  Bilinear extension of the monomial table;
    kind D requires even l and even-degree inputs.
    """
    from .clifford import SoElement

    l, kind, field = ctx
    _check_kind(l, kind)
    if s.l != l or t.l != l:
        raise ValueError("multivector size does not match ctx")
    if s.field != field or t.field != field:
        raise FieldMismatch("multivector field does not match ctx")
    masks = module_masks(l, kind)
    midx = {m: i for i, m in enumerate(masks)}
    for m in (*s.support(), *t.support()):
        if m not in midx:
            raise ValueError(f"monomial {monomial_label(m)} is not in the module")
    ints = _ss_integer_table(l, kind)
    f = field
    coords = [f.zero()] * so_dim(l, kind)
    for ms, cs in s.coeffs.items():
        for mt, ct in t.coeffs.items():
            cell = ints.get((midx[ms], midx[mt]))
            if not cell:
                continue
            w = f.mul(cs, ct)
            for k, (num, den) in cell.items():
                coords[k] = f.add(coords[k], f.mul(w, f.raw(Fraction(num, den))))
    return SoElement(l, kind, f, coords)


def _field_ss_table(l: int, kind: str, field: Field) -> dict:
    """Integer table pushed into the field; over GF(p) the reduction of the
    rational values is recomputed natively mod p and must agree
    (VerificationFailed otherwise)."""
    f = field
    ints = _ss_integer_table(l, kind)
    out = {}
    for key, cell in ints.items():
        d = {}
        for k, (num, den) in cell.items():
            v = f.raw(Fraction(num, den))
            if f.p:
                native = num % f.p * pow(den % f.p, f.p - 2, f.p) % f.p
                if v != native:
                    raise VerificationFailed(
                        f"reduction of {num}/{den} mod {f.p} at {key}, {k}: "
                        f"{v} != native {native}")
            if not f.is_zero(v):
                d[k] = v
        if d:
            out[key] = d
    return out


def build_superalgebra(l: int, kind: str, field: Field, check: bool = True,
                       name: str = None) -> SuperAlgebra:
    """Assemble g = so (+) S with all structure constants over the field.

    Basis order: so pair basis first (even part), then the module
    monomials by increasing mask (odd part).  The computed odd-odd table
    must have the symmetry the kind and l dictate (VerificationFailed
    otherwise) before it is folded into the stored i <= j convention.
    """
    _check_kind(l, kind)
    f = field
    pb = pair_basis(l, kind)
    masks = module_masks(l, kind)
    n0 = len(pb.pairs)
    n1 = len(masks)
    sym = bracket_is_symmetric(l, kind)
    labels = list(pb.labels) + [monomial_label(m) for m in masks]
    bracket = {}
    for (k1, k2), terms in so_bracket_table(l, kind).items():
        d = {k3: f.of_int(c) for k3, c in terms}
        d = {k3: v for k3, v in d.items() if not f.is_zero(v)}
        if d:
            bracket[(k1, k2)] = d
    tgt, cof = rho_tables(l, kind)
    midx = {m: i for i, m in enumerate(masks)}
    for a in range(n0):
        trow, crow = tgt[a], cof[a]
        for m in masks:
            c = int(crow[m])
            if not c:
                continue
            v = f.of_int(c)
            if not f.is_zero(v):
                bracket[(a, n0 + midx[m])] = {
                    **bracket.get((a, n0 + midx[m]), {}),
                    n0 + midx[int(trow[m])]: v}
    ss = _field_ss_table(l, kind, f)
    for (si, ti), cell in ss.items():
        mate = ss.get((ti, si), {})
        for k, v in cell.items():
            other = mate.get(k, f.zero())
            want = v if sym else f.neg(v)
            if other != want:
                raise VerificationFailed(
                    f"odd product symmetry fails for kind {kind}, l={l} "
                    f"at ({si}, {ti}), component {k}")
        if si <= ti:
            bracket[(n0 + si, n0 + ti)] = dict(cell)
    if name is None:
        name = f"type{kind}_l{l}"
    return SuperAlgebra(name, f, n0, n1, labels, bracket,
                        odd_symmetric=sym, check=check)


def generator_triples(l: int, kind: str, A: SuperAlgebra) -> list:
    """The reduced Jacobi test set: (1, v1...vl, v1...vr) for 0 <= r <= l
    (even r only in kind D), as basis index triples."""
    masks = module_masks(l, kind)
    midx = {m: i for i, m in enumerate(masks)}
    n0 = A.n0
    top = (1 << l) - 1
    out = []
    for r in range(l + 1):
        m = (1 << r) - 1
        if m in midx:
            out.append((n0 + midx[0], n0 + midx[top], n0 + midx[m]))
    return out


IDENTIFICATIONS = {
    ("B", 1): "osp(1,2)",
    ("B", 2): "osp(1,4)",
    ("B", 3): "the 29-dimensional simple Lie algebra found by Brown (char 3)",
    ("B", 4): "F4 as so9 + spin representation",
    ("D", 2): "osp(1,2) + sl2 (not simple)",
    ("D", 4): "so9 as so8 + half-spin representation",
    ("D", 8): "E8 as so16 + half-spin representation",
}

FULL_MODE_MAX_ODD = 128       # full Jacobi scan cap on dim S


def classify(l: int, kind: str, field: Field, mode: str = "auto") -> VerificationReport:
    """Build the (l, kind) algebra over the field and verify it.

    mode "auto" scans every triple while dim S <= 128 and otherwise
    falls back to the reduced generator set.  A simplicity certificate
    is attempted over GF(p) whenever the Jacobi identity holds.
    """
    A = build_superalgebra(l, kind, field)
    if mode == "auto":
        mode = "full" if A.n1 <= FULL_MODE_MAX_ODD else "generators"
    triples = generator_triples(l, kind, A) if mode == "generators" else None
    report = check_jacobi(A, mode=mode, triples=triples)
    notes = []
    ident = IDENTIFICATIONS.get((kind, l))
    if report.jacobi_pass and ident:
        notes.append(f"identification (documented, not machine-checked): {ident}")
    if report.jacobi_pass and field.p:
        status, why = _super.simplicity_certificate(A)
        report.simplicity = status
        if why:
            notes.append(why)
    report.notes = "; ".join(notes)
    return report


def decompose_type_d_l2(field: Field):
    """The two ideals of the kind D, l = 2 algebra: bases as coordinate
    vectors over build_superalgebra(2, "D", field).

    Verified here: each span is an ideal, they annihilate each other,
    and together they sum to the whole 8-dimensional algebra; any failure
    raises VerificationFailed.
    """
    A = build_superalgebra(2, "D", field)
    f = field
    pb = pair_basis(2, "D")
    ix = {lab: k for k, lab in enumerate(pb.labels)}
    n = A.dim

    def vec(*terms):
        v = [f.zero()] * n
        for c, k in terms:
            v[k] = f.of_int(c)
        return v

    one_idx, topm_idx = A.n0 + 0, A.n0 + 1     # module masks 0b00, 0b11
    first = [
        vec((1, ix["[v1,v2]"])),
        vec((1, ix["[f1,f2]"])),
        vec((1, ix["[v1,f1]"]), (1, ix["[v2,f2]"])),
        vec((1, one_idx)),
        vec((1, topm_idx)),
    ]
    second = [
        vec((1, ix["[v1,f2]"])),
        vec((1, ix["[v2,f1]"])),
        vec((1, ix["[v1,f1]"]), (-1, ix["[v2,f2]"])),
    ]
    from .linalg import RowSpace
    spans = []
    for basis in (first, second):
        sp = RowSpace(f, n)
        if sp.insert(basis) != len(basis):
            raise VerificationFailed("ideal basis is linearly dependent")
        spans.append(sp)
    # ideal property and mutual annihilation
    for si, basis in ((0, first), (1, second)):
        for x in basis:
            for a in range(n):
                ea = [f.one() if t == a else f.zero() for t in range(n)]
                w = A.bracket_vectors(ea, x)
                if not spans[si].contains(w):
                    raise VerificationFailed(
                        f"span {si} is not an ideal: basis element {a} moves it out")
            for y in (second if si == 0 else first):
                w = A.bracket_vectors(x, y)
                if any(not f.is_zero(c) for c in w):
                    raise VerificationFailed("the two ideals do not annihilate each other")
    total = RowSpace(f, n)
    total.insert(first)
    total.insert(second)
    if total.dim != n:
        raise VerificationFailed(f"the ideals span {total.dim} of {n} dimensions")
    return [first, second]
