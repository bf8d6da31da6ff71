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

and b pairs rho's target mask only with its complement.  Every block of
the structure tensor is therefore computed as whole arrays: the so
constants from so_bracket_table, the spin action from rho_tables, and
the odd-odd product from the nonzero entries of rho_tables, each hit
landing on the single t complementary to its target.

classify checks the Jacobi identity on every triple.  The paper reduces
the check to the l + 1 triples of generator_triples, a reduction no code
here proves, so no verdict rests on it.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .clifford import (_check_pairs, gram_pairing, half_spin_masks, pair_basis,
                       rho_tables, so_bracket_table, so_dim)
from .exterior import (b_is_symmetric, bhat_is_symmetric, complement_form_signs,
                       monomial_label)
from .fields import QQ, Field, _is_int, _require_field
from .linalg import exact_array, matmul_modp, rank_modp
from .superalgebra import (SuperAlgebra, VerificationFailed, VerificationReport,
                           check_jacobi)
from . import superalgebra as _super


class OddHalfSpinUnsupported(ValueError):
    """Kind D with odd l: the pairing form vanishes identically on the
    half-spin module, so the odd bracket is not defined."""


def module_masks(l: int, kind: str) -> tuple:
    """Monomial masks spanning the odd part, in increasing order;
    ValueError unless (l, kind) has a pair basis (clifford._check_pairs)."""
    l, kind = _check_pairs(l, kind)
    return tuple(range(1 << l)) if kind == "B" else half_spin_masks(l, 0)


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
    _check_key_bound(l, kind)


def _check_key_bound(l: int, kind: str):
    """Refuse an l whose algebra dimension n has n^3 >= 2^63: the build and
    the Jacobi scan key each triple (i, j, k) as (i*n + j)*n + k in int64.
    Integer arithmetic only, so nothing is allocated before the refusal."""
    if l >= 63 or (so_dim(l, kind) + (1 << l - (kind == "D"))) ** 3 >= 1 << 63:
        raise ValueError(f"kind {kind}, l={l} is past the int64 key bound: "
                         "the dimension n of the algebra needs n^3 < 2^63")


def _spin_action(l: int, kind: str):
    """The spin action on the module as COO arrays (a, s, t, c): the pair
    B_a sends the s-th module monomial to c times the t-th."""
    masks = np.array(module_masks(l, kind), dtype=np.int64)
    midx = np.full(1 << l, -1, dtype=np.int64)
    midx[masks] = np.arange(masks.size)
    tgt, cof = rho_tables(l, kind)
    a, s = np.nonzero(cof[:, masks])
    return a, s, midx[tgt[a, masks[s]]], cof[a, masks[s]]


def _odd_products(l: int, kind: str, spin):
    """The odd-odd product on module monomials as COO arrays
    (si, ti, k, num, den): [s_si, s_ti] has num/den at the pair B_k, over
    all ordered pairs of module indices (see the module docstring), read
    off spin, the arrays of _spin_action.  The module is closed under
    complements, which reverse the mask order."""
    masks = np.array(module_masks(l, kind), dtype=np.int64)
    a, s, t, c = spin
    perm, coef = gram_pairing(l, kind)
    num = c * complement_form_signs(l, kind == "D")[masks[t]]
    return s, masks.size - 1 - t, perm[a], num, coef[a]


@lru_cache(maxsize=None)
def _integer_tensor(l: int, kind: str):
    """The structure constants of g = so (+) S over Z, i <= j only.

    Returns read-only int64 arrays (I, J, K, V), sorted by (I, J, K), and
    scale, the lcm of the odd-odd denominators: [e_i, e_j] has coefficient
    V / scale at e_k (i, j and k basis indices, odd ones shifted by
    n0 = dim so).  The so, spin and odd-odd blocks are concatenated in
    both orders and handed to superalgebra._stored_half, which refuses an
    (i, j, k) given twice and checks every bracket against its other
    order, with the symmetry the kind and l dictate (VerificationFailed,
    naming the pair by basis index), before the i > j half is dropped;
    over Z this implies the symmetry mod every p.
    """
    _check_kind(l, kind)
    n0 = so_dim(l, kind)
    n = n0 + len(module_masks(l, kind))
    spin = a, s, t, rho = _spin_action(l, kind)
    si, ti, ks, num, den = _odd_products(l, kind, spin)
    scale = int(np.lcm.reduce(np.abs(den) // np.gcd(num, den), initial=1))
    k1, k2, k3, c = so_bracket_table(l, kind)
    rho = rho.astype(np.int64) * scale
    out = _super._stored_half(np.concatenate([k1, a, n0 + s, n0 + si]),
                              np.concatenate([k2, n0 + s, a, n0 + ti]),
                              np.concatenate([k3, n0 + t, n0 + t, ks]),
                              np.concatenate([c * scale, rho, -rho,
                                              num * scale // den]),
                              n0, n, 0, bracket_is_symmetric(l, kind))
    for x in out:
        x.setflags(write=False)
    return (*out, scale)


def build_superalgebra(l: int, kind: str, field: Field) -> SuperAlgebra:
    """Assemble g = so (+) S with all structure constants over the field.

    Basis order: so pair basis first (even part), then the module
    monomials by increasing mask (odd part).  The table is the integer
    tensor of (kind, l) (_integer_tensor), over GF(p) reduced as
    V * scale^-1 mod p.  The algebra's Jacobi scan reads the rows of the
    Q table shared by every field (_jacobi_rows).  l must be an int or a
    numpy integer, not a bool; anything else raises ValueError before any
    table is built or looked up.
    """
    if not _is_int(l):
        raise ValueError(f"l must be an integer, got {l!r}")
    _require_field(field)
    l = int(l)
    A = _assemble(l, kind, field)
    A._jacobi = _jacobi_rows(l, kind)
    return A


def _assemble(l: int, kind: str, field: Field) -> SuperAlgebra:
    """build_superalgebra's algebra, with no shared Jacobi rows."""
    I, J, K, V, scale = _integer_tensor(l, kind)
    p = field.p
    if p:
        if scale % p == 0:
            raise ValueError(f"the scale {scale} of kind {kind}, l={l} "
                             f"is not invertible mod {p}")
        V = V % p * pow(scale, -1, p) % p
        I, J, K, V, scale = I[V != 0], J[V != 0], K[V != 0], V[V != 0], 1
    pb = pair_basis(l, kind)
    masks = module_masks(l, kind)
    labels = list(pb.labels) + [monomial_label(m) for m in masks]
    return SuperAlgebra._from_coo(f"type{kind}_l{l}", field, len(pb.pairs),
                                  len(masks), labels, (I, J, K, V, scale),
                                  odd_symmetric=bracket_is_symmetric(l, kind))


def _chevalley_generators(l: int, kind: str) -> list:
    """Basis indices of 2l + 1 pairs that generate so(V) as a Lie algebra
    (Humphreys, Introduction to Lie Algebras and Representation Theory,
    section 18): the root vectors [v_i, f_(i+1)] and [v_(i+1), f_i] of the
    simple roots e_i - e_(i+1), those of e_l ([u, v_l], [u, f_l]) for kind
    B or of e_(l-1) + e_l ([v_(l-1), v_l], [f_(l-1), f_l]) for kind D, and
    the Cartan element [v_l, f_l], from which the peel of
    superalgebra._certified_rows reaches the other Cartan pairs."""
    pb = pair_basis(l, kind)
    ix = {lab: k for k, lab in enumerate(pb.labels)}
    names = [f"[v{i},f{i + 1}]" for i in range(1, l)]
    names += [f"[v{i + 1},f{i}]" for i in range(1, l)]
    names += ([f"[u,v{l}]", f"[u,f{l}]"] if kind == "B"
              else [f"[v{l - 1},v{l}]", f"[f{l - 1},f{l}]"])
    return [ix[name] for name in names + [f"[v{l},f{l}]"]]


@lru_cache(maxsize=1)
def _jacobi_rows(l: int, kind: str):
    """The Jacobi rows of the Q table of (kind, l), on first use: the rows
    the Chevalley generators of so(V) certify (superalgebra._certified_rows),
    and the rest scanned.  One (kind, l) is kept: callers loop over the
    fields of one l at a time, and an algebra keeps its own reference to
    the rows."""
    return _super._JacobiRows(lambda: _assemble(l, kind, QQ),
                              _chevalley_generators(l, kind))


# Outside the tests only the benchmark's B8 cells need this; it goes with
# ROADMAP item 1.
def generator_triples(l: int, kind: str, A: SuperAlgebra) -> list:
    """The paper's reduced Jacobi test set: (1, v1...vl, v1...vr) for
    0 <= r <= l (even r only in kind D), as basis index triples.  No
    verdict rests on it: classify always scans every triple."""
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


def classify(l: int, kind: str, field: Field) -> VerificationReport:
    """Build the (l, kind) algebra over the field and verify it.

    The Jacobi identity is checked on every triple (check_jacobi's full
    scan).  A simplicity certificate is attempted over GF(p) whenever
    the Jacobi identity holds.
    """
    A = build_superalgebra(l, kind, field)
    report = check_jacobi(A)
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
    for si, basis in enumerate((first, second)):
        if rank_modp(basis, f.p) != len(basis):
            raise VerificationFailed("ideal basis is linearly dependent")
        # the ideal the span generates is the span itself
        closure = len(_super.ideal_closure(A, basis))
        if closure != len(basis):
            raise VerificationFailed(f"span {si} is not an ideal: it generates "
                                     f"a {closure}-dimensional ideal")
    # [x, y] = x @ _brackets_into(A, y), whose row a is [e_a, y]
    xs = exact_array(first, f.p)
    for y in second:
        if matmul_modp(xs, _super._brackets_into(A, y), f.p).any():
            raise VerificationFailed("the two ideals do not annihilate each other")
    dim = rank_modp(first + second, f.p)
    if dim != n:
        raise VerificationFailed(f"the ideals span {dim} of {n} dimensions")
    return [first, second]
