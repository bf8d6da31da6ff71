"""Glue between composition algebras and the Kac superalgebra.

T(C, J) = der C  ⊕  (C⁰ ⊗ J⁰)  ⊕  inder J carries a super-anticommutative
bracket which is a Lie superbracket over fields of characteristic 5 when
J is the Kac superalgebra.  This module builds its structure constants
for the four split composition algebras, the orthogonal model so(M, Q)
on M = C⁰ ⊕ U⊗U, the spin realization on C ⊗ (U ⊕ U), and an explicit
isomorphism with the l=5 type-B algebra (so_11 acting on its 32-dim
spin module).

Bracket rules on homogeneous pieces (D, D' in der C; d, d' in inder J;
a, b trace-zero in C; x, y trace-zero in J):

    [D, D']      = DD' - D'D
    [D, a⊗x]     = D(a) ⊗ x                       [D, d] = 0
    [d, a⊗x]     = a ⊗ d(x)
    [d, d']      = dd' - (-1)^{|d||d'|} d'd
    [a⊗x, b⊗y]  = t(xy)·D_{a,b} + [a,b]⊗(x*y) - 2n(a,b)·[L_x, L_y]

with t the normalized trace of J, x*y = xy - t(xy)1, n the polar norm
of C and D_{a,b} the standard inner derivation of C.

TitsModel holds the data these rules read as exact arrays, computed once
per field without a loop over basis pairs: int64 residues over GF(p),
Fractions in object arrays over Q, every product through
linalg.matmul_modp (one product for both fields) or its stack forms
combine and pair_products.  The der C tables come from the integer
tables of C by contraction, the inder J tables from the Kac table, and
each coordinate read is checked by rebuilding the matrix it came from.
build_tits applies the rules to whole tables, one block of slot kinds
at a time, and hands both orders of every pair, each from its own rule,
to superalgebra._stored_half, which checks them against each other and
refuses an entry given twice before the table is stored;
tits_bracket applies them to one pair, as the reference for the tests.

The characteristic-5 identification (build_so_MQ, phi0, spin_map_psi,
phi1_intertwine, cross_identify_with_typeB) works over GF(5) only and
refuses any other field with ValueError.  Each step computes its data
once per field, as int64 arrays of residues, verifies it and caches it,
so the steps may run in any order.  Whatever it needs of C it reads from
the octonion TitsModel: the C⁰ block of the Gram matrix of Q is −npol,
der C and ad_a act on C⁰ by Dczᵀ and comm_czᵀ in Φ₀, and a ∈ C⁰ acts on
the spin space through La.  The brackets of so(M, Q) are the σ
coordinates of the commutators [σ_a, σ_b], each checked by rebuilding
the commutator from them.  That ρ is a representation of so(M, Q) is
one sparse Jacobi scan of so(M, Q) ⋉ S (_check_spin_rep), and the
brackets of Φ₀ and of T ≅ so₁₁ ⊕ spin are checked by the keyed pass of
superalgebra._first_unpreserved_pair.  Coordinates in an so basis come in
closed form: σ_ij·G⁻¹ = e_j e_iᵀ − e_i e_jᵀ for G the Gram matrix of Q,
so X is in so(M, Q) exactly when X·G⁻¹ is skew, with σ_ij-coordinate
(X·G⁻¹)[j, i]; likewise nat_ab·G_W⁻¹ = 2(e_a e_bᵀ − e_b e_aᵀ) for the
natural basis of the l=5 type-B algebra.  Every product of residue
arrays goes through linalg.matmul_modp, whose float64 blocks are exact,
and every singularity test is a rank_modp.
"""

from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .fields import Field
from .linalg import (_red, combine, common_denominator, exact_array, inv_modp,
                     matmul_modp, nullspace_modp, pair_products, rank_modp,
                     rref_modp)
from .composition import (make_composition, derivation_algebra, _czero_maps,
                          _int_tables)
from .kac import (J_LABELS, J_PARITY, ODD_INDICES, K_FORM, _frozen,
                  _inder_basis, _j_tensor, _lmul_brackets, _supercommutators)
from .superalgebra import (SuperAlgebra, VerificationFailed, check_jacobi,
                           even_subalgebra, ideal_closure, verify_isomorphism,
                           equivariant_map_dim, _block, _first_unpreserved_pair,
                           _norton_word, _nullity_one_elements, _spin,
                           _stored_half)
from .clifford import (ambient_space, qpair, pair_basis, nat_entries,
                       DegenerateForm)
from .construct import build_superalgebra


class RelationFailed(RuntimeError):
    """A Clifford/representation relation failed on explicit generators."""


class IsometryNotFound(RuntimeError):
    """No isometry between the two 11-dim quadratic spaces was found."""


class ScalingNotFound(RuntimeError):
    """Odd-odd brackets of the two models are not proportional."""


# trace-zero part of J: even indices (e⊗e and U⊗U), odd indices
J_EVEN0 = (1, 5, 6, 8, 9)
UU_INDICES = (5, 6, 8, 9)          # x⊗x, x⊗y, y⊗x, y⊗y
UU_PAIRS = ((1, 1), (1, 2), (2, 1), (2, 2))   # K indices of the factors
UU_POS = {j: k for k, j in enumerate(UU_INDICES)}
# spin-side slot of each odd J⁰ element: (u⊗e, e⊗u) -> (u; 0), (0; u)
SLOT_OF = {4: 0, 7: 1, 2: 2, 3: 3}

# (even, odd) dimensions of T(C, Kac) for each composition kind
TITS_DIMS = {"unit": (6, 4), "binarion": (11, 8),
             "quaternion": (24, 16), "octonion": (55, 32)}


# Stack products over GF(p), or Q when p = 0, through linalg.matmul_modp


def _stacked_right(X, M, p):
    """X[k]·M for every matrix of the stack X, as one product."""
    d, n, m = X.shape
    return matmul_modp(X.reshape(d * n, m), M, p).reshape(d, n, M.shape[1])


def _stacked_left(M, X, p):
    """M·X[k] for every matrix of the stack X, as one product."""
    d, n, m = X.shape
    flat = matmul_modp(M, X.transpose(1, 0, 2).reshape(n, d * m), p)
    return flat.reshape(len(M), d, m).transpose(1, 0, 2)


def _commutators(x, X, p):
    """x·X[k] − X[k]·x for every matrix of the stack X."""
    return _red(_stacked_left(x, X, p) - _stacked_right(X, x, p), p)


# ---------------------------------------------------------------------------
# structure data


def _coords(X, basis, cols, back, p, what):
    """Coordinates c of the rows of X over the rows of basis, read as
    X[:, cols]·back (X[:, cols] when back is None) and checked by
    rebuilding X = c·basis; VerificationFailed(what) when that fails."""
    c = X[:, cols] if back is None else matmul_modp(X[:, cols], back, p)
    if not np.array_equal(matmul_modp(c, basis, p), X):
        raise VerificationFailed(what)
    return c


@lru_cache(maxsize=None)
def _j_tables(p: int):
    """The J side of TitsModel, which depends only on the field."""
    inder, nev = _inder_basis(p)
    nd, flat = len(inder), inder.reshape(len(inder), -1)
    # coordinates in inder J: the basis is invertible on its pivot columns
    # cols, so x = x[cols]·back·basis on the span
    cols = rref_modp(flat, p)[1]
    back = inv_modp(flat[:, cols], p)
    com = _supercommutators(inder, np.arange(nd) >= nev, p)
    dd = _coords(com.reshape(nd * nd, -1), flat, cols, back, p,
                 "inder J is not closed under [ , ]").reshape(nd, nd, nd)
    LL = _coords(_lmul_brackets(p).reshape(100, -1), flat, cols, back, p,
                 "[L_x, L_y] escapes inder J").reshape(10, 10, nd)
    star = _j_tensor(p).copy()
    LL[0] = LL[:, 0] = star[0] = star[:, 0] = 0       # pairs from J⁰ only
    t_tab = star[:, :, 0].copy()
    star[:, :, 0] = 0
    dJcol = np.zeros_like(star)
    dJcol[:, 1:, 1:] = inder.transpose(0, 2, 1)
    return (inder, nev) + tuple(map(_frozen, (dJcol, dd, t_tab, star, LL)))


class TitsModel:
    """Pinned bases and precomputed bracket tables for T(C, Kac).

    Basis order: der C, then a_i⊗x_j with x_j running over the even
    trace-zero part of J (e⊗e first, then U⊗U), then the even inner
    derivations; the odd part is a_i⊗x_j over the odd J indices followed
    by the odd inner derivations.

    The tables are read-only exact arrays (int64 residues over GF(p),
    Fractions over Q), indexed by basis positions of der C (D), of
    czero_basis (a, b, c), of the inner derivations (s, t) and of J
    (x, y, k, with zero entries at the unit, index 0):

        DD[i, j]    coordinates of [D_i, D_j] over derC
        Dcz[d, a]   coordinates of D_d(a) over czero_basis
        Dab[a, b]   coordinates of D_{a,b} over derC
        comm_cz[a, b], npol[a, b]    [a, b] over czero_basis, n(a, b)
        La[a]       the matrix of x ↦ a·x on C (rows = outputs)
        dJcol[t, x, k]    coefficient of e_k in d_t(e_x)
        dd[s, t]    coordinates of [d_s, d_t] over inder
        t_tab[x, y], star_tab[x, y, k]    t(e_x e_y), e_k in e_x * e_y
        LL[x, y]    coordinates of [L_x, L_y] over inder

    The der C side comes from the integer tables of C by contraction,
    with coordinates over derC read at the free columns of its reduced
    null basis (the last nonzero entry of each row); every coordinate
    read is checked by rebuilding the matrix it came from.
    """

    def __init__(self, kind, field: Field):
        f = field
        p = f.p
        self.kind = kind
        self.field = f
        C = self.C = make_composition(kind, f)
        cz = self.cz = C.czero_basis()
        ncz = self.ncz = len(cz)
        n = C.dim
        derC = self.derC = _frozen(exact_array(derivation_algebra(C), p)
                                   .reshape(-1, n, n))
        nder = self.nder = len(derC)
        (self.inder, nev, self.dJcol, self.dd, self.t_tab, self.star_tab,
         self.LL) = _j_tables(p)
        self.n_inder_even = nev
        nod = len(self.inder) - nev

        self.slots = ([("der", i) for i in range(nder)]
                      + [("mid", ai, xj) for ai in range(ncz) for xj in J_EVEN0]
                      + [("inj", t) for t in range(nev)]
                      + [("mid", ai, xj) for ai in range(ncz) for xj in ODD_INDICES]
                      + [("inj", nev + t) for t in range(nod)])
        self.n0 = nder + 5 * ncz + nev
        self.n1 = 4 * ncz + nod
        self.index = {s: k for k, s in enumerate(self.slots)}

        def clabel(ai):
            return "E1-E2" if ai == 0 else C.labels[ai + 1]
        labels = [f"dC{i}" for i in range(nder)]
        labels += [f"{clabel(ai)}*{J_LABELS[xj]}"
                   for ai in range(ncz) for xj in J_EVEN0]
        labels += [f"dJ{t}" for t in range(nev)]
        labels += [f"{clabel(ai)}*{J_LABELS[xj]}"
                   for ai in range(ncz) for xj in ODD_INDICES]
        labels += [f"dJ{nev + t}" for t in range(nod)]
        self.labels = tuple(labels)

        # C⁰ = the rows of Z (none for the unit)
        Z = exact_array(_czero_maps(n)[1] if ncz else np.zeros((0, n), dtype=int), p)
        mult, gram = (exact_array(t, p) for t in _int_tables(kind))
        Lt, Rt = mult.transpose(0, 2, 1), mult.transpose(1, 2, 0)   # b_t x, x b_t
        flat = derC.reshape(nder, n * n)
        free = [int(np.flatnonzero(row)[-1]) for row in flat != 0]

        def in_der(X, what):
            return _coords(X.reshape(-1, n * n), flat, free, None, p, what)

        def in_czero(X, what):     # coordinates at the columns other than 1
            return _coords(X.reshape(-1, n), Z, [0, *range(2, n)][:ncz], None, p, what)

        self.DD = in_der(_supercommutators(derC, np.zeros(nder, dtype=bool), p),
                         "der C is not closed under [ , ]").reshape(nder, nder, nder)
        self.Dcz = in_czero(_stacked_right(derC, Z.T, p).transpose(0, 2, 1),
                            "der C moves C⁰").reshape(nder, ncz, ncz)
        # [a, b] = ab − ba and D_{a,b} = ad_[a,b] − 3(a, b, ·), where the
        # associator (a, b, ·) = L_ab − L_a L_b
        La = self.La = combine(Z, Lt, p)
        ab = _stacked_right(La, Z.T, p).transpose(0, 2, 1).reshape(ncz * ncz, n)
        comm = _red(ab - ab.reshape(ncz, ncz, n).transpose(1, 0, 2).reshape(-1, n), p)
        self.comm_cz = in_czero(comm, "[a, b] leaves C⁰").reshape(ncz, ncz, ncz)
        self.npol = matmul_modp(matmul_modp(Z, gram, p), Z.T, p)
        Dab = (combine(comm, _red(Lt - Rt, p), p) - 3 * combine(ab, Lt, p)
               + 3 * pair_products(La, p).reshape(ncz * ncz, n, n))
        self.Dab = in_der(_red(Dab, p), "D_{a,b} escapes der C").reshape(ncz, ncz, nder)
        for a in (self.DD, self.Dcz, self.Dab, self.comm_cz, self.npol, La):
            _frozen(a)


def _middle_bracket(m, a, x, b, y):
    """[a⊗x, b⊗y] = t(xy)·D_{a,b} + [a,b]⊗(x*y) − 2n(a,b)·[L_x, L_y]."""
    terms = [(("der", k), m.t_tab[x, y] * v) for k, v in enumerate(m.Dab[a, b])]
    terms += [(("mid", c, k), u * v) for c, u in enumerate(m.comm_cz[a, b])
              for k, v in enumerate(m.star_tab[x, y])]
    return terms + [(("inj", k), -2 * m.npol[a, b] * v)
                    for k, v in enumerate(m.LL[x, y])]


def tits_bracket(model: TitsModel, i: int, j: int) -> dict:
    """[e_i, e_j] of T(C, J) on two basis elements, as zero-free {k: v}.

    Applies the rule of the module docstring that the slot kinds of i
    and j select, reading the TitsModel tables entry by entry: the
    pair-by-pair reference for the whole-table assembly of build_tits.
    """
    m = model
    p = m.field.p
    (kp, *u), (kq, *w) = m.slots[i], m.slots[j]
    if (kp, kq) == ("der", "der"):
        terms = [(("der", k), v) for k, v in enumerate(m.DD[u[0], w[0]])]
    elif (kp, kq) == ("der", "mid"):                 # [D, a⊗x] = D(a)⊗x
        terms = [(("mid", b, w[1]), v) for b, v in enumerate(m.Dcz[u[0], w[0]])]
    elif (kp, kq) == ("mid", "der"):                 # [a⊗x, D] = −D(a)⊗x
        terms = [(("mid", b, u[1]), -v) for b, v in enumerate(m.Dcz[w[0], u[0]])]
    elif (kp, kq) == ("inj", "mid"):                 # [d, a⊗x] = a⊗d(x)
        terms = [(("mid", w[0], k), v) for k, v in enumerate(m.dJcol[u[0], w[1]])]
    elif (kp, kq) == ("mid", "inj"):     # [a⊗x, d] = −(−1)^{|x||d|} a⊗d(x)
        both_odd = w[0] >= m.n_inder_even and J_PARITY[u[1]]
        terms = [(("mid", u[0], k), v if both_odd else -v)
                 for k, v in enumerate(m.dJcol[w[0], u[1]])]
    elif (kp, kq) == ("inj", "inj"):
        terms = [(("inj", k), v) for k, v in enumerate(m.dd[u[0], w[0]])]
    elif (kp, kq) == ("mid", "mid"):
        terms = _middle_bracket(m, u[0], u[1], w[0], w[1])
    else:                                            # [D, d] = 0
        return {}
    terms = [(s, int(v) % p if p else Fraction(v)) for s, v in terms]
    return {m.index[s]: v for s, v in terms if v}


@lru_cache(maxsize=None)
def tits_model(kind, field: Field) -> TitsModel:
    return TitsModel(kind, field)


def _outer(a, b, p):
    """The nonzero entries of a ⊗ b: the index arrays of a, those of b,
    and the products (nonzero, as products of nonzero field elements)."""
    ia, ib = np.nonzero(a != 0), np.nonzero(b != 0)
    ra = np.repeat(np.arange(len(ia[0])), len(ib[0]))
    rb = np.tile(np.arange(len(ib[0])), len(ia[0]))
    return ([i[ra] for i in ia], [i[rb] for i in ib],
            _red(a[ia][ra] * b[ib][rb], p))


@lru_cache(maxsize=None)
def build_tits(kind, field: Field) -> SuperAlgebra:
    """Structure constants of T(C, Kac) over the ordered pinned basis.

    The rules of tits_bracket are applied to whole tables, one block of
    slot kinds at a time, as sparse outer products.  Both orders of every
    pair come from the rules, and superalgebra._stored_half checks them
    against each other (and refuses an entry given twice) before the
    table is stored.
    """
    m = tits_model(kind, field)
    p = field.p
    mid = np.full((m.ncz, 10), -1)
    for slot, k in m.index.items():
        if slot[0] == "mid":
            mid[slot[1:]] = k
    inj = np.array([m.index[("inj", t)] for t in range(len(m.inder))])
    one = np.ones(1, dtype=int)
    (i, j, k), _, v = _outer(m.DD, one, p)
    blocks = [(i, j, k, v)]
    (s, t, k), _, v = _outer(m.dd, one, p)
    blocks.append((inj[s], inj[t], inj[k], v))
    # [D, a⊗x] = D(a)⊗x and [a⊗x, D] = −D(a)⊗x
    (d, a, b), (x,), v = _outer(m.Dcz, np.arange(10) > 0, p)
    blocks += [(d, mid[a, x], mid[b, x], v), (mid[a, x], d, mid[b, x], _red(-v, p))]
    # [d, a⊗x] = a⊗d(x) and [a⊗x, d] = −(−1)^{|x||d|} a⊗d(x)
    (t, x, k), (a,), v = _outer(m.dJcol, np.ones(m.ncz, dtype=int), p)
    both_odd = (t >= m.n_inder_even) & (np.array(J_PARITY)[x] == 1)
    blocks += [(inj[t], mid[a, x], mid[a, k], v),
               (mid[a, x], inj[t], mid[a, k], np.where(both_odd, v, _red(-v, p)))]
    # [a⊗x, b⊗y] = t(xy)·D_{a,b} + [a,b]⊗(x*y) − 2n(a,b)·[L_x, L_y]
    (x, y), (a, b, k), v = _outer(m.t_tab, m.Dab, p)
    blocks.append((mid[a, x], mid[b, y], k, v))
    (x, y, k), (a, b, c), v = _outer(m.star_tab, m.comm_cz, p)
    blocks.append((mid[a, x], mid[b, y], mid[c, k], v))
    (x, y, k), (a, b), v = _outer(m.LL, _red(-2 * m.npol, p), p)
    blocks.append((mid[a, x], mid[b, y], inj[k], v))

    I, J, K, V = _stored_half(*map(np.concatenate, zip(*blocks)), m.n0,
                              m.n0 + m.n1, p, True)
    V, scale = common_denominator(V) if not p else (V, 1)
    return SuperAlgebra._from_coo(f"T({kind})", field, m.n0, m.n1, m.labels,
                                  (I, J, K, V, scale), odd_symmetric=True)


def unit_ideal_split(field: Field) -> dict:
    """T(unit, Kac) = inder J decomposes into two 5-dim simple ideals."""
    T = build_tits("unit", field)
    LL = tits_model("unit", field).LL
    # x⊗e generates one copy, e⊗x the other: seeds [L_{e⊗e}, L_x]
    I1 = ideal_closure(T, [LL[1, 4].tolist()])
    I2 = ideal_closure(T, [LL[1, 2].tolist()])
    joint = rank_modp(I1 + I2, field.p)
    return {"dims": (len(I1), len(I2)), "joint_span": joint,
            "pass": len(I1) == 5 and len(I2) == 5 and joint == 10}


# ---------------------------------------------------------------------------
# the quadratic space M = C⁰ ⊕ U⊗U and so(M, Q)


def _require_char5(field: Field):
    if field.p != 5:
        raise ValueError("characteristic 5 required")


def _so_coords(X, ginv, rows, cols, p):
    """Coordinates of stacked n×n matrices X in an so basis whose k-th
    element b_k satisfies b_k·ginv = e_r e_cᵀ − e_c e_rᵀ with (r, c) =
    (rows[k], cols[k]), and a mask of the matrices inside the span.

    X lies in the span exactly when X·ginv is skew, and the coordinate of
    b_k is then (X·ginv)[r, c].
    """
    Y = _stacked_right(X.reshape(-1, *X.shape[-2:]), ginv, p).reshape(X.shape)
    inside = ~((Y + np.swapaxes(Y, -2, -1)) % p).any(axis=(-2, -1))
    return Y[..., rows, cols], inside


class SoMQ(NamedTuple):
    """so(M, Q) with its pinned σ-basis over all index pairs i < j, as
    residues mod p: σ_ij = (e_j e_iᵀ − e_i e_jᵀ)·gram.  The structure
    constants of `algebra` are the σ-coordinates of the commutators
    [σ_a, σ_b], each checked by rebuilding the commutator from them."""
    field: Field
    gram: np.ndarray        # 11×11 Gram matrix of Q
    ginv: np.ndarray        # its inverse
    pairs: list
    pair_index: dict
    mats: np.ndarray        # (55, 11, 11): mats[k] = σ of pairs[k]
    algebra: SuperAlgebra

    def coords(self, X):
        """σ-coordinates of stacked 11×11 matrices, from σ_ij·G⁻¹ =
        e_j e_iᵀ − e_i e_jᵀ, and the mask of those inside so(M, Q)."""
        i, j = np.array(self.pairs).T
        return _so_coords(X, self.ginv, j, i, self.field.p)


@lru_cache(maxsize=None)
def build_so_MQ(field: Field) -> SoMQ:
    """so(M, Q) for M = C⁰ ⊕ U⊗U (C the octonions), dim 11, so dim 55.

    Q restricted to C⁰ is the negated polar norm (TitsModel.npol); on U⊗U
    it is Q(u₁⊗u₂, v₁⊗v₂) = -(u₁|v₁)(u₂|v₂); the blocks are orthogonal.
    The brackets are read off the matrix commutators [σ_a, σ_b] in closed
    form, both orders of every pair; VerificationFailed, naming the pair,
    when a commutator leaves so(M, Q) or its coordinates do not rebuild
    it, and from superalgebra._stored_half when [σ_b, σ_a] is not
    −[σ_a, σ_b] coordinate by coordinate.
    """
    _require_char5(field)
    f = field
    p = f.p
    n = 11
    gram = np.zeros((n, n), dtype=np.int64)
    gram[:7, :7] = -tits_model("octonion", f).npol % p
    gram[7:, 7:] = [[-f.raw(K_FORM[u1][v1] * K_FORM[u2][v2])
                     for v1, v2 in UU_PAIRS] for u1, u2 in UU_PAIRS]
    gram %= p
    try:
        ginv = inv_modp(gram, p)
    except ValueError:
        raise DegenerateForm("Q is singular on M")

    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    pair_index = {pr: k for k, pr in enumerate(pairs)}
    i, j = np.array(pairs).T
    d = len(pairs)
    mats = np.zeros((d, n, n), dtype=np.int64)
    mats[np.arange(d), j] = gram[i]
    mats[np.arange(d), i] = -gram[j] % p

    coords = np.zeros((d, d, d), dtype=np.int64)       # coords[a, b, k]
    for a in range(d):
        com = _commutators(mats[a], mats, p)
        coords[a], inside = _so_coords(com, ginv, j, i, p)
        rebuilt = combine(coords[a], mats, p)
        for bad, what in ((~inside, "leaves so(M,Q)"),
                          ((rebuilt != com).any(axis=(1, 2)),
                           "is not rebuilt from its coordinates")):
            if bad.any():
                raise VerificationFailed(f"sigma commutator at pairs {pairs[a]},"
                                         f"{pairs[int(np.argmax(bad))]} {what}")
    I, J, K = np.nonzero(coords)
    I, J, K, V = _stored_half(I, J, K, coords[I, J, K], d, d, p, False)
    labels = [f"s{i},{j}" for i, j in pairs]
    algebra = SuperAlgebra._from_coo("so(M,Q)", f, d, 0, labels,
                                     (I, J, K, V, 1), odd_symmetric=False)
    return SoMQ(f, _frozen(gram), _frozen(ginv), pairs, pair_index,
                _frozen(mats), algebra)


# ---------------------------------------------------------------------------
# Φ₀ : T(C, J)₀ → so(M, Q)   (characteristic 5)


def _phi0_matrix(model: TitsModel, somq: SoMQ) -> np.ndarray:
    """Columns: so(M,Q)-coordinates of the images of the even T basis.

    On C⁰ a derivation D acts by Dcz[D]ᵀ and a⊗(e⊗e) by −ad_a = −comm_cz[a]ᵀ
    (TitsModel's tables, whose columns are the images of the C⁰ basis)."""
    p = model.field.p
    uu_loc = [4, 5, 7, 8]              # U⊗U among the local J indices
    X = np.zeros((model.n0, 11, 11), dtype=np.int64)
    for col, slot in enumerate(model.slots[:model.n0]):
        if slot[0] == "der":
            X[col, :7, :7] = model.Dcz[slot[1]].T
        elif slot[0] == "mid" and slot[2] == 1:       # a⊗(e⊗e) -> -ad_a
            X[col, :7, :7] = -model.comm_cz[slot[1]].T
        elif slot[0] == "mid":                        # a⊗(u⊗v) -> σ_{a,u⊗v}
            X[col] = somq.mats[somq.pair_index[(slot[1],
                                                 7 + UU_POS[slot[2]])]]
        else:                                         # inder, even part
            d = np.array(model.inder[slot[1]], dtype=np.int64)
            # must kill e⊗e (local 0) and preserve U⊗U
            if d[:, 0].any():
                raise VerificationFailed("even inner derivation moves e⊗e")
            if d[0, uu_loc].any():
                raise VerificationFailed(
                    "even inner derivation leaks U⊗U into e⊗e")
            X[col, 7:, 7:] = d[np.ix_(uu_loc, uu_loc)]
    coords, inside = somq.coords(X % p)
    if not inside.all():
        slot = model.slots[int(np.argmin(inside))]
        raise VerificationFailed(f"image of even slot {slot} is not in so(M,Q)")
    return np.ascontiguousarray(coords.T)


@lru_cache(maxsize=None)
def _phi0(field: Field) -> np.ndarray:
    """Φ₀ as a 55×55 array of residues, verified to be a Lie isomorphism."""
    somq = build_so_MQ(field)
    mat = _phi0_matrix(tits_model("octonion", field), somq)
    if rank_modp(mat, field.p) < len(mat):
        raise VerificationFailed("phi0 matrix is singular")
    T0 = even_subalgebra(build_tits("octonion", field))
    bad = _first_unpreserved_pair(mat, T0, somq.algebra)
    if bad is not None:
        i, j = bad
        raise VerificationFailed(f"phi0 bracket mismatch at pair "
                                 f"{(T0.labels[i], T0.labels[j])}")
    return _frozen(mat)


def phi0(field: Field) -> dict:
    """Verified Lie isomorphism T(octonion, Kac)₀ → so(M, Q), char 5."""
    _require_char5(field)
    return {"matrix": _phi0(field).tolist(), "rank": 55, "verified": True}


# ---------------------------------------------------------------------------
# the spin realization on C ⊗ (U ⊕ U)


def _psi_images(model: TitsModel) -> np.ndarray:
    """Ψ on the 11 M-basis vectors, as an (11, 32, 32) array mod p.

    Spin space index: 4·(C index) + slot with slots (x;0),(y;0),(0;x),(0;y);
    a in C⁰ acts by TitsModel.La[a] on the C factor.
    """
    f = model.field
    p = f.p
    psi = np.zeros((11, 32, 32), dtype=np.int64)
    for k, La in enumerate(model.La):
        for s in range(4):
            psi[k, s::4, s::4] = -La if s < 2 else La
    form = [[f.raw(v) for v in row] for row in K_FORM]
    for k, (u1, u2) in enumerate(UU_PAIRS):
        op = np.zeros((4, 4), dtype=np.int64)
        # (w1; w2) -> ((u2|w2)·u1 ; (u1|w1)·u2)
        for win, wk in ((0, 1), (1, 2)):              # w1 = x, y
            op[(u2 - 1) + 2, win] = form[u1][wk]
        for win, wk in ((2, 1), (3, 2)):              # w2 = x, y
            op[u1 - 1, win] = form[u2][wk]
        psi[7 + k] = np.kron(np.eye(8, dtype=np.int64), op)
    return psi % p


def _check_spin_rep(so: SuperAlgebra, rho, field: Field):
    """RelationFailed unless rho, a stack of d×d arrays mod p, one for each
    basis element of the Lie algebra so, is a representation of so.

    ρ is a representation iff the semidirect product so ⋉ S satisfies the
    Jacobi identity (Jacobson, Lie Algebras, ch. I): its even part is so,
    its odd part the d coordinates of S, [σ_a, s_j] = Σ_k ρ[a][k, j] s_k
    and [S, S] = 0.  Its Jacobi triples (σ_a, σ_b, s) are [ρ(a), ρ(b)] =
    ρ([σ_a, σ_b]) on s, its all-even ones the Jacobi identity of so, and
    the others vanish, so one sparse scan (check_jacobi) decides both.  The
    first witness names the first failing pair a < b, or an even triple."""
    p, n0, d = field.p, so.dim, rho.shape[1]
    a, k, j = np.nonzero(rho)
    v = rho[a, k, j]
    I, J, K, V, _ = so.coo
    I, J, K, V = _stored_half(np.concatenate([I, a, n0 + j]),
                              np.concatenate([J, n0 + j, a]),
                              np.concatenate([K, n0 + k, n0 + k]),
                              np.concatenate([V, v, -v % p]), n0, n0 + d, p, True)
    semi = SuperAlgebra._from_coo(f"{so.name} ⋉ S", field, n0, d,
                                  so.labels + tuple(f"S{t}" for t in range(d)),
                                  (I, J, K, V, 1), odd_symmetric=True)
    witness = check_jacobi(semi, witness_cap=1).witnesses
    if witness:
        i, j, k = (witness[0][x] for x in "ijk")
        if k >= n0:
            raise RelationFailed(f"spin rep fails on σ pairs {i},{j}")
        raise RelationFailed(f"{so.name} fails the Jacobi identity on σ triple "
                             f"{i},{j},{k}")


@lru_cache(maxsize=None)
def _spin_rep(field: Field):
    """(Ψ, ρ, checked): Ψ on the M basis and ρ on the σ basis, stacked
    32×32 arrays mod p, once every relation of spin_map_psi has held: the
    Clifford relations on the products Ψ_i·Ψ_j, the representation property
    by one Jacobi scan of so(M, Q) ⋉ S (_check_spin_rep), one check per σ
    pair a < b, and the closed forms."""
    p = field.p
    somq = build_so_MQ(field)
    psi = _psi_images(tits_model("octonion", field))
    eye = np.eye(32, dtype=np.int64)
    prod = pair_products(psi, p)               # prod[i, j] = Ψ_i·Ψ_j
    anti = (prod + prod.transpose(1, 0, 2, 3)) % p
    bad = (anti != somq.gram[:, :, None, None] * eye).any(axis=(2, 3))
    bad = np.argwhere(np.triu(bad))
    if bad.size:
        raise RelationFailed(
            f"Clifford relation fails on generators ({bad[0, 0]},{bad[0, 1]})")
    checked = 11 * 12 // 2

    i, j = np.array(somq.pairs).T
    rho = pow(-2, -1, p) * (prod[i, j] - prod[j, i]) % p
    _check_spin_rep(somq.algebra, rho, field)
    checked += len(rho) * (len(rho) - 1) // 2

    # explicit mixed-pair form: -Ψ(a)Ψ(u₁⊗u₂), block off-diagonal in U⊕U
    for ai in range(7):
        for k in range(4):
            pk = somq.pair_index[(ai, 7 + k)]
            direct = (-prod[ai, 7 + k]) % p
            if not np.array_equal(rho[pk], direct):
                raise RelationFailed(
                    f"ρ(σ_a,u⊗u') ≠ -Ψ(a)Ψ(u⊗u') at ({ai},{k})")
            blk = psi[7 + k][:4, :4].copy()
            blk[2:, :] = (-blk[2:, :]) % p            # offdiag(+ ; -) flip
            La = psi[ai][0::4, 0::4] * (p - 1) % p    # slot 0 carries -L_a
            if not np.array_equal(rho[pk], np.kron(La, blk) % p):
                raise RelationFailed(
                    f"ρ(σ_a,u⊗u') closed form fails at ({ai},{k})")
            checked += 1
    return _frozen(psi), _frozen(rho), checked


def spin_map_psi(field: Field) -> dict:
    """Clifford generator images Ψ(M basis) on C ⊗ (U ⊕ U), verified.

    Checks Ψ(z)Ψ(z') + Ψ(z')Ψ(z) = Q(z,z')·id on all generator pairs,
    that ρ(σ) = -½[Ψ(x),Ψ(y)] is a representation of so(M,Q), by one
    Jacobi scan of so(M,Q) ⋉ S (_check_spin_rep, no matrix product), and
    the closed form ρ(σ_{a,u₁⊗u₂}) = -Ψ(a)Ψ(u₁⊗u₂) = L_a ⊗ offdiag.
    checked counts 66 generator pairs, 1485 σ pairs a < b and 28 closed
    forms.
    """
    _require_char5(field)
    psi, _, checked = _spin_rep(field)
    return {"psi": psi.tolist(), "checked": checked, "verified": True}


# ---------------------------------------------------------------------------
# Φ₁ : T(C, J)₁ → C ⊗ (U ⊕ U)


@lru_cache(maxsize=None)
def _phi1(field: Field) -> np.ndarray:
    """Columns: spin coordinates of the odd T basis.

    a⊗(u⊗e) and a⊗(e⊗u) go to a⊗(u;0) and a⊗(0;u); the odd inner
    derivation [L_e,L_{u₁}]⊗id + id⊗[L_e,L_{u₂}] goes to -½·1⊗(u₁;u₂).
    """
    p = field.p
    model = tits_model("octonion", field)
    nev = model.n_inder_even
    # inder J coordinates of 4·[L_e, L_u], u in slot order (x;0),(y;0),(0;x),(0;y)
    named = np.array([model.LL[1][xj] for xj in (4, 7, 2, 3)],
                     dtype=np.int64) * 4 % p
    try:
        if named[:, :nev].any():
            raise ValueError("named derivation with an even part")
        # row t: the odd inner derivation nev + t in the named basis
        in_named = inv_modp(named[:, nev:], p)
    except ValueError:
        raise VerificationFailed("odd inner derivation outside the named span")
    unit = np.array(model.C.unit, dtype=np.int64)
    eye = np.eye(4, dtype=np.int64)
    cols = []
    for slot in model.slots[model.n0:]:
        if slot[0] == "mid":
            a = np.array(model.cz[slot[1]], dtype=np.int64)
            cols.append(np.kron(a, eye[SLOT_OF[slot[2]]]))
        else:
            cols.append(np.kron(unit, pow(-2, -1, p) * in_named[slot[1] - nev]))
    return _frozen(np.stack(cols, axis=1) % p)


def phi1_intertwine(field: Field, negate_index=None) -> dict:
    """Check Φ₁([p, w]) = ρ(Φ₀(p))·Φ₁(w) on all even×odd basis pairs.

    negate_index, an int in range(32), flips the sign of that Φ₁ column
    first (negative control); returns a witness dict instead of raising.
    """
    _require_char5(field)
    n1 = TITS_DIMS["octonion"][1]
    if negate_index is not None and (type(negate_index) is not int
                                     or not 0 <= negate_index < n1):
        raise ValueError(f"negate_index must be an int in range({n1}), "
                         f"not {negate_index!r}")
    p = field.p
    phi1 = _phi1(field).copy()
    if negate_index is not None:
        phi1[:, negate_index] = (-phi1[:, negate_index]) % p
    if rank_modp(phi1, p) < n1:
        raise VerificationFailed("phi1 matrix is singular")
    _, rho, _ = _spin_rep(field)
    phi0_np = _phi0(field)
    T = build_tits("octonion", field)
    lhs = _stacked_left(phi1, _block(T, 0, 1, 1), p)
    rhs = _stacked_right(combine(phi0_np.T, rho, p), phi1, p)
    bad = np.flatnonzero((lhs != rhs).any(axis=(1, 2)))
    if bad.size:
        a = int(bad[0])
        j = int(np.nonzero((lhs[a] - rhs[a]) % p)[1][0])
        return {"pass": False, "checked": n1 * a,
                "witness": {"even": T.labels[a],
                            "odd": T.labels[T.n0 + j],
                            "lhs": lhs[a][:, j].tolist(),
                            "rhs": rhs[a][:, j].tolist()}}
    return {"pass": True, "checked": n1 * T.n0, "witness": None}


# ---------------------------------------------------------------------------
# cross-identification with the l=5 type-B model


def _sqrt_modp(a, p):
    a %= p
    return next((t for t in range(1, p) if t * t % p == a), None)


def _hyperbolic_basis(gram, p):
    """Columns (u, v₁..v_m, f₁..f_m) with b(u,u) = −2, b(vₖ,fₖ) = 1 and
    every other pair 0, b the form with Gram matrix `gram`.  They are read
    off a symmetric monomial `gram` with one nonzero diagonal entry b(h,h):
    u = a·h for the smallest root a of a²·b(h,h) = −2, and the pairs
    i < j with b(eᵢ,eⱼ) ≠ 0, in index order, give vₖ = eᵢ and
    fₖ = eⱼ/b(eᵢ,eⱼ).  None for a `gram` of any other shape, or no a."""
    G = np.asarray(gram, dtype=np.int64) % p
    n = len(G)
    rows, partner = np.nonzero(G)
    diagonal = np.flatnonzero(np.diagonal(G))
    if (not np.array_equal(G, G.T) or not np.array_equal(rows, np.arange(n))
            or len(diagonal) != 1):
        return None
    h = int(diagonal[0])
    a = _sqrt_modp(-2 * pow(int(G[h, h]), -1, p), p)
    if a is None:
        return None
    pairs = [(i, j) for i, j in enumerate(partner.tolist()) if i < j]
    tau = np.zeros((n, n), dtype=np.int64)
    tau[h, 0] = a
    for k, (i, j) in enumerate(pairs, start=1):
        tau[i, k] = 1
        tau[j, k + len(pairs)] = pow(int(G[i, j]), -1, p)
    return tau


def _odd_intertwiner(rep1, rep2, p):
    """The n×n S with rep2[a]·S = S·rep1[a] mod p for every a, by the
    MeatAxe isomorphism test (Parker 1984; Holt and Rees 1994).

    Norton's words give θ₁ = x − λ of nullity 1 on rep1, ker θ₁ = ⟨v₁⟩;
    the same word on rep2 must give θ₂ of nullity 1, ker θ₂ = ⟨v₂⟩.  The
    spin of (v₁ | v₂) under blockdiag(rep1ᵀ, rep2ᵀ), when it has dimension
    n and pivots 0..n−1, is the graph {(w, S·w)} of an intertwiner S.  The
    intertwiners are then exactly the line through S: any S' maps ker θ₁
    into ker θ₂, so S'·v₁ = c·v₂, and S' − c·S vanishes on the submodule
    spun by v₁, which is everything.  S is scaled so that the last nonzero
    entry of vec(S) (row-major) is 1, rechecked on every generator and
    checked invertible; anything else raises VerificationFailed.
    """
    rep1 = np.asarray(rep1, dtype=np.int64) % p
    rep2 = np.asarray(rep2, dtype=np.int64) % p
    k, n, _ = rep1.shape
    found = next(_nullity_one_elements(rep1, p), None)
    if found is None:
        raise VerificationFailed(
            "odd intertwiner undecided: Norton's words give rep1 no element "
            "of nullity 1")
    coef, lam, _, v1 = found
    theta2 = (_norton_word(coef, rep2, p) - lam * np.eye(n, dtype=np.int64)) % p
    v2 = nullspace_modp(theta2, p)
    if v2.shape[0] != 1:
        raise VerificationFailed(
            f"rep1 and rep2 are not isomorphic: θ has nullity 1 on rep1 and "
            f"{v2.shape[0]} on rep2")
    blocks = np.zeros((k, 2 * n, 2 * n), dtype=np.int64)
    blocks[:, :n, :n] = rep1.transpose(0, 2, 1)
    blocks[:, n:, n:] = rep2.transpose(0, 2, 1)
    graph = _spin(np.concatenate([v1, v2[0]]), blocks, p)
    spun = sum(c < n for c in graph.pivots)
    if spun < n:
        raise VerificationFailed(
            f"rep1 is reducible: the kernel vector spins a {spun}-dimensional "
            f"submodule")
    if graph.dim > n:
        raise VerificationFailed("no odd intertwiner exists: the spin of "
                                 "(v1 | v2) is not the graph of a map")
    S = graph.basis[:, n:].T
    S = S * pow(int(S.reshape(-1)[np.flatnonzero(S)[-1]]), p - 2, p) % p
    if not np.array_equal(_stacked_right(rep2, S, p), _stacked_left(S, rep1, p)):
        raise VerificationFailed("odd intertwiner candidate fails")
    if rank_modp(S, p) < n:
        raise VerificationFailed("odd intertwiner is singular")
    return S


def _odd_proportionality(T, B5, theta, S, p):
    """The c in GF(p) with θ([x, y]) = c·[Sx, Sy] for all odd x, y of T.

    The pairs (i, j), i <= j, of odd basis elements are read in order, in
    one array pass; ScalingNotFound at the first pair where the supports
    of the two brackets differ, where they are not proportional, or where
    their ratio differs from that of the first nonzero pair."""
    n1 = S.shape[0]
    RT, RB = _block(T, 1, 1, 0), _block(B5, 1, 1, 0)   # (n1, 55, n1)
    # lhs[k, i, j] = θ([o_i, o_j])_k;  rhs[i, k, j] = [S o_i, S o_j]_k
    lhs = combine(theta, RT.transpose(1, 0, 2), p)
    rhs = combine(S.T, _stacked_right(RB, S, p), p)
    i, j = np.triu_indices(n1)
    L, R = lhs[:, i, j].T, rhs[i, :, j]                # one row per pair
    at = np.arange(len(i))
    k = (R != 0).argmax(axis=1)                        # first nonzero of R
    lk, rk = L[at, k], R[at, k]
    live = np.flatnonzero(rk)
    if not live.size and not L.any():
        raise ScalingNotFound("all odd-odd brackets vanished")
    c_val = int(lk[live[0]]) * pow(int(rk[live[0]]), -1, p) % p if live.size else 0
    support = (L != 0).any(axis=1) != (rk != 0)
    crossed = ((L * rk[:, None] - R * lk[:, None]) % p).any(axis=1)   # L ≠ (lk/rk)·R
    ratio = (lk - c_val * rk) % p != 0
    bad = np.flatnonzero(support | crossed | ratio)
    if bad.size:
        x = bad[0]
        if support[x]:
            raise ScalingNotFound(f"odd bracket support differs at ({i[x]},{j[x]})")
        if crossed[x]:
            raise ScalingNotFound(f"odd brackets not proportional at ({i[x]},{j[x]})")
        r = int(lk[x]) * pow(int(rk[x]), -1, p) % p
        raise ScalingNotFound(f"inconsistent proportionality {c_val} vs {r}")
    return c_val


def cross_identify_with_typeB(field: Field) -> dict:
    """Explicit isomorphism T(octonion, Kac) ≅ so₁₁ ⊕ spin, both over GF(5).

    The isometry τ: (W, q) → (M, Q) is read off the Gram matrix of Q
    (`_hyperbolic_basis`): in the pinned basis of M it is monomial, with
    one anisotropic vector and five hyperbolic pairs, so no search is
    needed.  τᵀ·G·τ = G_W is checked, and IsometryNotFound raised when it
    fails.  Φ₀ is transported through τ into the natural so-basis (θ).
    The odd intertwiner S is the unique solution, up to a scalar, of
    rep₂(a)·S = S·rep₁(a) over the 55 even basis elements, read off the
    spin of a pair of Norton kernel vectors (`_odd_intertwiner`).  The
    odd-odd brackets then agree up to a factor c, and S is rescaled by μ
    with μ² = c; ScalingNotFound when c is not a square in GF(5).  The
    assembled map is verified bracket by bracket.
    """
    _require_char5(field)
    p = field.p
    somq = build_so_MQ(field)
    T = build_tits("octonion", field)
    B5 = build_superalgebra(5, "B", field)
    space = ambient_space(5, "B")
    gw = np.array([[qpair(space, a, b) for b in range(11)] for a in range(11)],
                  dtype=np.int64) % p
    nats = np.zeros((55, 11, 11), dtype=np.int64)
    for k, ents in enumerate(nat_entries(5, "B")):
        for r, c, coeff in ents:
            nats[k, r, c] += coeff
    # nat_ab·G_W⁻¹ = 2(e_a e_bᵀ − e_b e_aᵀ): so-coordinates in closed form
    half_gwinv = inv_modp(gw, p) * pow(2, -1, p) % p
    rows, cols = np.array(pair_basis(5, "B").pairs).T
    coords, inside = _so_coords(nats % p, half_gwinv, rows, cols, p)
    if not (inside.all() and np.array_equal(coords, np.eye(55, dtype=np.int64))):
        raise VerificationFailed("natural so basis does not match its closed form")

    tau = _hyperbolic_basis(somq.gram, p)
    if tau is None or not np.array_equal(
            matmul_modp(matmul_modp(tau.T, somq.gram, p), tau, p), gw):
        raise IsometryNotFound("the Gram matrix of Q gives no isometry "
                               "from (W, q)")

    # θ: Φ₀ images of the even T basis, as 11×11 matrices on M moved to W
    # by τ, in natural so₁₁ coordinates of the l=5 model.  The temporaries
    # stay inside the calls, so none is alive in the equivariant solve.
    images = combine(_phi0(field).T, somq.mats, p)
    coords, inside = _so_coords(
        _stacked_right(_stacked_left(inv_modp(tau, p), images, p), tau, p),
        half_gwinv, rows, cols, p)
    if not inside.all():
        raise VerificationFailed("transported image not in so(W,q)")
    theta = np.ascontiguousarray(coords.T)
    rep2 = _block(B5, 0, 1, 1)
    S = _odd_intertwiner(combine(inv_modp(theta, p).T, _block(T, 0, 1, 1), p),
                         rep2, p)
    c_val = _odd_proportionality(T, B5, theta, S, p)
    mu = _sqrt_modp(c_val, p)
    if mu is None:
        raise ScalingNotFound(f"odd-odd proportionality {c_val} is not a "
                              f"square in GF({p})")

    iso = np.zeros((87, 87), dtype=np.int64)
    iso[:55, :55] = theta
    iso[55:, 55:] = mu * S % p
    if not verify_isomorphism(iso, T, B5):
        raise VerificationFailed("assembled isomorphism fails verification")

    eq_dim = equivariant_map_dim(rep2, _block(B5, 0, 0, 0), field=field)

    return {"status": "isomorphism", "verified": True, "matrix": iso.tolist(),
            "mu": mu, "proportionality": c_val, "equivariant_dim": eq_dim}
