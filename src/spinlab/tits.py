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
"""

import itertools
import random
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .fields import Field
from .linalg import (SpanSolver, RowSpace, inv_field, inv_modp,
                     matmul_field, matmul_modp, nullspace_modp, rref_modp)
from .composition import (CompositionAlgebra, make_composition,
                          derivation_algebra, inner_derivation, ad_matrix,
                          _restrict_to_czero)
from .kac import (KacElement, J_LABELS, J_PARITY, ODD_INDICES,
                  inner_derivation_J, inder_j_span, _j_field_table, K_FORM)
from .superalgebra import (SuperAlgebra, VerificationFailed, even_subalgebra,
                           ideal_closure, verify_isomorphism,
                           equivariant_map_dim, _block)
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


def _flat(mat):
    return [x for row in mat for x in row]


def _mat_sub(f, A, B):
    return [[f.sub(a, b) for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]


# ---------------------------------------------------------------------------
# structure data


class _JTables(NamedTuple):
    """The J side of T(C, Kac), which depends only on the field."""
    inder: list          # basis of inder J as 9×9 matrices, even ones first
    n_even: int
    solver: SpanSolver   # coordinates in that basis
    dJcol: list          # dJcol[t][x - 1] = ((k, v), ...): d_t(e_x) = Σ v·e_k
    dd: dict             # (s, t) -> coordinates of [d_s, d_t]
    t_tab: list          # t_tab[x][y] = t(e_x e_y)
    star_tab: list       # star_tab[x][y] = e_x * e_y as ((k, v), ...)
    LL: list             # LL[x][y] = coordinates of [L_x, L_y]


@lru_cache(maxsize=None)
def _j_tables(field: Field) -> _JTables:
    f = field
    ev, od = inder_j_span(f)
    inder = ev + od
    nev = len(ev)
    solver = SpanSolver(f, [_flat(d) for d in inder])

    # inner derivations of J: column action on J⁰ and supercommutator
    dJcol = [[tuple((k + 1, d[k][xj - 1]) for k in range(9)
                    if not f.is_zero(d[k][xj - 1])) for xj in range(1, 10)]
             for d in inder]
    dd = {}
    for s in range(10):
        for t in range(10):
            sgn = -1 if (s >= nev and t >= nev) else 1
            prod = matmul_field(inder[s], inder[t], f)
            back = matmul_field(inder[t], inder[s], f)
            com = (_mat_sub(f, prod, back) if sgn > 0 else
                   [[f.add(a, b) for a, b in zip(ra, rb)]
                    for ra, rb in zip(prod, back)])
            cc = solver.coords(_flat(com))
            if cc is None:
                raise VerificationFailed("inder J is not closed under [ , ]")
            dd[(s, t)] = cc

    # J⁰ pair data: trace, star product, inner-derivation coordinates
    tab = _j_field_table(f)
    t_tab = [[f.zero()] * 10 for _ in range(10)]
    star_tab = [[()] * 10 for _ in range(10)]
    LL = [[None] * 10 for _ in range(10)]
    for xi in range(1, 10):
        for yj in range(1, 10):
            cell = tab[xi][yj]
            t_tab[xi][yj] = next((v for k, v in cell if k == 0), f.zero())
            star_tab[xi][yj] = tuple((k, v) for k, v in cell if k)
            LLm = inner_derivation_J(KacElement.basis(f, xi),
                                     KacElement.basis(f, yj))
            cc = solver.coords(_flat(LLm))
            if cc is None:
                raise VerificationFailed("[L_x, L_y] escapes inder J")
            LL[xi][yj] = cc
    return _JTables(inder, nev, solver, dJcol, dd, t_tab, star_tab, LL)


class TitsModel:
    """Pinned bases and precomputed bracket tables for T(C, Kac).

    Basis order: der C, then a_i⊗x_j with x_j running over the even
    trace-zero part of J (e⊗e first, then U⊗U), then the even inner
    derivations; the odd part is a_i⊗x_j over the odd J indices followed
    by the odd inner derivations.
    """

    def __init__(self, kind, field: Field):
        f = field
        self.kind = kind
        self.field = f
        C = self.C = make_composition(kind, f)
        cz = self.cz = C.czero_basis()
        ncz = self.ncz = len(cz)
        derC = self.derC = derivation_algebra(C)
        nder = self.nder = len(derC)
        J = _j_tables(f)
        self.inder = J.inder
        self.n_inder_even = nev = J.n_even
        nod = len(J.inder) - nev
        self.dJcol, self.dd, self.LL = J.dJcol, J.dd, J.LL
        self.t_tab, self.star_tab = J.t_tab, J.star_tab

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

        der_solver = SpanSolver(f, [_flat(D) for D in derC]) if derC else None

        # der C composition: commutator coordinates for all ordered pairs
        self.DD = {}
        for i in range(nder):
            for j in range(nder):
                com = _mat_sub(f, matmul_field(derC[i], derC[j], f),
                               matmul_field(derC[j], derC[i], f))
                cc = der_solver.coords(_flat(com))
                if cc is None:
                    raise VerificationFailed("der C is not closed under [ , ]")
                self.DD[(i, j)] = cc

        # der C acting on the trace-zero part of C
        self.Dcz = [[C.coords_in_czero(
            [sum((f.mul(D[r][c], a[c]) for c in range(C.dim)), f.zero())
             for r in range(C.dim)]) for a in cz] for D in derC]

        # C⁰ pair data: D_{a,b}, [a,b], polar norm
        self.Dab = [[None] * ncz for _ in range(ncz)]
        self.comm_cz = [[None] * ncz for _ in range(ncz)]
        self.npol = [[None] * ncz for _ in range(ncz)]
        for ai in range(ncz):
            for bi in range(ncz):
                D = inner_derivation(C, cz[ai], cz[bi])
                cc = (der_solver.coords(_flat(D)) if der_solver else
                      ([] if all(f.is_zero(x) for x in _flat(D)) else None))
                if cc is None:
                    raise VerificationFailed("D_{a,b} escapes der C")
                self.Dab[ai][bi] = cc
                self.comm_cz[ai][bi] = C.coords_in_czero(
                    C.commutator(cz[ai], cz[bi]))
                self.npol[ai][bi] = f.raw(C.norm_polar(cz[ai], cz[bi]))


def _middle_bracket(m, a, x, b, y):
    """[a⊗x, b⊗y] = t(xy)·D_{a,b} + [a,b]⊗(x*y) − 2n(a,b)·[L_x, L_y]."""
    f = m.field
    terms = []
    t = m.t_tab[x][y]
    if not f.is_zero(t):
        terms += [(("der", k), f.mul(t, v)) for k, v in enumerate(m.Dab[a][b])]
    terms += [(("mid", c, k), f.mul(u, v))
              for c, u in enumerate(m.comm_cz[a][b]) if not f.is_zero(u)
              for k, v in m.star_tab[x][y]]
    n = m.npol[a][b]
    if not f.is_zero(n):
        c = f.neg(f.mul(f.of_int(2), n))
        terms += [(("inj", k), f.mul(c, v)) for k, v in enumerate(m.LL[x][y])]
    return terms


def tits_bracket(model: TitsModel, i: int, j: int) -> dict:
    """[e_i, e_j] of T(C, J) on two basis elements, as zero-free {k: v}.

    Applies the rule of the module docstring that the slot kinds of i
    and j select.  Both orders come from the rules, so that the
    SuperAlgebra constructor can cross-check super-anticommutativity.
    """
    m = model
    f = m.field
    p, q = m.slots[i], m.slots[j]
    kinds = (p[0], q[0])
    if kinds == ("der", "der"):
        terms = [(("der", k), v) for k, v in enumerate(m.DD[(p[1], q[1])])]
    elif kinds == ("der", "mid"):                    # [D, a⊗x] = D(a)⊗x
        terms = [(("mid", b, q[2]), v)
                 for b, v in enumerate(m.Dcz[p[1]][q[1]])]
    elif kinds == ("mid", "der"):                    # [a⊗x, D] = −D(a)⊗x
        terms = [(("mid", b, p[2]), f.neg(v))
                 for b, v in enumerate(m.Dcz[q[1]][p[1]])]
    elif kinds == ("inj", "mid"):                    # [d, a⊗x] = a⊗d(x)
        terms = [(("mid", q[1], k), v) for k, v in m.dJcol[p[1]][q[2] - 1]]
    elif kinds == ("mid", "inj"):        # [a⊗x, d] = −(−1)^{|x||d|} a⊗d(x)
        both_odd = q[1] >= m.n_inder_even and J_PARITY[p[2]]
        terms = [(("mid", p[1], k), v if both_odd else f.neg(v))
                 for k, v in m.dJcol[q[1]][p[2] - 1]]
    elif kinds == ("inj", "inj"):
        terms = [(("inj", k), v) for k, v in enumerate(m.dd[(p[1], q[1])])]
    elif kinds == ("mid", "mid"):
        terms = _middle_bracket(m, p[1], p[2], q[1], q[2])
    else:                                            # [D, d] = 0
        return {}
    return {m.index[s]: v for s, v in terms if not f.is_zero(v)}


_MODELS = {}
_ALGEBRAS = {}


def tits_model(kind, field: Field) -> TitsModel:
    key = (kind, field)
    if key not in _MODELS:
        _MODELS[key] = TitsModel(kind, field)
    return _MODELS[key]


def build_tits(kind, field: Field) -> SuperAlgebra:
    """Structure constants of T(C, Kac) over the ordered pinned basis.

    Both bracket orders are generated from the defining rules, so the
    constructor's folding pass cross-checks super-anticommutativity.
    """
    key = (kind, field)
    if key in _ALGEBRAS:
        return _ALGEBRAS[key]
    m = tits_model(kind, field)
    n = m.n0 + m.n1
    table = {(i, j): tits_bracket(m, i, j) for i in range(n) for j in range(n)}
    A = SuperAlgebra(f"T({kind})", field, m.n0, m.n1, m.labels, table,
                     odd_symmetric=True)
    _ALGEBRAS[key] = A
    return A


def unit_ideal_split(field: Field) -> dict:
    """T(unit, Kac) = inder J decomposes into two 5-dim simple ideals."""
    f = field
    T = build_tits("unit", field)
    solver = _j_tables(f).solver
    seeds = []
    for xj in (4, 2):     # x⊗e generates one copy, e⊗x the other
        d = inner_derivation_J(KacElement.basis(f, 1), KacElement.basis(f, xj))
        seeds.append(solver.coords(_flat(d)))
    I1 = ideal_closure(T, [seeds[0]])
    I2 = ideal_closure(T, [seeds[1]])
    span = RowSpace(f, 10)
    span.insert(I1)
    span.insert(I2)
    return {"dims": (len(I1), len(I2)), "joint_span": span.dim,
            "pass": len(I1) == 5 and len(I2) == 5 and span.dim == 10}


# ---------------------------------------------------------------------------
# the quadratic space M = C⁰ ⊕ U⊗U and so(M, Q)


class SoMQ(NamedTuple):
    """so(M, Q) with its pinned σ-basis over all index pairs i < j."""
    field: Field
    C: CompositionAlgebra
    cz: list
    gram: list
    pairs: list
    pair_index: dict
    mats: list
    algebra: SuperAlgebra
    solver: SpanSolver


def _sigma_terms(f, gram, pi, pj, pair_index):
    """[σ_{ab}, σ_{cd}] expanded over the σ basis (closed form)."""
    (a, b), (c, d) = pi, pj
    terms = {}

    def add(x, y, coef):
        if x == y or f.is_zero(coef):
            return
        if x > y:
            x, y, coef = y, x, f.neg(coef)
        k = pair_index[(x, y)]
        v = f.add(terms.get(k, f.zero()), coef)
        if f.is_zero(v):
            terms.pop(k, None)
        else:
            terms[k] = v

    add(c, b, gram[a][d])
    add(c, a, f.neg(gram[b][d]))
    add(d, b, f.neg(gram[a][c]))
    add(d, a, gram[b][c])
    return terms


def build_so_MQ(field: Field) -> SoMQ:
    """so(M, Q) for M = C⁰ ⊕ U⊗U (C the octonions), dim 11, so dim 55.

    Q restricted to C⁰ is the negated polar norm; on U⊗U it is
    Q(u₁⊗u₂, v₁⊗v₂) = -(u₁|v₁)(u₂|v₂); the blocks are orthogonal.
    """
    f = field
    C = make_composition("octonion", f)
    cz = C.czero_basis()
    n = 11
    gram = [[f.zero()] * n for _ in range(n)]
    for i in range(7):
        for j in range(7):
            gram[i][j] = f.neg(f.raw(C.norm_polar(cz[i], cz[j])))
    for r, (u1, u2) in enumerate(UU_PAIRS):
        for s, (v1, v2) in enumerate(UU_PAIRS):
            gram[7 + r][7 + s] = f.neg(
                f.raw(Fraction(K_FORM[u1][v1] * K_FORM[u2][v2])))
    try:
        inv_field(gram, f)
    except ValueError:
        raise DegenerateForm("Q is singular on M")

    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    pair_index = {p: k for k, p in enumerate(pairs)}
    mats = []
    for (i, j) in pairs:
        mat = [[f.zero()] * n for _ in range(n)]
        for k in range(n):
            mat[j][k] = gram[i][k]
            mat[i][k] = f.neg(gram[j][k])
        mats.append(mat)

    # closed-form structure constants, checked against matrix commutators
    table = {}
    for pi in range(len(pairs)):
        for pj in range(pi, len(pairs)):
            terms = _sigma_terms(f, gram, pairs[pi], pairs[pj], pair_index)
            com = _mat_sub(f, matmul_field(mats[pi], mats[pj], f),
                           matmul_field(mats[pj], mats[pi], f))
            want = [[f.zero()] * n for _ in range(n)]
            for k, v in terms.items():
                for r in range(n):
                    for c in range(n):
                        want[r][c] = f.add(want[r][c], f.mul(v, mats[k][r][c]))
            if want != com:
                raise VerificationFailed(
                    f"sigma bracket mismatch at pairs {pairs[pi]},{pairs[pj]}")
            if terms:
                table[(pi, pj)] = terms
    labels = [f"s{i},{j}" for i, j in pairs]
    algebra = SuperAlgebra("so(M,Q)", f, len(pairs), 0, labels, table,
                           odd_symmetric=False)
    solver = SpanSolver(f, [_flat(mm) for mm in mats])
    return SoMQ(f, C, cz, gram, pairs, pair_index, mats, algebra, solver)


# ---------------------------------------------------------------------------
# Φ₀ : T(C, J)₀ → so(M, Q)   (characteristic 5)


def _first_bad_pair(mat, A, B):
    """First basis pair of A whose bracket is not preserved by mat."""
    f = A.field
    n = A.dim
    cols = [[mat[r][j] for r in range(B.dim)] for j in range(n)]
    for i in range(n):
        for j in range(i, n):
            lhs = B.bracket_vectors(cols[i], cols[j])
            rhs = [f.zero()] * B.dim
            for k, v in A.bracket_terms(i, j).items():
                for r in range(B.dim):
                    rhs[r] = f.add(rhs[r], f.mul(v, mat[r][k]))
            if lhs != rhs:
                return (A.labels[i], A.labels[j])
    return None


def _phi0_matrix(model: TitsModel, somq: SoMQ):
    """Columns: so(M,Q)-coordinates of the images of the even T basis."""
    f = model.field
    C, cz = model.C, model.cz
    cols = []
    for slot in model.slots[:model.n0]:
        if slot[0] == "der":
            blk = _restrict_to_czero(C, model.derC[slot[1]])
            X = [[f.zero()] * 11 for _ in range(11)]
            for r in range(7):
                for c in range(7):
                    X[r][c] = blk[r][c]
            cc = somq.solver.coords(_flat(X))
        elif slot[0] == "mid" and slot[2] == 1:       # a⊗(e⊗e) -> -ad_a
            blk = _restrict_to_czero(C, ad_matrix(C, cz[slot[1]]))
            X = [[f.zero()] * 11 for _ in range(11)]
            for r in range(7):
                for c in range(7):
                    X[r][c] = f.neg(blk[r][c])
            cc = somq.solver.coords(_flat(X))
        elif slot[0] == "mid":                        # a⊗(u⊗v) -> σ_{a,u⊗v}
            k = somq.pair_index[(slot[1], 7 + UU_POS[slot[2]])]
            cc = [f.zero()] * 55
            cc[k] = f.one()
        else:                                         # inder, even part
            d = model.inder[slot[1]]
            # must kill e⊗e (local 0) and preserve U⊗U (locals 4,5,7,8)
            uu_loc = (4, 5, 7, 8)
            if any(not f.is_zero(d[r][0]) for r in range(9)):
                raise VerificationFailed("even inner derivation moves e⊗e")
            if any(not f.is_zero(d[0][c]) for c in uu_loc):
                raise VerificationFailed(
                    "even inner derivation leaks U⊗U into e⊗e")
            X = [[f.zero()] * 11 for _ in range(11)]
            for r, lr in enumerate(uu_loc):
                for c, lc in enumerate(uu_loc):
                    X[7 + r][7 + c] = d[lr][lc]
            cc = somq.solver.coords(_flat(X))
        if cc is None:
            raise VerificationFailed(
                f"image of even slot {slot} is not in so(M,Q)")
        cols.append(cc)
    return [[cols[j][r] for j in range(len(cols))] for r in range(55)]


_CTX = {}


class _Context:
    """Shared char-5 pipeline data for the octonion model."""

    __slots__ = ("field", "model", "T", "somq", "phi0_mat", "psi", "rho",
                 "phi1_mat")

    def __init__(self, field):
        self.field = field
        self.model = tits_model("octonion", field)
        self.T = build_tits("octonion", field)
        self.somq = None
        self.phi0_mat = None
        self.psi = None
        self.rho = None
        self.phi1_mat = None


def _context(field: Field) -> _Context:
    if field.p != 5:
        raise ValueError("characteristic 5 required")
    if field not in _CTX:
        _CTX[field] = _Context(field)
    return _CTX[field]


def phi0(field: Field) -> dict:
    """Verified Lie isomorphism T(octonion, Kac)₀ → so(M, Q), char 5."""
    ctx = _context(field)
    if ctx.somq is None:
        ctx.somq = build_so_MQ(field)
    if ctx.phi0_mat is None:
        ctx.phi0_mat = _phi0_matrix(ctx.model, ctx.somq)
    mat = ctx.phi0_mat
    f = field
    try:
        inv_field(mat, f)
    except ValueError:
        raise VerificationFailed("phi0 matrix is singular")
    T0 = even_subalgebra(ctx.T, check=False)
    if not verify_isomorphism(mat, T0, ctx.somq.algebra):
        bad = _first_bad_pair(mat, T0, ctx.somq.algebra)
        raise VerificationFailed(f"phi0 bracket mismatch at pair {bad}")
    return {"matrix": mat, "rank": 55, "verified": True}


# ---------------------------------------------------------------------------
# the spin realization on C ⊗ (U ⊕ U)


def _np(mat, p):
    return np.array([[int(x) % p for x in row] for row in mat],
                    dtype=np.int64)


def _psi_images(ctx: _Context):
    """Ψ on the 11 M-basis vectors, as 32×32 matrices mod p.

    Spin space index: 4·(C index) + slot with slots (x;0),(y;0),(0;x),(0;y).
    """
    f = ctx.field
    p = f.p
    C, cz = ctx.model.C, ctx.model.cz
    psi = []
    for a in cz:
        La = np.zeros((8, 8), dtype=np.int64)
        for c in range(8):
            ec = C.zero()
            ec[c] = f.one()
            img = C.multiply(a, ec)
            for r in range(8):
                La[r, c] = int(img[r]) % p
        P = np.zeros((32, 32), dtype=np.int64)
        for s in range(4):
            sign = p - 1 if s < 2 else 1
            P[s::4, s::4] = (La * sign) % p
        psi.append(P)
    form = [[int(f.raw(Fraction(v))) % p for v in row] for row in K_FORM]
    for (u1, u2) in UU_PAIRS:
        op = np.zeros((4, 4), dtype=np.int64)
        # (w1; w2) -> ((u2|w2)·u1 ; (u1|w1)·u2)
        for win, wk in ((0, 1), (1, 2)):              # w1 = x, y
            op[(u2 - 1) + 2, win] = form[u1][wk]
        for win, wk in ((2, 1), (3, 2)):              # w2 = x, y
            op[u1 - 1, win] = form[u2][wk]
        P = np.zeros((32, 32), dtype=np.int64)
        for c in range(8):
            P[4 * c:4 * c + 4, 4 * c:4 * c + 4] = op
        psi.append(P % p)
    return psi


def spin_map_psi(field: Field) -> dict:
    """Clifford generator images Ψ(M basis) on C ⊗ (U ⊕ U), verified.

    Checks Ψ(z)Ψ(z') + Ψ(z')Ψ(z) = Q(z,z')·id on all generator pairs,
    that ρ(σ) = -½[Ψ(x),Ψ(y)] is a representation of so(M,Q), and the
    closed form ρ(σ_{a,u₁⊗u₂}) = -Ψ(a)Ψ(u₁⊗u₂) = L_a ⊗ offdiag.
    """
    ctx = _context(field)
    if ctx.somq is None:
        ctx.somq = build_so_MQ(field)
    f = field
    p = f.p
    somq = ctx.somq
    psi = _psi_images(ctx)
    gram = _np(somq.gram, p)
    eye = np.eye(32, dtype=np.int64)
    checked = 0
    for i in range(11):
        for j in range(i, 11):
            anti = (psi[i] @ psi[j] + psi[j] @ psi[i]) % p
            if not np.array_equal(anti, (int(gram[i][j]) * eye) % p):
                raise RelationFailed(
                    f"Clifford relation fails on generators ({i},{j})")
            checked += 1

    neg_half = int(f.raw(Fraction(-1, 2))) % p
    rho = []
    for (i, j) in somq.pairs:
        rho.append((neg_half * (psi[i] @ psi[j] - psi[j] @ psi[i])) % p)

    # representation property against the closed-form σ brackets
    for pi in range(55):
        for pj in range(pi + 1, 55):
            com = (rho[pi] @ rho[pj] - rho[pj] @ rho[pi]) % p
            want = np.zeros((32, 32), dtype=np.int64)
            terms = _sigma_terms(f, somq.gram, somq.pairs[pi],
                                 somq.pairs[pj], somq.pair_index)
            for k, v in terms.items():
                want = (want + (int(v) % p) * rho[k]) % p
            if not np.array_equal(com, want):
                raise RelationFailed(
                    f"spin rep fails on σ pairs {pi},{pj}")
            checked += 1

    # explicit mixed-pair form: -Ψ(a)Ψ(u₁⊗u₂), block off-diagonal in U⊕U
    for ai in range(7):
        for k in range(4):
            pk = somq.pair_index[(ai, 7 + k)]
            direct = (-(psi[ai] @ psi[7 + k])) % p
            if not np.array_equal(rho[pk], direct):
                raise RelationFailed(
                    f"ρ(σ_a,u⊗u') ≠ -Ψ(a)Ψ(u⊗u') at ({ai},{k})")
            blk = psi[7 + k][:4, :4].copy()
            blk[2:, :] = (-blk[2:, :]) % p            # offdiag(+ ; -) flip
            want = np.zeros((32, 32), dtype=np.int64)
            La = psi[ai][0::4, 0::4] * (p - 1) % p    # slot 0 carries -L_a
            for s2 in range(4):
                for s in range(4):
                    if blk[s2, s]:
                        want[s2::4, s::4] = (blk[s2, s] * La) % p
            if not np.array_equal(rho[pk], want):
                raise RelationFailed(
                    f"ρ(σ_a,u⊗u') closed form fails at ({ai},{k})")
            checked += 1

    ctx.psi = psi
    ctx.rho = rho
    return {"psi": [m.tolist() for m in psi], "checked": checked,
            "verified": True}


# ---------------------------------------------------------------------------
# Φ₁ : T(C, J)₁ → C ⊗ (U ⊕ U)


def _phi1_matrix(ctx: _Context):
    """Columns: spin coordinates of the odd T basis.

    a⊗(u⊗e) and a⊗(e⊗u) go to a⊗(u;0) and a⊗(0;u); the odd inner
    derivation [L_e,L_{u₁}]⊗id + id⊗[L_e,L_{u₂}] goes to -½·1⊗(u₁;u₂).
    """
    f = ctx.field
    p = f.p
    model = ctx.model
    C, cz = model.C, model.cz
    named = []
    for xj in (4, 7, 2, 3):     # slot order: (x;0), (y;0), (0;x), (0;y)
        d = inner_derivation_J(KacElement.basis(f, 1), KacElement.basis(f, xj))
        named.append([f.mul(f.of_int(4), x) for x in _flat(d)])
    odd_solver = SpanSolver(f, named)
    neg_half = int(f.raw(Fraction(-1, 2))) % p
    unit = [int(x) % p for x in C.unit]
    cols = []
    for slot in model.slots[model.n0:]:
        v = np.zeros(32, dtype=np.int64)
        if slot[0] == "mid":
            s = SLOT_OF[slot[2]]
            a = cz[slot[1]]
            for c in range(8):
                v[4 * c + s] = int(a[c]) % p
        else:
            d = model.inder[slot[1]]
            al = odd_solver.coords(_flat(d))
            if al is None:
                raise VerificationFailed(
                    "odd inner derivation outside the named span")
            for s in range(4):
                w = (neg_half * int(al[s])) % p
                if w:
                    for c in range(8):
                        if unit[c]:
                            v[4 * c + s] = (w * unit[c]) % p
        cols.append(v)
    return np.stack(cols, axis=1) % p


def phi1_intertwine(field: Field, negate_index=None) -> dict:
    """Check Φ₁([p, w]) = ρ(Φ₀(p))·Φ₁(w) on all even×odd basis pairs.

    negate_index flips the sign of one Φ₁ column first (negative
    control); returns a witness dict instead of raising.
    """
    ctx = _context(field)
    phi0(field)
    if ctx.rho is None:
        spin_map_psi(field)
    f = field
    p = f.p
    if ctx.phi1_mat is None:
        ctx.phi1_mat = _phi1_matrix(ctx)
    phi1 = ctx.phi1_mat.copy()
    if negate_index is not None:
        phi1[:, negate_index] = (-phi1[:, negate_index]) % p
    try:
        inv_modp(phi1, p)
    except ValueError:
        raise VerificationFailed("phi1 matrix is singular")
    rho_stack = np.stack(ctx.rho)                 # (55, 32, 32)
    phi0_np = _np(ctx.phi0_mat, p)
    adT = _block(ctx.T, 0, 1, 1)
    checked = 0
    for a in range(55):
        R = np.tensordot(phi0_np[:, a], rho_stack, axes=1) % p
        lhs = (phi1 @ adT[a]) % p
        rhs = (R @ phi1) % p
        if not np.array_equal(lhs, rhs):
            j = int(np.nonzero((lhs - rhs) % p)[1][0])
            return {"pass": False, "checked": checked,
                    "witness": {"even": ctx.T.labels[a],
                                "odd": ctx.T.labels[ctx.T.n0 + j],
                                "lhs": lhs[:, j].tolist(),
                                "rhs": rhs[:, j].tolist()}}
        checked += 32
    return {"pass": True, "checked": checked, "witness": None}


# ---------------------------------------------------------------------------
# cross-identification with the l=5 type-B model


def _sqrt_modp(a, p):
    a %= p
    return next((t for t in range(1, p) if t * t % p == a), None)


def _find_isotropic(rows, bil, p, rng):
    """Nonzero isotropic combination of the given basis rows."""
    d = len(rows)
    n = len(rows[0])

    def comb(coeffs):
        v = [0] * n
        for c, row in zip(coeffs, rows):
            if c:
                for k in range(n):
                    v[k] = (v[k] + c * row[k]) % p
        return v

    for _ in range(800):
        coeffs = [rng.randrange(p) for _ in range(d)]
        if not any(coeffs):
            continue
        v = comb(coeffs)
        if bil(v, v) == 0:
            return v
    for coeffs in itertools.product(range(p), repeat=d):
        if not any(coeffs):
            continue
        v = comb(coeffs)
        if bil(v, v) == 0:
            return v
    return None


def _hyperbolic_columns(gram, p, seed):
    """Basis (r, z₁..z₅, f₁..f₅) with B(r,r) = -2, B(zᵢ,fᵢ) = 1, rest 0.

    Returns the list of column vectors, or None when the leftover
    1-dim value is not -2 times a square (wrong discriminant class).
    """
    n = len(gram)

    def bil(x, y):
        return sum(x[i] * gram[i][j] * y[j] for i in range(n)
                   for j in range(n)) % p

    rng = random.Random(seed)
    cur = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    inv2 = pow(2, p - 2, p)
    zs, fs = [], []
    for _ in range(5):
        z = _find_isotropic(cur, bil, p, rng)
        if z is None:
            return None
        y = next((w for w in cur if bil(z, w)), None)
        if y is None:
            return None
        c = pow(bil(z, y), p - 2, p)
        y = [v * c % p for v in y]
        c = bil(y, y) * inv2 % p
        fv = [(yv - c * zv) % p for yv, zv in zip(y, z)]
        zs.append(z)
        fs.append(fv)
        # orthogonal complement of the plane, row-reduced to a basis
        proj = []
        for w in cur:
            bf, bz = bil(w, fv), bil(w, z)
            proj.append([(wv - bf * zv - bz * fvv) % p
                         for wv, zv, fvv in zip(w, z, fv)])
        R, piv = rref_modp(np.array(proj, dtype=np.int64), p)
        cur = [R[i].tolist() for i in range(len(piv))]
    if len(cur) != 1:
        return None
    r = cur[0]
    val = bil(r, r)
    t = val * pow((-2) % p, p - 2, p) % p
    sq = _sqrt_modp(t, p)
    if sq is None:
        return None
    c = pow(sq, p - 2, p)
    r = [v * c % p for v in r]
    return [r] + zs + fs


def _intertwining_defect(r1, r2, N, p):
    """Columns vec(r2·S − S·r1) mod p, one per candidate vec(S) in the rows
    of N: the Kronecker product (r2 ⊗ I − I ⊗ r1ᵀ)·Nᵀ, never formed."""
    n = r1.shape[0]
    d = N.shape[0]
    S = N.reshape(d, n, n)
    left = matmul_modp(r2, S.transpose(1, 0, 2).reshape(n, d * n), p)
    left = left.reshape(n, d, n).transpose(1, 0, 2)
    right = matmul_modp(N.reshape(d * n, n), r1, p).reshape(d, n, n)
    return np.ascontiguousarray(((left - right) % p).reshape(d, n * n).T)


def _odd_intertwiner(rep1, rep2, p):
    """The n×n matrix S with rep2[a]·S = S·rep1[a] mod p for every a.

    Starts from all n² candidates vec(S) and cuts them down one generator
    at a time to the nullspace of the stacked defects rep2[a]·S − S·rep1[a];
    the survivor is rechecked against every generator.  Raises
    VerificationFailed unless the solutions form a line of invertible
    matrices.
    """
    n = rep1[0].shape[0]
    N = np.eye(n * n, dtype=np.int64)
    for a in range(len(rep1)):
        coeff = nullspace_modp(_intertwining_defect(rep1[a], rep2[a], N, p), p)
        N = matmul_modp(coeff, N, p)
        if N.shape[0] == 0:
            raise VerificationFailed("no odd intertwiner exists")
        if N.shape[0] == 1:
            break
    for a in range(len(rep1)):
        if _intertwining_defect(rep1[a], rep2[a], N, p).any():
            raise VerificationFailed("odd intertwiner candidate fails")
    if N.shape[0] != 1:
        raise VerificationFailed(
            f"odd intertwiner space has dim {N.shape[0]}, expected 1")
    S = N[0].reshape(n, n)
    try:
        inv_modp(S, p)
    except ValueError:
        raise VerificationFailed("odd intertwiner is singular")
    return S


def _spinor_twist(gram, p):
    """g = r_u·r_v in SO(M, b), b the form with Gram matrix `gram`, whose
    spinor norm b(u,u)·b(v,v) is a non-square mod p.

    r_x is the reflection y ↦ y − 2·b(y,x)/b(x,x)·x.  u and v are taken in
    the fixed order eᵢ, eᵢ + t·eⱼ (i < j, t = 1..p−1): u is the first
    anisotropic vector, v the first whose value times b(u,u) is a
    non-square.  No randomness enters.
    """
    G = np.array(gram, dtype=np.int64) % p
    n = G.shape[0]
    eye = np.eye(n, dtype=np.int64)
    vectors = []
    for i in range(n):
        vectors.append(eye[i])
        vectors += [(eye[i] + t * eye[j]) % p
                    for j in range(i + 1, n) for t in range(1, p)]
    anisotropic = [(x, int(x @ G @ x) % p) for x in vectors]
    anisotropic = [(x, bx) for x, bx in anisotropic if bx]
    u, bu = anisotropic[0]
    v, bv = next(((x, bx) for x, bx in anisotropic
                  if _sqrt_modp(bu * bx, p) is None), (None, None))
    if v is None:
        raise IsometryNotFound("no reflection pair with non-square spinor norm")

    def reflection(x, bx):
        return (eye - 2 * pow(bx, p - 2, p) * np.outer(x, x @ G)) % p

    return reflection(u, bu) @ reflection(v, bv) % p


def _odd_proportionality(T, B5, theta, S, p):
    """The c in GF(p) with θ([x, y]) = c·[Sx, Sy] for all odd x, y of T."""
    n1 = S.shape[0]
    RT, RB = _block(T, 1, 1, 0), _block(B5, 1, 1, 0)   # (n1, 55, n1)
    n0 = RT.shape[1]
    # lhs[k, i, j] = θ([o_i, o_j])_k;  rhs[i, k, j] = [S o_i, S o_j]_k
    lhs = matmul_modp(theta, RT.transpose(1, 0, 2).reshape(n0, n1 * n1), p)
    lhs = lhs.reshape(n0, n1, n1)
    rhs = matmul_modp(S.T, RB.reshape(n1, n0 * n1), p)
    rhs = matmul_modp(rhs.reshape(n1 * n0, n1), S, p).reshape(n1, n0, n1)
    c_val = None
    for i in range(n1):
        for j in range(i, n1):
            l_ij, r_ij = lhs[:, i, j], rhs[i, :, j]
            lz, rz = not l_ij.any(), not r_ij.any()
            if lz != rz:
                raise ScalingNotFound(
                    f"odd bracket support differs at ({i},{j})")
            if lz:
                continue
            k = int(np.nonzero(r_ij)[0][0])
            r = int(l_ij[k]) * pow(int(r_ij[k]), p - 2, p) % p
            if not np.array_equal(l_ij, r_ij * r % p):
                raise ScalingNotFound(
                    f"odd brackets not proportional at ({i},{j})")
            if c_val is None:
                c_val = r
            elif c_val != r:
                raise ScalingNotFound(
                    f"inconsistent proportionality {c_val} vs {r}")
    if c_val is None:
        raise ScalingNotFound("all odd-odd brackets vanished")
    return c_val


def cross_identify_with_typeB(field: Field, seed: int = 0) -> dict:
    """Explicit isomorphism T(octonion, Kac) ≅ so₁₁ ⊕ spin, both over GF(5).

    Builds an isometry τ: (W, q) → (M, sQ) for s in {1, 2} (exactly one
    discriminant class admits one; the isotropic search is seeded by
    `seed`) and transports Φ₀ through it into the natural so-basis (θ).
    The odd intertwiner S is the unique solution of rep₂(a)·S = S·rep₁(a)
    over the 55 even basis elements, found by cutting the 1024 candidates
    with stacked 32×32 products mod p (`_odd_intertwiner`).  The odd-odd
    brackets then agree up to a factor c, and S is rescaled by μ with
    μ² = c.  When c is a non-square, τ is composed once with a product of
    two reflections of non-square spinor norm (`_spinor_twist`, chosen
    without randomness), which multiplies c by a non-square, and S and c
    are solved again.  The assembled map is verified bracket by bracket.
    Returns "holds over quadratic extension" if the twisted c is still a
    non-square.
    """
    ctx = _context(field)
    phi0(field)
    f = field
    p = f.p
    B5 = build_superalgebra(5, "B", field)
    space = ambient_space(5, "B")
    G_W = [[int(f.raw(qpair(space, a, b))) % p for b in range(11)]
           for a in range(11)]
    pb = pair_basis(5, "B")
    nats = []
    for k in range(len(pb.pairs)):
        m = [[0] * 11 for _ in range(11)]
        for (r, c, coeff) in nat_entries(5, "B")[k]:
            m[r][c] = (m[r][c] + coeff) % p
        nats.append(m)
    gw = np.array(G_W, dtype=np.int64)
    for k, m in enumerate(nats):
        X = np.array(m, dtype=np.int64)
        if ((X.T @ gw + gw @ X) % p).any():
            raise VerificationFailed(f"natural so matrix {k} not q-skew")
    nat_solver = SpanSolver(f, [_flat(m) for m in nats])

    gram_M = [[int(x) % p for x in row] for row in ctx.somq.gram]
    tau_cols = None
    scale = None
    for s in (1, 2):
        gs = [[v * s % p for v in row] for row in gram_M]
        cols = _hyperbolic_columns(gs, p, seed)
        if cols is not None:
            tau_cols, scale = cols, s
            gram_s = gs
            break
    if tau_cols is None:
        raise IsometryNotFound("no discriminant class matched")
    GsN = np.array(gram_s, dtype=np.int64)

    phi0_np = _np(ctx.phi0_mat, p)
    mats_M = np.stack([_np(m, p) for m in ctx.somq.mats])
    adT = _block(ctx.T, 0, 1, 1)                     # (55, 32, 32)
    rep2 = _block(B5, 0, 1, 1)

    def identify(Tau):
        """θ, S and the odd-odd proportionality c through the isometry Tau."""
        if not np.array_equal((Tau.T @ GsN @ Tau) % p, gw % p):
            raise IsometryNotFound("isometry transport check failed")
        Taui = inv_modp(Tau, p)
        # θ: T₀ coordinates → natural so₁₁ coordinates of the l=5 model
        theta_cols = []
        for a in range(55):
            X = np.tensordot(phi0_np[:, a], mats_M, axes=1) % p
            Y = (Taui @ X @ Tau) % p
            cc = nat_solver.coords([int(v) for v in Y.reshape(-1)])
            if cc is None:
                raise VerificationFailed("transported image not in so(W,q)")
            theta_cols.append([int(x) % p for x in cc])
        theta = np.array(theta_cols, dtype=np.int64).T % p
        theta_inv = inv_modp(theta, p)
        rep1 = [np.tensordot(theta_inv[:, a], adT, axes=1) % p
                for a in range(55)]
        S = _odd_intertwiner(rep1, rep2, p)
        return theta, S, _odd_proportionality(ctx.T, B5, theta, S, p)

    Tau = np.array(tau_cols, dtype=np.int64).T % p
    theta, S, c_val = identify(Tau)
    mu = _sqrt_modp(c_val, p)
    twisted = mu is None
    if twisted:
        theta, S, c_val = identify(_spinor_twist(gram_s, p) @ Tau % p)
        mu = _sqrt_modp(c_val, p)
    if mu is None:
        return {"status": "holds over quadratic extension",
                "verified": False, "matrix": None, "scale": scale,
                "proportionality": c_val, "spinor_twist": twisted}

    M_iso = [[f.zero()] * 87 for _ in range(87)]
    for r in range(55):
        for c in range(55):
            M_iso[r][c] = f.of_int(int(theta[r, c]))
    for r in range(32):
        for c in range(32):
            M_iso[55 + r][55 + c] = f.of_int(mu * int(S[r, c]) % p)
    if not verify_isomorphism(M_iso, ctx.T, B5):
        raise VerificationFailed("assembled isomorphism fails verification")

    eq_dim = equivariant_map_dim(rep2.tolist(), _block(B5, 0, 0, 0).tolist(),
                                 field=f)

    return {"status": "isomorphism", "verified": True, "matrix": M_iso,
            "scale": scale, "mu": mu, "proportionality": c_val,
            "equivariant_dim": eq_dim, "spinor_twist": twisted}
