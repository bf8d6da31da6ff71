"""Quadratic ambient spaces, their orthogonal Lie algebras on the pair
basis {[w_a,w_b]. : a < b}, and the spin action on the exterior algebra.

Ambient basis order is (u,) v_1..v_l, f_1..f_l: kind "B" is the odd,
(2l+1)-dimensional space with q(u) = -1, kind "D" drops u.  The only
nonzero polarized pairings are q(u,u) = -2 and q(v_i,f_j) = delta_ij.

Everything structural here is integer arithmetic independent of the
field: a pair [w_a,w_b]. sends each monomial mask to a single target
mask with coefficient in {+-1,+-2}; its adjoint action on the ambient
space has exactly two entries; and the Gram matrix of the trace form
(1/2)tr(XY) on the pair basis is monomial -- one nonzero per row, with
values in {4, 8, -4}.  The cached integer tables below exploit all of
this, so field arithmetic only enters when a caller asks for elements or
matrices over a specific field.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .exterior import Multivector, wedge_sign
from .fields import Field, FieldMismatch
from .superalgebra import VerificationFailed


class DegenerateForm(ArithmeticError):
    """The trace form is singular over the requested field."""


# ---------------------------------------------------------------------------
# ambient space bookkeeping


class AmbientSpace(NamedTuple):
    l: int
    kind: str
    dim: int
    labels: tuple          # index -> "u" / "v3" / "f1"
    partner: tuple         # index of the unique q-partner
    index: dict            # label -> index


def _check_kind(kind: str):
    if kind not in ("B", "D"):
        raise ValueError(f"kind must be 'B' or 'D', got {kind!r}")


def _check_rank(l: int):
    if l < 1:
        raise ValueError("need l >= 1")


def _check_pairs(l: int, kind: str):
    """ValueError unless (l, kind) has a pair basis: l >= 1, and l >= 2
    for kind D."""
    _check_kind(kind)
    _check_rank(l)
    if kind == "D" and l < 2:
        raise ValueError("kind D needs l >= 2")


@lru_cache(maxsize=None)
def ambient_space(l: int, kind: str) -> AmbientSpace:
    _check_kind(kind)
    _check_rank(l)
    off = 1 if kind == "B" else 0
    labels = (("u",) if off else ()) + \
        tuple(f"v{i}" for i in range(1, l + 1)) + \
        tuple(f"f{i}" for i in range(1, l + 1))
    # u is self-paired; v_i pairs with f_i
    partner = ((0,) if off else ()) + \
        tuple(off + l + i for i in range(l)) + \
        tuple(off + i for i in range(l))
    return AmbientSpace(l, kind, 2 * l + off, labels, partner,
                        {s: i for i, s in enumerate(labels)})


def qpair(space: AmbientSpace, a: int, b: int) -> int:
    """Polarized form on ambient basis indices, as an integer; ValueError
    for an index outside range(space.dim)."""
    for x in (a, b):
        if not 0 <= x < space.dim:
            raise ValueError(f"ambient index {x!r} outside range({space.dim})")
    if space.kind == "B" and a == 0 and b == 0:
        return -2
    return 1 if a != b and space.partner[a] == b else 0


def _tag(space: AmbientSpace, idx: int):
    """('u', 0) or ('v', bit) or ('f', bit) with bit = 1 << (i-1)."""
    lab = space.labels[idx]
    if lab == "u":
        return ("u", 0)
    return (lab[0], 1 << (int(lab[1:]) - 1))


# ---------------------------------------------------------------------------
# pair basis of so = [W,W].


class PairBasis(NamedTuple):
    l: int
    kind: str
    pairs: tuple           # k -> (a, b) ambient indices, a < b
    labels: tuple          # k -> "[v1,f2]"
    index: dict            # (a, b) -> k
    cartan: tuple          # indices k of the pairs [v_i,f_i]


@lru_cache(maxsize=None)
def pair_basis(l: int, kind: str) -> PairBasis:
    _check_pairs(l, kind)
    space = ambient_space(l, kind)
    pairs = []
    for a in range(space.dim):
        for b in range(a + 1, space.dim):
            pairs.append((a, b))
    labels = tuple(f"[{space.labels[a]},{space.labels[b]}]" for a, b in pairs)
    index = {ab: k for k, ab in enumerate(pairs)}
    off = 1 if kind == "B" else 0
    cartan = tuple(index[(off + i, off + l + i)] for i in range(l))
    return PairBasis(l, kind, tuple(pairs), labels, index, cartan)


def so_dim(l: int, kind: str) -> int:
    _check_pairs(l, kind)
    return l * (2 * l + 1) if kind == "B" else l * (2 * l - 1)


def cartan_indices(l: int, kind: str = "B") -> list:
    return list(pair_basis(l, kind).cartan)


# ---------------------------------------------------------------------------
# integer action tables


def _contract_sign(mask: int, bit: int) -> int:
    return -1 if (mask & (bit - 1)).bit_count() & 1 else 1


def _pair_action(space: AmbientSpace, a: int, b: int, mask: int):
    """(target_mask, integer coefficient) of [w_a,w_b]. acting on a monomial.

    The pair acts through the composition of the two generator actions
    (left wedge for v_i, contraction for f_i); pairs involving u act as
    twice the single remaining generator.  Coefficient 0 encodes the
    zero result.
    """
    ta, xa = _tag(space, a)
    tb, xb = _tag(space, b)
    if ta == "u":
        # [u, x]. acts as 2*Lambda(x)
        if tb == "v":
            if mask & xb:
                return mask, 0
            return mask | xb, 2 * wedge_sign(xb, mask)
        if mask & xb:
            return mask ^ xb, 2 * _contract_sign(mask, xb)
        return mask, 0
    if ta == "v" and tb == "v":
        both = xa | xb
        if mask & both:
            return mask, 0
        return mask | both, 2 * wedge_sign(both, mask)
    if ta == "v" and tb == "f":
        if xa == xb:
            # diagonal: eigenvalue +1 on monomials containing v_i, else -1
            return mask, 1 if mask & xa else -1
        if (mask & xb) and not (mask & xa):
            m1 = mask ^ xb
            return m1 | xa, 2 * _contract_sign(mask, xb) * wedge_sign(xa, m1)
        return mask, 0
    # f, f
    both = xa | xb
    if mask & both == both:
        s = _contract_sign(mask, xb)
        return mask ^ both, 2 * s * _contract_sign(mask ^ xb, xa)
    return mask, 0


@lru_cache(maxsize=None)
def rho_tables(l: int, kind: str):
    """Integer spin-action tables (tgt, cof), each of shape (npairs, 2**l).

    Row k gives the action of the k-th basis pair on every monomial
    mask m: the image is cof[k,m] * monomial(tgt[k,m]).  Computed on the
    array of all masks at once; _pair_action is the per-monomial rule.
    A pair [w_a,w_b]. off the diagonal acts as 2 g_a g_b, g_u being the
    identity, g_v a left wedge and g_f a contraction by one generator
    (sign: the parity of the generators below it); [v_i,f_i]. acts as
    +1 on monomials containing v_i and -1 on the rest.
    """
    space = ambient_space(l, kind)
    tags = [_tag(space, x) for x in range(space.dim)]
    pairs = np.array(pair_basis(l, kind).pairs, dtype=np.int64).reshape(-1, 2)
    bit = np.array([x for _, x in tags], dtype=np.int64)
    is_f = np.array([t == "f" for t, _ in tags])
    masks = m = np.arange(1 << l, dtype=np.int64)
    ok = np.ones((len(pairs), masks.size), dtype=bool)
    odd = np.zeros(ok.shape, dtype=np.int64)
    for col in (1, 0):                  # g_b first, then g_a
        x, f = bit[pairs[:, col], None], is_f[pairs[:, col], None]
        ok &= (m & x != 0) == f
        odd += np.bitwise_count(m & np.maximum(x - 1, 0))
        m = m ^ x
    cof = np.where(ok, 2 - 4 * (odd & 1), 0)
    tgt = np.where(ok, m, masks)
    diag = bit[pairs[:, 0]] == bit[pairs[:, 1]]      # [v_i,f_i].
    cof[diag] = np.where(masks & bit[pairs[diag, 0], None], 1, -1)
    tgt, cof = tgt.astype(np.int32), cof.astype(np.int8)
    tgt.setflags(write=False)
    cof.setflags(write=False)
    return tgt, cof


@lru_cache(maxsize=None)
def nat_entries(l: int, kind: str):
    """Adjoint action on the ambient space: k -> ((row, col, coeff), ...).

    [[w_a,w_b]., w_c]. = 2 q(b,c) w_a - 2 q(a,c) w_b, so each pair has
    exactly two entries, at the columns of the partners of b and a.
    """
    space = ambient_space(l, kind)
    pb = pair_basis(l, kind)
    out = []
    for a, b in pb.pairs:
        ents = []
        pb_, pa_ = space.partner[b], space.partner[a]
        cb = 2 * qpair(space, b, pb_)
        if cb:
            ents.append((a, pb_, cb))
        ca = -2 * qpair(space, a, pa_)
        if ca:
            ents.append((b, pa_, ca))
        out.append(tuple(ents))
    return tuple(out)


@lru_cache(maxsize=None)
def gram_pairing(l: int, kind: str):
    """Monomial structure of the trace-form Gram matrix on the pair basis.

    Returns (perm, coef) with G[k, perm[k]] = coef[k] the only nonzero
    entry of row k.  The partner pair of (a,b) is sorted(partner(a),
    partner(b)); everything else traces to zero.
    """
    space = ambient_space(l, kind)
    pb = pair_basis(l, kind)
    nat = nat_entries(l, kind)
    npairs = len(pb.pairs)
    perm = np.empty(npairs, dtype=np.int64)
    coef = np.empty(npairs, dtype=np.int64)
    for k, (a, b) in enumerate(pb.pairs):
        mate = tuple(sorted((space.partner[a], space.partner[b])))
        k2 = pb.index[mate]
        tr = 0
        ent2 = {(r, c): w for r, c, w in nat[k2]}
        for r, c, w in nat[k]:
            tr += w * ent2.get((c, r), 0)
        if tr % 2 or not tr:
            raise VerificationFailed(f"trace pairing of pair {k} is {tr}, "
                                     "not a nonzero even integer")
        perm[k] = k2
        coef[k] = tr // 2
    # sanity: a permutation, and 8/coef is integral
    if sorted(perm.tolist()) != list(range(npairs)):
        raise VerificationFailed("trace-form partner pairs are not a permutation")
    if any(8 % int(c) for c in coef):
        raise VerificationFailed("a trace-form coefficient does not divide 8")
    perm.setflags(write=False)
    coef.setflags(write=False)
    return perm, coef


def so_constants(q):
    """Structure constants of so(q), q an integer symmetric Gram matrix, on
    the pair basis {[w_a,w_b]. : a < b} in index order.

    [[w_a,w_b].,[w_c,w_d].] expands by the adjoint rule applied twice:
    2 q(b,c)[w_a,w_d]. - 2 q(a,c)[w_b,w_d]. + 2 q(b,d)[w_c,w_a].
    - 2 q(a,d)[w_c,w_b].  Returns int64 COO arrays (k1, k2, k3, c), sorted
    and with no zero c: [B_k1, B_k2] has coefficient c at B_k3, mod p over
    GF(p).  ValueError unless q is a square symmetric integer matrix.
    """
    q = np.asarray(q)
    if q.dtype.kind not in "iu" or q.ndim != 2 or not np.array_equal(q, q.T):
        raise ValueError(f"not a square symmetric integer matrix: {q.dtype}{q.shape}")
    q, dim = q.astype(np.int64), len(q)
    a, b = np.triu_indices(dim, 1)
    npairs = a.size
    idx = np.zeros((dim, dim), dtype=np.int64)        # [w_x,w_y]. = sg * B_idx
    idx[a, b] = idx[b, a] = np.arange(npairs)
    sg = np.sign(np.arange(dim) - np.arange(dim)[:, None])    # x < y: +1
    a, b = a[:, None], b[:, None]
    c, d = a.T, b.T
    k1, k2 = np.indices((npairs, npairs))
    terms = ((2 * q[b, c], a, d), (-2 * q[a, c], b, d),
             (2 * q[b, d], c, a), (-2 * q[a, d], c, b))
    key = np.concatenate([((k1 * npairs + k2) * npairs + idx[x, y]).ravel()
                          for _, x, y in terms])
    coeff = np.concatenate([(w * sg[x, y]).ravel() for w, x, y in terms])
    key, coeff = key[coeff != 0], coeff[coeff != 0]
    key, at = np.unique(key, return_inverse=True)
    total = np.zeros(key.size, dtype=np.int64)
    np.add.at(total, at, coeff)
    key, total = key[total != 0], total[total != 0]
    return key // npairs // npairs, key // npairs % npairs, key % npairs, total


def ambient_gram(l: int, kind: str) -> np.ndarray:
    """The polarized form q on the ambient basis, as an int64 matrix."""
    space = ambient_space(l, kind)
    return np.array([[qpair(space, x, y) for y in range(space.dim)]
                     for x in range(space.dim)], dtype=np.int64)


@lru_cache(maxsize=None)
def so_bracket_table(l: int, kind: str):
    """so_constants of the Gram matrix of ambient_space(l, kind), read-only."""
    _check_pairs(l, kind)
    out = so_constants(ambient_gram(l, kind))
    for arr in out:
        arr.setflags(write=False)
    return out


def half_spin_masks(l: int, parity: int = 0) -> tuple:
    """Monomial masks of the given popcount parity, in increasing order."""
    _check_rank(l)
    if parity not in (0, 1):
        raise ValueError(f"parity must be 0 or 1, got {parity!r}")
    return tuple(m for m in range(1 << l) if m.bit_count() & 1 == parity)


# ---------------------------------------------------------------------------
# field-valued operators


class SpinOperator:
    """Operator on the monomial basis of the exterior algebra (or one of
    its parity blocks), stored column-sparse over an exact field."""

    __slots__ = ("l", "field", "masks", "_mset", "cols")

    def __init__(self, l: int, field: Field, masks, cols):
        self.l = l
        self.field = field
        self.masks = tuple(masks)
        self._mset = frozenset(self.masks)
        self.cols = cols

    @classmethod
    def identity(cls, l: int, field: Field, masks=None) -> "SpinOperator":
        if masks is None:
            masks = range(1 << l)
        one = field.one()
        return cls(l, field, masks, {m: {m: one} for m in masks})

    def _compat(self, other: "SpinOperator"):
        if not isinstance(other, SpinOperator):
            raise TypeError("expected SpinOperator")
        if other.l != self.l or other.masks != self.masks:
            raise ValueError("operators live on different bases")
        if other.field != self.field:
            raise FieldMismatch(f"{self.field} vs {other.field}")

    def apply(self, s: Multivector) -> Multivector:
        if s.l != self.l:
            raise ValueError("dimension mismatch")
        if s.field != self.field:
            raise FieldMismatch(f"{self.field} vs {s.field}")
        f = self.field
        out = {}
        for m, v in s.coeffs.items():
            if m not in self._mset:
                raise ValueError(f"monomial mask {m} outside operator domain")
            for r, w in self.cols.get(m, {}).items():
                f.add_into(out, r, f.mul(w, v))
        return Multivector(self.l, f, out)

    def __add__(self, other: "SpinOperator") -> "SpinOperator":
        self._compat(other)
        f = self.field
        cols = {c: dict(col) for c, col in self.cols.items()}
        for c, col in other.cols.items():
            dst = cols.setdefault(c, {})
            for r, w in col.items():
                f.add_into(dst, r, w)
            if not dst:
                del cols[c]
        return SpinOperator(self.l, f, self.masks, cols)

    def __neg__(self) -> "SpinOperator":
        f = self.field
        return SpinOperator(self.l, f, self.masks,
                            {c: {r: f.neg(w) for r, w in col.items()}
                             for c, col in self.cols.items()})

    def __sub__(self, other: "SpinOperator") -> "SpinOperator":
        return self + (-other)

    def scale(self, c) -> "SpinOperator":
        f = self.field
        raw = f.raw(c)
        if f.is_zero(raw):
            return SpinOperator(self.l, f, self.masks, {})
        return SpinOperator(self.l, f, self.masks,
                            {cc: {r: f.mul(raw, w) for r, w in col.items()}
                             for cc, col in self.cols.items()})

    def __matmul__(self, other: "SpinOperator") -> "SpinOperator":
        self._compat(other)
        f = self.field
        cols = {}
        for c, col in other.cols.items():
            dst = {}
            for k, w in col.items():
                for r, w2 in self.cols.get(k, {}).items():
                    f.add_into(dst, r, f.mul(w2, w))
            if dst:
                cols[c] = dst
        return SpinOperator(self.l, f, self.masks, cols)

    def __eq__(self, other):
        if not isinstance(other, SpinOperator):
            return NotImplemented
        return (self.l == other.l and self.field == other.field
                and self.masks == other.masks and self.cols == other.cols)

    def restrict(self, masks) -> "SpinOperator":
        """Restriction to an invariant sub-basis (e.g. a parity block)."""
        keep = frozenset(masks)
        cols = {}
        for c, col in self.cols.items():
            if c not in keep:
                continue
            if any(r not in keep for r in col):
                raise ValueError("sub-basis is not invariant")
            cols[c] = dict(col)
        return SpinOperator(self.l, self.field, tuple(masks), cols)

    def __repr__(self):
        nz = sum(len(c) for c in self.cols.values())
        return f"SpinOperator(l={self.l}, basis={len(self.masks)}, nnz={nz})"


def lambda_op(l: int, field: Field, v_coeffs, f_coeffs) -> SpinOperator:
    """Lambda(sum a_i v_i + sum b_i f_i): wedge by the v-part plus the odd
    contraction derivation of the f-part, on the full monomial basis."""
    if len(v_coeffs) != l or len(f_coeffs) != l:
        raise ValueError(f"need exactly {l} coefficients for each part")
    f = field
    va = [f.raw(c) for c in v_coeffs]
    fa = [f.raw(c) for c in f_coeffs]
    cols = {}
    for m in range(1 << l):
        dst = {}
        for i in range(l):
            bit = 1 << i
            if not f.is_zero(va[i]) and not m & bit:
                w = va[i] if wedge_sign(bit, m) > 0 else f.neg(va[i])
                f.add_into(dst, m | bit, w)
            if not f.is_zero(fa[i]) and m & bit:
                w = fa[i] if _contract_sign(m, bit) > 0 else f.neg(fa[i])
                f.add_into(dst, m ^ bit, w)
        if dst:
            cols[m] = dst
    return SpinOperator(l, field, range(1 << l), cols)


def rho_pair(l: int, field: Field, a: str, b: str, kind: str = "B") -> SpinOperator:
    """Spin action of the basis pair [w_a,w_b]. on the full monomial basis."""
    space = ambient_space(l, kind)
    try:
        ia, ib = space.index[a], space.index[b]
    except KeyError as e:
        raise ValueError(f"unknown ambient label {e.args[0]!r}") from None
    if ia == ib:
        raise ValueError("[w,w]. = 0 is not a basis pair")
    sign = 1
    if ia > ib:
        ia, ib = ib, ia
        sign = -1
    f = field
    cols = {}
    for m in range(1 << l):
        t, c = _pair_action(space, ia, ib, m)
        if c:
            cols[m] = {t: f.of_int(sign * c)}
    return SpinOperator(l, field, range(1 << l), cols)


# ---------------------------------------------------------------------------
# elements of so on the pair basis


class SoElement:
    """Element of so(W,q) (kind B) or so(V+V*,q) (kind D) in coordinates
    over the ordered pair basis."""

    __slots__ = ("l", "kind", "field", "coords")

    def __init__(self, l: int, kind: str, field: Field, coords):
        pb = pair_basis(l, kind)
        coords = list(coords)
        if len(coords) != len(pb.pairs):
            raise ValueError(f"need {len(pb.pairs)} coordinates")
        self.l = l
        self.kind = kind
        self.field = field
        self.coords = coords

    @classmethod
    def zero(cls, l: int, kind: str, field: Field) -> "SoElement":
        n = len(pair_basis(l, kind).pairs)
        z = field.zero()
        return cls(l, kind, field, [z] * n)

    @classmethod
    def pair(cls, l: int, kind: str, field: Field, a: str, b: str,
             coeff=1) -> "SoElement":
        """The element coeff*[w_a,w_b]., normalized to the a < b basis."""
        space = ambient_space(l, kind)
        pb = pair_basis(l, kind)
        try:
            ia, ib = space.index[a], space.index[b]
        except KeyError as e:
            raise ValueError(f"unknown ambient label {e.args[0]!r}") from None
        if ia == ib:
            raise ValueError("[w,w]. = 0 is not a basis pair")
        raw = field.raw(coeff)
        if ia > ib:
            ia, ib = ib, ia
            raw = field.neg(raw)
        out = cls.zero(l, kind, field)
        out.coords[pb.index[(ia, ib)]] = raw
        return out

    def _compat(self, other: "SoElement"):
        if not isinstance(other, SoElement):
            raise TypeError("expected SoElement")
        if (other.l, other.kind) != (self.l, self.kind):
            raise ValueError("mixed so contexts")
        if other.field != self.field:
            raise FieldMismatch(f"{self.field} vs {other.field}")

    def __add__(self, other: "SoElement") -> "SoElement":
        self._compat(other)
        f = self.field
        return SoElement(self.l, self.kind, f,
                         [f.add(x, y) for x, y in zip(self.coords, other.coords)])

    def __neg__(self) -> "SoElement":
        f = self.field
        return SoElement(self.l, self.kind, f, [f.neg(x) for x in self.coords])

    def __eq__(self, other):
        if not isinstance(other, SoElement):
            return NotImplemented
        return ((self.l, self.kind) == (other.l, other.kind)
                and self.field == other.field and self.coords == other.coords)

    def is_zero(self) -> bool:
        f = self.field
        return all(f.is_zero(x) for x in self.coords)

    def bracket(self, other: "SoElement") -> "SoElement":
        self._compat(other)
        f = self.field
        k1, k2, k3, c = so_bracket_table(self.l, self.kind)
        x, y = self.coords, other.coords
        live = [np.array([not f.is_zero(v) for v in vec]) for vec in (x, y)]
        hit = live[0][k1] & live[1][k2]
        out = SoElement.zero(self.l, self.kind, f)
        oc = out.coords
        for i, j, k, co in zip(*(arr[hit].tolist() for arr in (k1, k2, k3, c))):
            oc[k] = f.add(oc[k], f.mul(f.of_int(co), f.mul(x[i], y[j])))
        return out

    def __repr__(self):
        f = self.field
        pb = pair_basis(self.l, self.kind)
        parts = []
        for k, x in enumerate(self.coords):
            if f.is_zero(x):
                continue
            c = f.to_str(x)
            lbl = pb.labels[k]
            if c == "1":
                parts.append(lbl)
            elif c == "-1":
                parts.append(f"-{lbl}")
            else:
                parts.append(f"({c})*{lbl}")
        return " + ".join(parts) if parts else "0"


def so_bracket(X: SoElement, Y: SoElement) -> SoElement:
    return X.bracket(Y)


def natural_matrix(X: SoElement) -> list:
    """Matrix of w -> [X,w]. on the ambient basis (rows = outputs)."""
    f = X.field
    space = ambient_space(X.l, X.kind)
    nat = nat_entries(X.l, X.kind)
    n = space.dim
    rows = [[f.zero()] * n for _ in range(n)]
    for k, x in enumerate(X.coords):
        if f.is_zero(x):
            continue
        for r, c, co in nat[k]:
            rows[r][c] = f.add(rows[r][c], f.mul(f.of_int(co), x))
    return rows


def trace_form(X: SoElement, Y: SoElement):
    """(1/2) tr(natural(X) natural(Y)), through the cached monomial Gram, as a
    raw field value."""
    X._compat(Y)
    f = X.field
    perm, coef = gram_pairing(X.l, X.kind)
    acc = f.zero()
    for k, x in enumerate(X.coords):
        if f.is_zero(x):
            continue
        y = Y.coords[perm[k]]
        if f.is_zero(y):
            continue
        acc = f.add(acc, f.mul(f.of_int(int(coef[k])), f.mul(x, y)))
    return acc


def gram_matrix(l: int, kind: str, field: Field) -> list:
    """Gram matrix of the trace form on the pair basis, over the field.

    Monomial by construction; raises DegenerateForm if any of its
    entries vanishes in the field (never for odd characteristic).
    """
    perm, coef = gram_pairing(l, kind)
    f = field
    n = len(perm)
    rows = [[f.zero()] * n for _ in range(n)]
    for k in range(n):
        v = f.of_int(int(coef[k]))
        if f.is_zero(v):
            raise DegenerateForm(f"trace form singular over {field!r}")
        rows[k][perm[k]] = v
    return rows


def rho_of(X: SoElement, parity: int = None) -> SpinOperator:
    """Spin operator rho(X) over X's field on the full monomial basis, or on
    one parity block when parity is 0 or 1 (kind D half-spin)."""
    f = X.field
    tgt, cof = rho_tables(X.l, X.kind)
    cols = {}
    for k, x in enumerate(X.coords):
        if f.is_zero(x):
            continue
        trow, crow = tgt[k], cof[k]
        for m in range(1 << X.l):
            c = int(crow[m])
            if not c:
                continue
            dst = cols.setdefault(m, {})
            f.add_into(dst, int(trow[m]), f.mul(f.of_int(c), x))
            if not dst:
                del cols[m]
    op = SpinOperator(X.l, f, range(1 << X.l), cols)
    if parity is None:
        return op
    return op.restrict(half_spin_masks(X.l, parity))
