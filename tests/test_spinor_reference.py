"""The package's algebras against the gamma-matrix model of
spinor_reference, which shares none of their table code.

For every (kind, l) of CONTENTS an explicit isomorphism M from the package
algebra P over Q to the model R is built without search and checked by
verify_isomorphism:
- M is diagonal +-1 on the module masks.  Both tori are diagonal on masks
  with the same weights, so each root vector of P must map every edge
  x -> y of its action to a multiple of the one reference sigma that moves
  x to y.  The signs follow along a spanning tree of the edges of l simple
  root vectors, each fixed to ratio +1 (the torus of Spin leaves that
  choice free).
- On so, M is the trace duality of the two spin actions: the image of a
  pair B_a is sum_k tr(D rho(B_a) D sigma_k^-1) / 2^l sigma_k, over the
  whole exterior algebra (both halves for kind D), D the signs.
- R's odd bracket is scaled by the c that one bracket of P dictates.
"""
from fractions import Fraction
from math import gcd

import numpy as np
import pytest

from helpers import CONTENTS, mask_signs, traces
from spinor_reference import bracket_dict, model, reference_algebra
from spinlab import superalgebra
from spinlab.construct import build_superalgebra, module_masks
from spinlab.exterior import complement_form_signs
from spinlab.fields import GF, QQ, make_field
from spinlab.superalgebra import check_jacobi, verify_isomorphism


def isomorphism(l, kind):
    """(P, M, R): the package algebra over Q, the model scaled to match,
    and the map, an n x n array of Fractions."""
    P = build_superalgebra(l, kind, QQ)
    eps = mask_signs(l, kind)
    inv = model(l, kind).inverse_sign
    n0, n = P.n0, P.dim
    M = np.full((n, n), Fraction(0), dtype=object)
    T = traces(l, kind, eps)
    for a, k in zip(*np.nonzero(T)):
        M[k, a] = Fraction(int(T[a, k] * inv[k]), 1 << l)
    masks = module_masks(l, kind)
    M[np.arange(n0, n), np.arange(n0, n)] = [Fraction(int(eps[m])) for m in masks]
    # c from the first odd bracket of P: M [e_i, e_j] = c [M e_i, M e_j]
    I, J = P.coo[:2]
    i, j = next((i, j) for i, j in zip(I.tolist(), J.tolist()) if n0 <= i <= j)
    image = sum((v * M[:n0, k] for k, v in P.bracket_terms(i, j).items()),
                np.zeros(n0, dtype=object))
    ref = bracket_dict(model(l, kind))[i, j]
    k = next(iter(ref))
    c = image[k] / (ref[k] * M[i, i] * M[j, j])
    return P, M, reference_algebra(l, kind, QQ, c)


def odd_part(g):
    while g and g % 2 == 0:
        g //= 2
    return g


@pytest.mark.parametrize("kind,l", list(CONTENTS))
def test_reference_is_isomorphic_to_the_package_algebra(kind, l):
    P, M, R = isomorphism(l, kind)
    assert (R.n0, R.n1) == (P.n0, P.n1)
    assert R.odd_symmetric == P.odd_symmetric, (kind, l)
    assert (M != 0).sum(0).max() <= 4
    assert verify_isomorphism(M, P, R), (kind, l)
    # the model's scale is +-2^k, so the odd part of its Jacobi content is
    # the package's, and it decides every verdict of the grid
    rows = superalgebra._JacobiRows(lambda: R)
    content = gcd(*(g for i in range(R.dim) for _, g in rows.row(i)))
    assert odd_part(content) == odd_part(CONTENTS[kind, l])
    for ch in (0, 3, 5, 7):
        want = check_jacobi(build_superalgebra(l, kind, make_field(ch))).jacobi_pass
        assert (content % ch == 0 if ch else content == 0) == want, (kind, l, ch)


@pytest.mark.parametrize("kind,l", [(k, l) for k, l in CONTENTS if l <= 6])
def test_reference_verdicts_from_its_own_tables_over_each_field(kind, l):
    for p in (3, 5, 7):
        f = GF(p)
        got = check_jacobi(reference_algebra(l, kind, f), witness_cap=1).jacobi_pass
        assert got == check_jacobi(build_superalgebra(l, kind, f)).jacobi_pass, p


def test_a_wrong_map_is_refused():
    # the check has teeth: one flipped mask sign breaks the isomorphism
    P, M, R = isomorphism(3, "B")
    M[P.n0 + 5, P.n0 + 5] *= -1
    assert not verify_isomorphism(M, P, R)


@pytest.mark.parametrize("kind,l", [("B", l) for l in range(1, 9)]
                         + [("D", 2), ("D", 4), ("D", 6), ("D", 8)])
def test_pairing_form_is_the_reference_form(kind, l):
    # b (kind B) or bhat (kind D) pairs a mask with its complement alone;
    # in the signs D it is kappa C, one kappa for each half of a kind D
    # module, since an invariant form on an irreducible module is unique
    # up to a scalar
    C_perm, C_sign = model(l, kind).C
    masks = np.arange(1 << l)
    top = (1 << l) - 1
    assert (C_perm == top ^ masks).all()
    eps = mask_signs(l, kind)
    got = complement_form_signs(l, kind == "D")[top ^ masks]     # at (~t, t)
    kappa = got * eps[top ^ masks] * eps * C_sign
    for half in (0, 1) if kind == "D" else (None,):
        at = masks if half is None else masks[np.bitwise_count(masks) % 2 == half]
        assert len(set(kappa[at].tolist())) == 1, (kind, l, half)
