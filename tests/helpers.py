"""Shared builders for the test suite."""

from spinlab.clifford import half_spin_masks, pair_basis, rho_tables, so_bracket_table


def rep_and_adjoint(l, kind, field, parity=None):
    """Dense matrices of the pair basis acting on the spin module (or on
    one half-spin block) and on so itself, as parallel generator lists."""
    f = field
    if parity is None:
        masks = list(range(1 << l))
    else:
        masks = list(half_spin_masks(l, parity))
    pos = {m: i for i, m in enumerate(masks)}
    ds = len(masks)
    tgt, cof = rho_tables(l, kind)
    npairs = len(pair_basis(l, kind).pairs)
    rep = []
    for k in range(npairs):
        M = [[f.zero()] * ds for _ in range(ds)]
        for m in masks:
            c = int(cof[k, m])
            if c:
                M[pos[int(tgt[k, m])]][pos[m]] = f.of_int(c)
        rep.append(M)
    adjoint = [[[f.zero()] * npairs for _ in range(npairs)] for _ in range(npairs)]
    for k1, k2, k3, coeff in zip(*(a.tolist() for a in so_bracket_table(l, kind))):
        adjoint[k1][k3][k2] = f.of_int(coeff)
    return rep, adjoint
