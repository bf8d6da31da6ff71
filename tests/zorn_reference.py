"""Zorn's vector-matrix model of the split octonions (M. Zorn, 1933).

The independent model that the integer tables of spinlab.composition are
checked against: it imports nothing from spinlab.  An element is a
vector matrix (alpha, a; b, beta), alpha and beta scalars, a and b in
k^3, with the product

    (alpha, a; b, beta)(alpha', a'; b', beta')
        = (alpha alpha' + a.b',  alpha a' + beta' a - b x b';
           alpha' b + beta b' + a x a',  beta beta' + b.a')

and the norm, the determinant, n = alpha beta - a.b.  It is written in
the coordinates of the paired basis, [alpha, beta, a1, a2, a3, b1, b2,
b3] against LABELS; the entries may be ints or Fractions, read mod p
over GF(p).
"""

LABELS = ("E1", "E2", "u1", "u2", "u3", "w1", "w2", "w3")
UNIT = (1, 1, 0, 0, 0, 0, 0, 0)          # the identity matrix (1, 0; 0, 1)


def _dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def _cross(u, v):
    return [u[1] * v[2] - u[2] * v[1],
            u[2] * v[0] - u[0] * v[2],
            u[0] * v[1] - u[1] * v[0]]


def zorn_product(x, y) -> list:
    ax, vx, wx, bx = x[0], x[2:5], x[5:8], x[1]
    ay, vy, wy, by = y[0], y[2:5], y[5:8], y[1]
    alpha = ax * ay + _dot(vx, wy)
    beta = bx * by + _dot(wx, vy)
    v = [ax * c2 + by * c1 - c3 for c1, c2, c3 in zip(vx, vy, _cross(wx, wy))]
    w = [ay * c1 + bx * c2 + c3 for c1, c2, c3 in zip(wx, wy, _cross(vx, vy))]
    return [alpha, beta] + v + w


def zorn_norm(x):
    return x[0] * x[1] - _dot(x[2:5], x[5:8])


def zorn_polar(x, y):
    """n(x, y) = n(x + y) - n(x) - n(y)."""
    return zorn_norm([a + b for a, b in zip(x, y)]) - zorn_norm(x) - zorn_norm(y)


def zorn_commutator(x, y) -> list:
    return [a - b for a, b in zip(zorn_product(x, y), zorn_product(y, x))]


def zorn_inner_derivation(a, b) -> list:
    """D_{a,b}(x) = [[a, b], x] - 3((ab)x - a(bx)) as a matrix on the
    coordinates (rows = outputs)."""
    ab, c = zorn_product(a, b), zorn_commutator(a, b)
    cols = []
    for j in range(8):
        x = [int(t == j) for t in range(8)]
        assoc = [s - t for s, t in zip(zorn_product(ab, x),
                                       zorn_product(a, zorn_product(b, x)))]
        cols.append([s - 3 * t for s, t in zip(zorn_commutator(c, x), assoc)])
    return [list(row) for row in zip(*cols)]
