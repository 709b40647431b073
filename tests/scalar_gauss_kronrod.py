"""Test oracle: the recursive scalar adaptive Gauss-Kronrod rule (G7/K15).

homsys.quadrature runs the same rule level by level over arrays of intervals,
with the same nodes, the same accept decisions and the same order of every
sum; given integrands that return the same values, the two agree bit for bit.
The node and weight table is written out here on its own (Piessens et al.,
QUADPACK, qk15), so that a wrong entry in either copy shows.
"""

# the positive Kronrod nodes, largest first; the Gauss nodes are the 2nd, 4th and 6th, and 0
XK = [
    0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
    0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
    0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
]
WK = [  # the Kronrod weights of XK, then of 0
    0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
    0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
    0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
    0.204432940075298892414161999234649, 0.209482141084727828012999174891714,
]
WG = [  # the Gauss weights of XK[1], XK[3], XK[5], then of 0
    0.129484966168869693270611432679082, 0.279705391489276667901467771423780,
    0.381830050505118944950369775488975, 0.417959183673469387755102040816327,
]


def _kronrod_gauss(f, a, b):
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    pair = [f(mid + half * -x) + f(mid + half * x) for x in XK]
    centre = f(mid + half * 0.0)
    kronrod = WK[7] * centre
    for w, s in zip(WK, pair):
        kronrod = kronrod + w * s
    gauss = WG[3] * centre
    for w, s in zip(WG, pair[1::2]):
        gauss = gauss + w * s
    return half * kronrod, half * gauss


def _adapt(f, a, b, tol, depth):
    kronrod, gauss = _kronrod_gauss(f, a, b)
    if depth <= 0 or not abs(kronrod - gauss) > tol:  # a NaN error is accepted
        return kronrod
    mid = 0.5 * (a + b)
    return _adapt(f, a, mid, 0.5 * tol, depth - 1) + _adapt(f, mid, b, 0.5 * tol, depth - 1)


def integrate(f, a, b, tol, max_depth=48):
    """Integrate the scalar callable f over [a, b] to absolute tolerance tol."""
    if b <= a:
        return 0.0
    return _adapt(f, a, b, tol, max_depth)
