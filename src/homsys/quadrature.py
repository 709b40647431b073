"""Deterministic 1-d quadrature helpers.

Adaptive Gauss-Kronrod (the G7/K15 pair) over many intervals at once, and
over explicit panels that share one error budget.  The caller chooses the
panel edges from what it knows of the integrand (its kinks, jumps and
singular ends; see hfun.t_breaks), so that the integrand is smooth on each
closed panel, where K15 is accepted at its first level or after a few
splits.  The nodes lie strictly inside each interval, so an integrand is
never read at an interval's ends.  Every integrand is vectorised: f(t, k)
gets an array of nodes t and, for each node, the index k of the interval
(panel) it belongs to.  All routines use absolute error targets.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from .errors import DomainError, HomsysError

__all__ = ["integrate_intervals", "integrate_panels"]

Integrand = Callable[[np.ndarray, np.ndarray], np.ndarray]

_MAX_DEPTH = 48
# An integrand whose rounding stays above the tolerance doubles its intervals every level until memory
# runs out, so a level may hold at most _MAX_GROWTH times the intervals the call starts with (22x at
# most is used by the tests, the benchmark and the acceptance suite), and at most _MAX_OPEN under any
# one of them, so that one runaway interval among many stops as early as alone.  A scaled moment
# integral over 132 panels holds up to 19.8k under one (Gamma^(130,5) of the sum atom), and none of
# 256 or fewer starting intervals can pass _MAX_OPEN before the call's limit.
_MAX_GROWTH = 256
_MAX_OPEN = 1 << 16
# The 15-point Kronrod rule on [-1, 1] (Piessens et al., QUADPACK, 1983, qk15): the nodes +-_XK[j]
# and 0, with weights _WK; the 7-point Gauss rule uses the nodes +-_XK[1], +-_XK[3], +-_XK[5] and 0,
# with weights _WG.
_XK = (
    0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
    0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
    0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
)
_WK = (
    0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
    0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
    0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
    0.204432940075298892414161999234649, 0.209482141084727828012999174891714,
)
_WG = (
    0.129484966168869693270611432679082, 0.279705391489276667901467771423780,
    0.381830050505118944950369775488975, 0.417959183673469387755102040816327,
)
# the 15 nodes in ascending order: -_XK[0] .. -_XK[6], 0, _XK[6] .. _XK[0]
_NODES = np.array([-x for x in _XK] + [0.0] + list(reversed(_XK)))[:, None]


def integrate_intervals(f: Integrand, a, b, tol):
    """Integrate f over each interval [a[k], b[k]] to absolute tolerance tol[k].

    Adaptive Gauss-Kronrod run level by level over all intervals, one call of
    f per level with the 15 Kronrod nodes of every open interval: an interval
    is accepted with its K15 value when |K15 - G7| <= tol, else split into
    halves, its tolerance halving with each split, down to depth 48; an
    interval whose error is NaN is accepted, as its value is NaN whether or
    not it is refined.  A level that would hold more than 256 times the
    intervals the call started with raises HomsysError: the integrand's
    rounding cannot meet the tolerance; so does a level that would hold more
    than 2^16 intervals under any one starting interval, so that one runaway
    interval among many stops as early as it would alone.  A split interval
    gives its left half plus its right half.  Each interval's sums run in one
    fixed order, so its value does not depend on the other intervals of the
    call.  tol must be finite and > 0 (DomainError, before any call of f).  An
    empty or reversed interval gives 0.  Scalar a, b and tol give a float,
    arrays an array of their broadcast shape.
    """
    a, b, tol = np.broadcast_arrays(*(np.asarray(x, dtype=float) for x in (a, b, tol)))
    if not np.all((tol > 0.0) & (tol < np.inf)):
        raise DomainError("the quadrature tolerance must be finite and > 0")
    shape = a.shape
    a, b, tol = a.ravel(), b.ravel(), tol.ravel()
    out = np.zeros(a.size)
    owner = np.flatnonzero(b > a)
    if owner.size:
        out[owner] = _levels(f, owner, a[owner], b[owner], tol[owner])
    return float(out[0]) if shape == () else out.reshape(shape)


def _levels(f: Integrand, k, a, b, tol) -> np.ndarray:
    levels = []  # per level: each interval's K15 value and whether it split
    start = k.size
    for depth in range(_MAX_DEPTH, -1, -1):
        mid = 0.5 * (a + b)
        half = 0.5 * (b - a)
        y = f((mid + half * _NODES).ravel(), np.tile(k, 15)).reshape(15, k.size)
        pair = y[:7] + y[:7:-1]  # f(mid - half x_j) + f(mid + half x_j)
        kronrod = _WK[7] * y[7]
        for w, s in zip(_WK, pair):
            kronrod = kronrod + w * s
        gauss = _WG[3] * y[7]
        for w, s in zip(_WG, pair[1::2]):
            gauss = gauss + w * s
        kronrod, gauss = half * kronrod, half * gauss
        split = np.abs(kronrod - gauss) > tol if depth > 0 else np.zeros(k.size, dtype=bool)
        levels.append((kronrod, split))
        if not split.any():
            break
        # the left halves of the split intervals, then their right halves
        i = np.flatnonzero(split)
        level = _MAX_DEPTH + 1 - depth
        if 2 * i.size > _MAX_GROWTH * start:
            raise HomsysError(
                f"the quadrature cannot meet its tolerance: level {level} would hold"
                f" {2 * i.size} intervals, more than {_MAX_GROWTH} times the {start} it started with"
            )
        # k numbers the starting intervals, and one holds at most 2^level intervals at a level
        if 2**level > _MAX_OPEN and 2 * (most := np.bincount(k[i]).max()) > _MAX_OPEN:
            raise HomsysError(
                f"the quadrature cannot meet its tolerance: level {level} would hold {2 * most} intervals"
                f" under one of the {start} it started with, more than {_MAX_OPEN}"
            )
        a, b = np.concatenate([a[i], mid[i]]), np.concatenate([mid[i], b[i]])
        k, tol = np.concatenate([k[i], k[i]]), np.concatenate([0.5 * tol[i], 0.5 * tol[i]])
    # fold bottom-up: a split interval is its left half plus its right half
    total = levels[-1][0]
    for value, split in reversed(levels[:-1]):
        n = total.size // 2
        value[split] = total[:n] + total[n:]
        total = value
    return total


def integrate_panels(f: Integrand, edges: list[float], tol: float) -> float:
    """Integrate over consecutive [edges[i], edges[i+1]] panels, sharing the budget.

    The nonempty panels go through one integrate_intervals call (k numbers
    them in order) and are summed in order.
    """
    spans = [(a, b) for a, b in zip(edges, edges[1:]) if b > a]
    if not spans:
        return 0.0
    a, b = np.array(spans).T
    return sum(integrate_intervals(f, a, b, tol / len(spans)).tolist())


def adaptive_simpson(f: Integrand, a, b, tol):
    """The former name of integrate_intervals, which it calls; no program code calls it.

    The benchmark's tracer (bench/tracing.py) reads its per-layer keys
    quadrature.adaptive_simpson.* under this span name, and fails without it;
    they read 0.  Delete this when the benchmark renames those keys.
    """
    return integrate_intervals(f, a, b, tol)
