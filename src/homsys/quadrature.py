"""Deterministic 1-d quadrature helpers.

Adaptive Simpson over many intervals at once, on explicit panels, and on
geometrically graded panels running from a point toward 0 (an endpoint
singularity) or toward infinity (a tail), with a convergence guard.  Every
integrand is vectorised: f(t, k) gets an array of nodes t and, for each node,
the index k of the interval (panel) it belongs to.  All routines use absolute
error targets.
"""

from __future__ import annotations

import math
from collections.abc import Callable

import numpy as np

from .errors import IntegrationError

__all__ = ["adaptive_simpson", "integrate_panels", "integrate_geometric"]

Integrand = Callable[[np.ndarray, np.ndarray], np.ndarray]

_MAX_GEOMETRIC_PANELS = 120
_MAX_DEPTH = 48


def _simpson(fa, fm, fb, h):
    return h / 6.0 * (fa + 4.0 * fm + fb)


def adaptive_simpson(f: Integrand, a, b, tol):
    """Integrate f over each interval [a[k], b[k]] to absolute tolerance tol[k].

    Adaptive Simpson run level by level over all intervals, one call of f per
    level: an interval is split while |left + right - whole| > 15 tol, its
    tolerance halving with each split, down to depth 48; an interval whose
    error is NaN is accepted, as its value is NaN whether or not it is refined.
    An accepted interval gives left + right + (left + right - whole) / 15, and
    a split one the sum of its left and right halves.  An empty or reversed
    interval gives 0.  Scalar a, b and tol give a float, arrays an
    array of their broadcast shape.
    """
    a, b, tol = np.broadcast_arrays(*(np.asarray(x, dtype=float) for x in (a, b, tol)))
    shape = a.shape
    a, b, tol = a.ravel(), b.ravel(), tol.ravel()
    out = np.zeros(a.size)
    owner = np.flatnonzero(b > a)
    if owner.size:
        out[owner] = _levels(f, owner, a[owner], b[owner], tol[owner])
    return float(out[0]) if shape == () else out.reshape(shape)


def _levels(f: Integrand, k, a, b, tol) -> np.ndarray:
    n = k.size
    m = 0.5 * (a + b)
    y = f(np.concatenate([a, m, b]), np.concatenate([k, k, k]))
    fa, fm, fb = y[:n], y[n : 2 * n], y[2 * n :]
    whole = _simpson(fa, fm, fb, b - a)
    levels = []  # per level: each interval's accepted value and whether it split
    for depth in range(_MAX_DEPTH, -1, -1):
        n = k.size
        lm = 0.5 * (a + m)
        rm = 0.5 * (m + b)
        y = f(np.concatenate([lm, rm]), np.concatenate([k, k]))
        flm, frm = y[:n], y[n:]
        left = _simpson(fa, flm, fm, m - a)
        right = _simpson(fm, frm, fb, b - m)
        err = left + right - whole
        split = np.abs(err) > 15.0 * tol if depth > 0 else np.zeros(n, dtype=bool)
        levels.append((left + right + err / 15.0, split))
        if not split.any():
            break
        # the left halves of the split intervals, then their right halves
        i = np.flatnonzero(split)
        lefts = np.array([a, lm, m, fa, flm, fm, left, 0.5 * tol])[:, i]
        rights = np.array([m, rm, b, fm, frm, fb, right, 0.5 * tol])[:, i]
        a, m, b, fa, fm, fb, whole, tol = np.concatenate([lefts, rights], axis=1)
        k = np.concatenate([k[i], k[i]])
    # fold bottom-up: a split interval is its left half plus its right half
    total = levels[-1][0]
    for value, split in reversed(levels[:-1]):
        half = total.size // 2
        value[split] = total[:half] + total[half:]
        total = value
    return total


def integrate_panels(f: Integrand, edges: list[float], tol: float) -> float:
    """Integrate over consecutive [edges[i], edges[i+1]] panels, sharing the budget.

    The nonempty panels go through one adaptive_simpson call (k numbers them
    in order) and are summed in order.
    """
    spans = [(a, b) for a, b in zip(edges, edges[1:]) if b > a]
    if not spans:
        return 0.0
    a, b = np.array(spans).T
    return sum(adaptive_simpson(f, a, b, tol / len(spans)).tolist())


def integrate_geometric(f: Integrand, start: float, factor: float, tol: float) -> float:
    """Integrate f from start toward 0 (factor 1/2) or toward infinity (factor 2).

    Uses the geometrically graded panels between start * factor^k and
    start * factor^(k+1), k numbering them.  Toward 0 this handles a slow
    (e.g. logarithmic) divergence; toward infinity, a decaying tail.  All
    panels of the budget are integrated in one adaptive_simpson call, then
    summed in order until one contributes less than tol/10 while the
    contributions shrink geometrically; the remainder is bounded by the tail
    of the geometric series.  Raises IntegrationError (with the partial sum)
    when the contributions grow six panels in a row or the panel budget runs
    out.  The panels past the stopping point are integrated but not summed,
    so f must be finite on all of them.
    """
    edges = np.cumprod(np.concatenate([[start], np.full(_MAX_GEOMETRIC_PANELS, factor)]))
    near, far = edges[:-1], edges[1:]
    pieces = adaptive_simpson(f, np.minimum(near, far), np.maximum(near, far), tol / 16.0)
    total = 0.0
    prev = math.inf
    stall = 0
    for piece in pieces.tolist():
        total += piece
        if abs(piece) < tol / 10.0 and abs(piece) <= 0.75 * abs(prev):
            ratio = abs(piece) / abs(prev) if prev not in (0.0, math.inf) else 0.5
            ratio = min(ratio, 0.9)
            total += piece * ratio / (1.0 - ratio)
            return total
        stall = stall + 1 if abs(piece) > abs(prev) else 0
        if stall >= 6:
            raise IntegrationError("geometric panel contributions are not decreasing", partial=total)
        prev = piece
    raise IntegrationError("geometric panels did not converge within the panel budget", partial=total)
