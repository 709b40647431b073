"""Deterministic 1-d quadrature helpers.

Adaptive Simpson on explicit panels, and geometrically graded panels running
from a point toward 0 (an endpoint singularity) or toward infinity (a tail),
with a convergence guard; the integrands of these are scalar callables.
`integrate_batch` runs the same adaptive Simpson over many intervals at once,
one vectorised integrand call per refinement level.  All routines use
absolute error targets.
"""

from __future__ import annotations

import math
from collections.abc import Callable

import numpy as np

from .errors import IntegrationError

__all__ = [
    "adaptive_simpson",
    "integrate_batch",
    "integrate_panels",
    "integrate_geometric",
]

_MAX_GEOMETRIC_PANELS = 120
_MAX_DEPTH = 48


def _simpson(fa: float, fm: float, fb: float, h: float) -> float:
    return h / 6.0 * (fa + 4.0 * fm + fb)


def _adapt(f, a, m, b, fa, fm, fb, whole, tol, depth):
    lm = 0.5 * (a + m)
    rm = 0.5 * (m + b)
    flm = f(lm)
    frm = f(rm)
    left = _simpson(fa, flm, fm, m - a)
    right = _simpson(fm, frm, fb, b - m)
    if depth <= 0 or abs(left + right - whole) <= 15.0 * tol:
        return left + right + (left + right - whole) / 15.0
    return _adapt(f, a, lm, m, fa, flm, fm, left, 0.5 * tol, depth - 1) + _adapt(
        f, m, rm, b, fm, frm, fb, right, 0.5 * tol, depth - 1
    )


def adaptive_simpson(f: Callable[[float], float], a: float, b: float, tol: float, max_depth: int = _MAX_DEPTH) -> float:
    """Integrate f over [a, b] to absolute tolerance tol."""
    if b <= a:
        return 0.0
    m = 0.5 * (a + b)
    fa, fm, fb = f(a), f(m), f(b)
    return _adapt(f, a, m, b, fa, fm, fb, _simpson(fa, fm, fb, b - a), tol, max_depth)


def integrate_batch(f: Callable[[np.ndarray, np.ndarray], np.ndarray], a, b, tol) -> np.ndarray:
    """Integrate f over each interval [a[k], b[k]] to absolute tolerance tol[k].

    adaptive_simpson run level by level over all intervals: the same nodes,
    accept test, correction and depth limit, and the same left + right sums,
    so each interval gets the value adaptive_simpson would return from the
    same integrand values.  f(t, k) is vectorised: t holds the nodes of one
    level and k the index of the interval each node belongs to.  An empty or
    reversed interval gives 0.
    """
    a, b, tol = np.broadcast_arrays(*(np.asarray(x, dtype=float) for x in (a, b, tol)))
    shape = a.shape
    a, b, tol = a.ravel(), b.ravel(), tol.ravel()
    out = np.zeros(a.size)
    owner = np.flatnonzero(b > a)
    if not owner.size:
        return out.reshape(shape)
    k, a, b, tol = owner, a[owner], b[owner], tol[owner]
    m = 0.5 * (a + b)
    fa, fm, fb = np.split(f(np.concatenate([a, m, b]), np.tile(k, 3)), 3)
    whole = _simpson(fa, fm, fb, b - a)

    def halves(x, y):  # the left halves of the split intervals, then their right halves
        return np.concatenate([x[split], y[split]])

    levels = []  # per level: each interval's accepted value and whether it split
    for depth in range(_MAX_DEPTH, -1, -1):
        lm = 0.5 * (a + m)
        rm = 0.5 * (m + b)
        flm, frm = np.split(f(np.concatenate([lm, rm]), np.tile(k, 2)), 2)
        left = _simpson(fa, flm, fm, m - a)
        right = _simpson(fm, frm, fb, b - m)
        err = left + right - whole
        split = ~(np.abs(err) <= 15.0 * tol) if depth > 0 else np.zeros(k.size, dtype=bool)
        levels.append((left + right + err / 15.0, split))
        if not split.any():
            break
        a, m, b = halves(a, m), halves(lm, rm), halves(m, b)
        fa, fm, fb = halves(fa, fm), halves(flm, frm), halves(fm, fb)
        whole, tol, k = halves(left, right), halves(0.5 * tol, 0.5 * tol), halves(k, k)
    # fold bottom-up: a split interval is its left half plus its right half
    total = levels[-1][0]
    for value, split in reversed(levels[:-1]):
        half = total.size // 2
        value[split] = total[:half] + total[half:]
        total = value
    out[owner] = total
    return out.reshape(shape)


def integrate_panels(f: Callable[[float], float], edges: list[float], tol: float) -> float:
    """Integrate over consecutive [edges[i], edges[i+1]] panels, sharing the budget."""
    spans = [(a, b) for a, b in zip(edges, edges[1:]) if b > a]
    if not spans:
        return 0.0
    per = tol / len(spans)
    return sum(adaptive_simpson(f, a, b, per) for a, b in spans)


def integrate_geometric(f: Callable[[float], float], start: float, factor: float, tol: float) -> float:
    """Integrate f from start toward 0 (factor 1/2) or toward infinity (factor 2).

    Uses the geometrically graded panels between start * factor^k and
    start * factor^(k+1).  Toward 0 this handles a slow (e.g. logarithmic)
    divergence; toward infinity, a decaying tail.  Stops once a panel
    contributes less than tol/10 and the contributions shrink geometrically,
    bounding the remainder by the tail of the geometric series.  Raises
    IntegrationError (with the partial sum) when the contributions grow six
    panels in a row or the panel budget runs out.
    """
    total = 0.0
    near = start
    prev = math.inf
    stall = 0
    for _ in range(_MAX_GEOMETRIC_PANELS):
        far = factor * near
        piece = adaptive_simpson(f, min(near, far), max(near, far), tol / 16.0)
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
        near = far
    raise IntegrationError("geometric panels did not converge within the panel budget", partial=total)
