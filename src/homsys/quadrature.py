"""Deterministic 1-d quadrature helpers.

Adaptive Simpson on explicit panels, and geometrically graded panels running
from a point toward 0 (an endpoint singularity) or toward infinity (a tail),
with a convergence guard.  All routines use absolute error targets; integrands
are plain callables.
"""

from __future__ import annotations

import math
from collections.abc import Callable

from .errors import IntegrationError

__all__ = [
    "adaptive_simpson",
    "integrate_panels",
    "integrate_geometric",
]

_MAX_GEOMETRIC_PANELS = 120


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


def adaptive_simpson(f: Callable[[float], float], a: float, b: float, tol: float, max_depth: int = 48) -> float:
    """Integrate f over [a, b] to absolute tolerance tol."""
    if b <= a:
        return 0.0
    m = 0.5 * (a + b)
    fa, fm, fb = f(a), f(m), f(b)
    return _adapt(f, a, m, b, fa, fm, fb, _simpson(fa, fm, fb, b - a), tol, max_depth)


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
