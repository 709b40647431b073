"""Deterministic 1-d quadrature helpers.

Adaptive Simpson over many intervals at once, and over explicit panels that
share one error budget.  The caller chooses the panel edges from what it
knows of the integrand (its kinks, jumps and singular ends; see
hfun.t_breaks), so no stopping rule is needed beyond Simpson's own.  Every
integrand is vectorised: f(t, k) gets an array of nodes t and, for each node,
the index k of the interval (panel) it belongs to.  All routines use absolute
error targets.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

__all__ = ["adaptive_simpson", "integrate_panels"]

Integrand = Callable[[np.ndarray, np.ndarray], np.ndarray]

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

