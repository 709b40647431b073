"""Test oracles: the recursive scalar adaptive Simpson and the sequential
geometric-panel loop over it, one panel at a time.

homsys.quadrature runs the same rule level by level over arrays of intervals;
given integrands that return the same values, the two agree bit for bit.
"""

import math

from homsys import IntegrationError


def _simpson(fa, fm, fb, h):
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


def adaptive_simpson(f, a, b, tol, max_depth=48):
    """Integrate the scalar callable f over [a, b] to absolute tolerance tol."""
    if b <= a:
        return 0.0
    m = 0.5 * (a + b)
    fa, fm, fb = f(a), f(m), f(b)
    return _adapt(f, a, m, b, fa, fm, fb, _simpson(fa, fm, fb, b - a), tol, max_depth)


def integrate_geometric(f, start, factor, tol, max_panels=120):
    """The geometric-panel rule of homsys.quadrature, integrating each panel only when it is reached."""
    total = 0.0
    near = start
    prev = math.inf
    stall = 0
    for _ in range(max_panels):
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
