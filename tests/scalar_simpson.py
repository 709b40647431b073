"""Test oracle: the recursive scalar adaptive Simpson.

homsys.quadrature runs the same rule level by level over arrays of intervals;
given integrands that return the same values, the two agree bit for bit.
"""


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

