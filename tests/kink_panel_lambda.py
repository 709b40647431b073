"""Test oracle: the Lambda operator with the panel rule that cuts each v's
t-range only at 0, the corner value r, t_cut and the density breaks
translated to the t axis, and evaluates every node where it falls (t = 0 as
T(1e-12)).

Such a panel can hold a jump of the density or of C(v -+ T(t)), so the
quadrature refines there to its depth limit, and its values can miss the
integral by a few times the tolerance LAMBDA_TOL.
homsys.evolve.lambda_operator adds the crossing edges and the halvings; the
two rules must agree to far less than the residuals they decide on.
"""

import math

import numpy as np

from homsys import DomainError
from homsys.evolve import LAMBDA_TOL
from homsys.hfun import t_of, t_support_end
from homsys.quadrature import integrate_intervals


def lambda_operator(psi_fn, cdf_fn, f, v, support, psi_breaks=()):
    lo, hi = support
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise DomainError("lambda_operator needs a finite density support lo < hi")
    eps = f.eps
    v = np.asarray(v, dtype=float)
    vs = v.ravel()
    t_psi = (vs - lo) if eps == +1 else (hi - vs)
    t_zero = t_support_end(f)
    t_cut = np.maximum(t_psi if t_zero is None else np.minimum(t_zero, t_psi), 0.0)
    kinks = np.column_stack([np.full(vs.size, f.r)] + [(vs - k) if eps == +1 else (k - vs) for k in psi_breaks])
    kinks = np.where((kinks > 0.0) & (kinks < t_cut[:, None]), kinks, np.nan)
    edges = np.sort(np.column_stack([np.zeros(vs.size), t_cut, kinks]), axis=1)
    a, b = edges[:, :-1], edges[:, 1:]
    panel = b > a
    row, col = np.nonzero(panel)
    cv = cdf_fn(vs)

    def integrand(t, k):
        r = row[k]
        tt = t_of(f, np.maximum(t, 1e-12))
        if eps == +1:
            return psi_fn(vs[r] - t) * (cv[r] - cdf_fn(vs[r] - tt))
        return psi_fn(vs[r] + t) * (cdf_fn(vs[r] + tt) - cv[r])

    pieces = np.zeros(a.shape)
    per = LAMBDA_TOL / np.maximum(panel.sum(axis=1), 1)
    pieces[row, col] = integrate_intervals(integrand, a[row, col], b[row, col], per[row])
    total = pieces.sum(axis=1)
    return (total if eps == +1 else -total).reshape(v.shape)
