"""Fixed reference computations, timed between invocations to gauge the
speed of the host at that moment.  They do not use homsys, so no change to
the program moves them.

On a host whose cores are shared, contention slows interpreter-bound code
more than array code.  So there are two:

- `mixed`: scalar Python float code (as in `hfun.t_of`) and NumPy passes over
  arrays of pool size (as in `mc.pool_step` and the grid kernel);
- `scalar`: recursive adaptive Simpson quadrature of a Python function, the
  pattern of `quadrature.adaptive_simpson` under `lambda-check`.  On the
  resistance Lambda scan it tracks the host's slow spells twice as closely
  as `mixed` (per-invocation spread 0.09 against 0.16).
"""

from __future__ import annotations

import math
import time

import numpy as np

# Their times on a 2-vCPU x86 VM (Python 3.11, numpy 2.4) in a quiet spell:
# the speed to which run.py brings every measured time.
REFERENCE_SECONDS = {"mixed": 0.030, "scalar": 0.0052}
_N = 1 << 16


def _scalar(k: int) -> float:
    x, acc = 0.5, 0.0
    for i in range(k):
        x = math.log1p(math.exp(-x)) + 1e-3 * (i % 7)
        acc += x * x if x < 1.0 else math.sqrt(x)
    return acc


def _arrays(rng: np.random.Generator, k: int) -> float:
    a = rng.random(_N)
    idx = rng.integers(0, _N, _N)
    acc = 0.0
    for _ in range(k):
        b = np.exp(-a[idx]) + np.log1p(a)
        b.sort()
        acc += float(np.cumsum(b)[-1])
        a = np.minimum(b, 1.0 - a)
    return acc


def _integrand(x: float, c: float = 1.5) -> float:
    return math.log1p(math.exp(-c * x)) * math.cos(x) / (1.0 + x * x)


def _simpson(f, a, b, eps, whole, fa, fm, fb, depth) -> float:
    m = 0.5 * (a + b)
    lm, rm = 0.5 * (a + m), 0.5 * (m + b)
    flm, frm = f(lm), f(rm)
    left = (m - a) / 6 * (fa + 4 * flm + fm)
    right = (b - m) / 6 * (fm + 4 * frm + fb)
    if depth <= 0 or abs(left + right - whole) <= 15 * eps:
        return left + right + (left + right - whole) / 15
    return (_simpson(f, a, m, eps / 2, left, fa, flm, fm, depth - 1)
            + _simpson(f, m, b, eps / 2, right, fm, frm, fb, depth - 1))


def _quadratures(k: int) -> float:
    acc = 0.0
    for i in range(k):
        a, b = 0.0, 3.0 + 0.01 * i
        fa, fm, fb = _integrand(a), _integrand(0.5 * (a + b)), _integrand(b)
        acc += _simpson(_integrand, a, b, 1e-9, (b - a) / 6 * (fa + 4 * fm + fb), fa, fm, fb, 40)
    return acc


def reference_seconds() -> dict[str, float]:
    """Time of one run of each reference computation."""
    rng = np.random.default_rng(12345)
    t0 = time.perf_counter()
    _scalar(60_000)
    _arrays(rng, 12)
    t1 = time.perf_counter()
    _quadratures(30)
    return {"mixed": t1 - t0, "scalar": time.perf_counter() - t1}
