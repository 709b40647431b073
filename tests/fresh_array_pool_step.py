"""Test oracle: the pool step and the literal hipster walk as they were before
`homsys.mc.simulate`'s steps and `hipster_direct` recycled their arrays, each
operation on new arrays.

`pool_step` fancy-indexes the two parent halves, applies each atom to its
block with the unbuffered expression max/min(lx, ly) +- g(lx - ly), and
copies the atom's result into a new pool.  `hipster_direct` builds every
intermediate of the walk afresh.  The buffered code must give the same bits.
"""

import numpy as np

from homsys import mc


def g_of(g, z: np.ndarray) -> np.ndarray:
    """The profile g at finite z, one new array per operation."""
    if g.family == "zero":
        return np.zeros_like(z)
    if g.family == "softplus":
        (a,) = g.params
        return a * np.log1p(np.exp(-np.abs(z) / a))
    if g.family == "tent":
        sp, sm = g.params
        if sp == sm:
            return np.maximum(0.0, 1.0 - sp * np.abs(z))
        return np.where(z >= 0, np.maximum(0.0, 1.0 - sp * z), np.maximum(0.0, 1.0 + sm * z))
    return np.interp(z, g.grid, g.values, left=0.0, right=0.0)


def log_eval_finite(f, lx: np.ndarray, ly: np.ndarray) -> np.ndarray:
    base = np.maximum(lx, ly) if f.eps == +1 else np.minimum(lx, ly)
    return base + f.eps * g_of(f.g, lx - ly)


def pool_step(values: np.ndarray, n: int, seed: int, model) -> np.ndarray:
    """The pool after step n + 1 from the pool `values` at step n."""
    rng = mc._gen(seed, mc._STREAM_STEP, n + 1)
    N = values.size
    idx = rng.integers(0, N, 2 * N)
    a, b = values[idx[:N]], values[idx[N:]]
    w = model.weights
    counts = rng.multinomial(N, w / w.sum())
    out = np.empty(N)
    start = 0
    for f, count in zip(model.functions, counts):
        stop = start + count
        out[start:stop] = log_eval_finite(f, a[start:stop], b[start:stop])
        start = stop
    return out


def hipster_direct(n: int, N: int, seed: int) -> np.ndarray:
    vals = np.zeros(N, dtype=np.int64)
    for step in range(1, n + 1):
        rng = mc._gen(seed, mc._STREAM_WALK, step)
        idx = rng.integers(0, N, 2 * N)
        bits = rng.integers(0, 4, N)
        a = vals[idx[:N]]
        b = vals[idx[N:]]
        chosen = np.where(bits & 1, a, b)
        vals = chosen + (2 * (bits >> 1) - 1) * (a == b)
    return vals
