"""Test oracle: the grouped-filter Lambda sum of homsys.evolve.step_detailed
evaluated on every grid row for every shift, one dense filter per shift.

Every atom filters with the ShiftFilters of its star, whose shifts are all
positive: an eps = +1 atom filters the CDF c padded with 0s before it and 1s
after it, an eps = -1 atom the reversed CDF c[::-1] padded with 1s before it
and 0s after it, and reads its sum back reversed.

`dense(filters)` joins each shift's runs of nonzero taps back into one filter,
zeros in between, the form the filters had before the zero taps were dropped;
atoms that share a filter set keep sharing one.  With dense filters,
step_detailed (which evaluates each shift only on the rows where its term can
be nonzero, both rows of a mirror pair in one pass) must give the same bits
as `step` here; with its own split filters it may differ by the reordered
sums only.
"""

from dataclasses import replace

import numpy as np

from homsys.evolve import ShiftFilters


def dense(filters: tuple[ShiftFilters | None, ...]) -> tuple[ShiftFilters | None, ...]:
    made: dict[int, ShiftFilters] = {}
    for fl in filters:
        if fl is None or id(fl) in made:
            continue
        runs = []
        for pieces in fl.runs:
            lo, top = pieces[0][0], pieces[-1][1]
            w = np.zeros(top - lo + 1)
            for _, hi, kernel in pieces:
                w[top - hi : top - hi + kernel.size] = kernel
            runs.append(((lo, top, w),))
        made[id(fl)] = replace(fl, runs=tuple(runs), taps=sum(w.size for ((_, _, w),) in runs))
    return tuple(None if fl is None else made[id(fl)] for fl in filters)


def lambda_sum(row: np.ndarray, before: float, after: float, fl: ShiftFilters) -> np.ndarray:
    """The sum over shifts k of (row[i] - row[i-k]) fir_k[i] on every row, the row padded with `before`
    and `after`."""
    n, pad = row.size, fl.reach
    padded = np.concatenate([np.full(pad, before), row, np.full(pad, after)])
    lam = np.zeros(n)
    for k, pieces in zip(fl.shifts, fl.runs):
        fir = np.zeros(n)
        for lo, hi, kernel in pieces:
            fir += np.convolve(padded[pad - hi : pad - lo + n], kernel[::-1], "valid")
        lam += (row - padded[pad - k : pad - k + n]) * fir
    return lam


def raw(c: np.ndarray, model, filters) -> np.ndarray:
    """The evolved CDF values clipped to [0, 1], before the monotone clamp."""
    out = np.zeros_like(c)
    for (w, f), fl in zip(model.atoms, filters):
        if f.eps == +1:
            branch = c * c
            if fl is not None:
                branch = branch - lambda_sum(c, 0.0, 1.0, fl)
        else:
            branch = 2.0 * c - c * c
            if fl is not None:
                branch = branch + lambda_sum(c[::-1], 1.0, 0.0, fl)[::-1]
        out += w * branch
    return np.clip(out, 0.0, 1.0)


def step(c: np.ndarray, model, filters) -> np.ndarray:
    """The evolved CDF values after the monotone clamp, as step_detailed computes them."""
    mono = np.maximum.accumulate(raw(c, model, filters))
    mono[-1] = 1.0
    mono[0] = 0.0 if mono[0] < 1e-9 else mono[0]
    return mono
