"""Test oracle: the grouped-filter Lambda sum of homsys.evolve.step_detailed
evaluated on every grid row for every shift, one dense filter per shift.

`dense(filters)` joins each shift's runs of nonzero taps back into one filter,
zeros in between, the form the filters had before the zero taps were dropped.
With dense filters, step_detailed (which evaluates each shift only on the rows
where its term can be nonzero) must give the same bits as `step` here; with
its own split filters it may differ by the reordered sums only.
"""

from dataclasses import replace

import numpy as np

from homsys.evolve import ShiftFilters


def dense(filters: tuple[ShiftFilters | None, ...]) -> tuple[ShiftFilters | None, ...]:
    out = []
    for fl in filters:
        if fl is None:
            out.append(None)
            continue
        runs = []
        for pieces in fl.runs:
            lo, top = pieces[0][0], pieces[-1][1]
            w = np.zeros(top - lo + 1)
            for _, hi, kernel in pieces:
                w[top - hi : top - hi + kernel.size] = kernel
            runs.append(((lo, top, w),))
        out.append(replace(fl, runs=tuple(runs), taps=sum(w.size for ((_, _, w),) in runs)))
    return tuple(out)


def raw(c: np.ndarray, model, filters) -> np.ndarray:
    """The evolved CDF values clipped to [0, 1], before the monotone clamp."""
    pad = max((fl.reach for fl in filters if fl is not None), default=0)
    padded = np.concatenate([np.zeros(pad), c, np.ones(pad)])
    out = np.zeros_like(c)
    for (w, f), fl in zip(model.atoms, filters):
        branch = c * c if f.eps == +1 else 2.0 * c - c * c
        if fl is not None:
            lam = np.zeros_like(c)
            for k, pieces in zip(fl.shifts, fl.runs):
                fir = np.zeros_like(c)
                for lo, hi, kernel in pieces:
                    fir += np.convolve(padded[pad - hi : pad - lo + c.size], kernel[::-1], "valid")
                lam += (c - padded[pad - k : pad - k + c.size]) * fir
            branch = branch - f.eps * lam
        out += w * branch
    return np.clip(out, 0.0, 1.0)


def step(c: np.ndarray, model, filters) -> np.ndarray:
    """The evolved CDF values after the monotone clamp, as step_detailed computes them."""
    mono = np.maximum.accumulate(raw(c, model, filters))
    mono[-1] = 1.0
    mono[0] = 0.0 if mono[0] < 1e-9 else mono[0]
    return mono
