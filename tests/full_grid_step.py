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
            lo = pieces[0][0]
            w = np.zeros(pieces[-1][0] + pieces[-1][1].size - lo)
            for offset, taps in pieces:
                w[offset - lo : offset - lo + taps.size] = taps
            runs.append(((lo, w),))
        out.append(replace(fl, runs=tuple(runs), taps=sum(w.size for ((_, w),) in runs)))
    return tuple(out)


def step(c: np.ndarray, model, filters) -> np.ndarray:
    """The evolved CDF values after the monotone clamp, as step_detailed computes them."""
    pad = max((fl.reach for fl in filters if fl is not None), default=0)
    padded = np.concatenate([np.zeros(pad), c, np.ones(pad)])
    out = np.zeros_like(c)
    for (w, f), fl in zip(model.atoms, filters):
        branch = c * c if f.eps == +1 else 2.0 * c - c * c
        if fl is not None:
            lam = np.zeros_like(c)
            for k, pieces in zip(fl.shifts, fl.runs):
                fir = np.zeros_like(c)
                for lo, taps in pieces:
                    start = pad - lo - taps.size + 1
                    fir += np.convolve(padded[start : start + c.size + taps.size - 1], taps, "valid")
                lam += (c - padded[pad - k : pad - k + c.size]) * fir
            branch = branch - f.eps * lam
        out += w * branch
    mono = np.maximum.accumulate(np.clip(out, 0.0, 1.0))
    mono[-1] = 1.0
    mono[0] = 0.0 if mono[0] < 1e-9 else mono[0]
    return mono
