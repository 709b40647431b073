"""Test oracle: the shift filters of homsys.evolve built one shift at a time.

`shift_filters` builds the filters of an atom's star F*, whose shifts are all
positive: it groups the (index, tap) pairs of the cells by shift and sums
each shift's taps with its own bincount, then splits that filter at its zero
taps, one shift after another.  It returns them in the layout step_detailed
reads, each run (lo, hi, kernel) with the kernel reversed into correlation
order, so the one-pass builder of homsys.evolve must match it bit for bit.
"""

import numpy as np

from homsys.evolve import ShiftFilters, _atom_t_cells
from homsys.hfun import t_of


def shift_filters(f, h: float, span: float) -> ShiftFilters | None:
    star = f.star()
    edges = _atom_t_cells(star, h, span)
    if edges is None:
        return None
    mids = np.maximum(0.5 * (edges[:-1] + edges[1:]), 1e-12)
    tau = t_of(star, mids) / h
    k = np.floor(tau)
    phi = tau - k
    sigma = edges / h
    m = np.floor(sigma)
    psi = sigma - m
    # S_{sigma_j} - S_{sigma_{j+1}} as four (index, tap) pairs per cell
    idx = np.stack([m[:-1], m[:-1] + 1.0, m[1:], m[1:] + 1.0], axis=1)
    tap = np.stack([1.0 - psi[:-1], psi[:-1], psi[1:] - 1.0, -psi[1:]], axis=1)
    shift = np.concatenate([np.repeat(k, 4), np.repeat(k + 1.0, 4)]).astype(np.int64)
    idx = np.concatenate([idx.ravel(), idx.ravel()]).astype(np.int64)
    tap = np.concatenate([(tap * (1.0 - phi)[:, None]).ravel(), (tap * phi[:, None]).ravel()])
    keep = (shift != 0) & (tap != 0.0)
    order = np.argsort(shift[keep], kind="stable")
    shift, idx, tap = shift[keep][order], idx[keep][order], tap[keep][order]
    shifts, starts = np.unique(shift, return_index=True)
    kept, runs = [], []
    for s, a, b in zip(shifts.tolist(), starts, np.append(starts[1:], shift.size)):
        lo = int(idx[a:b].min())
        w = np.bincount(idx[a:b] - lo, weights=tap[a:b])
        nonzero = np.flatnonzero(w)
        if nonzero.size:
            pieces = np.split(nonzero, np.flatnonzero(np.diff(nonzero) > 1) + 1)
            kept.append(s)
            runs.append(tuple((lo + int(p[0]), lo + int(p[-1]), w[p[0] : p[-1] + 1][::-1].copy()) for p in pieces))
    taps = sum(t.size for rs in runs for _, _, t in rs)
    reach = int(max(idx.max(initial=0), shift.max(initial=0)))
    return ShiftFilters(mids.size, np.unique(k).size, taps, tuple(kept), tuple(runs), reach)
