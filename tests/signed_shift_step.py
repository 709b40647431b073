"""Test oracle: one grid step with signed shifts, each atom filtering the CDF itself.

This is the grid step of homsys.evolve before its filters came from the star
atom.  An atom's cells and crossing shifts carry its own sign: an eps = -1
atom's shifts k are negative, and its filters read the CDF ahead of each row,
padded with 0s on the left and 1s on the right.  Every shift is evaluated on
every row, in ascending k (so an eps = -1 atom sums its shifts from the
largest |k| down), and the running maximum is always taken.  Off the rows
where a shift's term can be nonzero the term is an exact zero, so this gives
the bits the windowed signed step gave.  homsys.evolve must agree with it to
the last bits of the reordered eps = -1 sums, and bit for bit where no atom's
sum is reordered.
"""

import numpy as np

from homsys.evolve import _atom_t_cells
from homsys.hfun import t_of


def signed_filters(f, h: float, span: float):
    """The atom's (shifts, runs, reach) with the sign of f, one shift at a time; None for max and min."""
    edges = _atom_t_cells(f, h, span)
    if edges is None:
        return None
    sign = float(f.eps)
    mids = np.maximum(0.5 * (edges[:-1] + edges[1:]), 1e-12)
    tau = sign * t_of(f, mids) / h
    k = np.floor(tau)
    phi = tau - k
    sigma = sign * edges / h
    m = np.floor(sigma)
    psi = sigma - m
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
            runs.append([(lo + int(p[0]), lo + int(p[-1]), w[p[0] : p[-1] + 1][::-1].copy()) for p in pieces])
    reach = int(max(np.abs(idx).max(initial=0), np.abs(shift).max(initial=0)))
    return kept, runs, reach


def step(d, model) -> np.ndarray:
    """The CDF values of one step of d under model, after the monotone clamp."""
    c, n = d.cdf, d.cdf.size
    filters = [signed_filters(f, d.h, d.hi - d.lo) for _, f in model.atoms]
    pad = max((fl[2] for fl in filters if fl is not None), default=0)
    padded = np.concatenate([np.zeros(pad), c, np.ones(pad)])
    out = np.zeros(n)
    for (w, f), fl in zip(model.atoms, filters):
        branch = c * c if f.eps == +1 else 2.0 * c - c * c
        if fl is not None:
            lam = np.zeros(n)
            for k, pieces in zip(*fl[:2]):
                fir = np.correlate(padded[pad - pieces[0][1] : pad - pieces[0][0] + n], pieces[0][2])
                for lo, hi, kernel in pieces[1:]:
                    fir += np.correlate(padded[pad - hi : pad - lo + n], kernel)
                lam += (c - padded[pad - k : pad - k + n]) * fir
            branch = branch - lam if f.eps == +1 else branch + lam
        out += branch * w
    mono = np.maximum.accumulate(np.clip(out, 0.0, 1.0))
    mono[-1] = 1.0
    mono[0] = 0.0 if mono[0] < 1e-9 else mono[0]
    return mono
