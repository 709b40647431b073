"""Exact deterministic evolution of the law of log X_n on a grid.

One step maps a CDF Psi through the mixture of the one-step laws

    P{log F(e^Y, e^Yhat) < v} = Psi(v)^2 - Lam(v)                (eps = +1)
    P{log F(e^Y, e^Yhat) < v} = 2 Psi(v) - Psi(v)^2 - Lam(v)     (eps = -1)

where Lam is the crossing-function correction operator.  The grid step
integrates over t with a product rule on fixed cells shared by all grid
nodes: the density factor exactly through the CDF over each cell, the
crossing bracket at the cell midpoint.  Cells whose crossing shift T(mid)/h
has the same integer part are summed together, which turns the cell sum into
one FIR filter of the CDF per integer shift (see ShiftFilters); the filters
depend only on T and the grid, so a run builds them once, in one vectorised
pass over all shifts.  They are built from the atom's star F*, so every
shift is positive and every filter reads back from its row: an eps = -1
atom's sum is its star's sum on the reversed CDF, and atoms with one star (a
mirror pair such as hipster's, resistance's or power_mean(a, -a)'s) share
one filter set.  A filter keeps only its runs of nonzero taps: where cells
sharing one shift telescope, their interior taps are exact zeros.  Each run
is stored as a contiguous correlation kernel, reversed once, so the step
applies it with np.correlate and makes no copy per call.

The term of shift k is exactly zero on every row where the CDF equals its own
value k rows back, which holds outside the rows where the law moves (from the
first value other than 0 to the last value other than 1) widened by k.  So a
step lays out only those live rows, with the CDF's 0s and 1s as padding, and
a filter set shared by a mirror pair stacks the CDF and its reversal in one
array with a gap of 1s between them: each shift is then one pass of four
numpy calls over both rows (see step_detailed).  The branch laws and the
mixture are computed on the live rows widened by the largest shift; the
other rows are 0 or the clipped sum of the weights, as the whole grid gives
them.

Buffers: a run owns the arrays its steps write (see StepBuffers), built once
with its filters: each filter set's stacked rows and Lambda sums, with their
first padding written once, the branch laws, the mixture and the scratch
rows.  Every step writes through numpy's out= arguments into them, so what a
step allocates is the correlations of its shifts, a few boolean rows, and
the law it returns (a new array) with GridCDF's check of it; it reads its
input law and never writes it.  A lone step builds its own buffers and takes
the same path with the same arithmetic, so a run's steps and lone steps give
the same bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dist import GridCDF
from .errors import ClampBudgetExceededError, DomainError, HomsysError, RegridRequiredError
from .hfun import HFunction, t_breaks, t_halvings, t_of, t_support_end
from .models import Checkpoint, ModelSpec, run_checkpoints
from .quadrature import integrate_intervals

__all__ = [
    "lambda_operator", "step_detailed", "grid_filters", "run",
    "ShiftFilters", "StepBuffers", "StepDiagnostics", "RunDiagnostics",
]

_EDGE_EPS = 1e-12
CLAMP_ABORT_BUDGET = 1e-6
LAMBDA_TOL = 1e-12  # absolute tolerance of lambda_operator at each v


# -- generic Lambda operator (shared with the proof-machinery module) ---------


def lambda_operator(
    psi_fn,
    cdf_fn,
    f: HFunction,
    v,
    support: tuple[float, float],
    psi_breaks: tuple[float, ...] = (),
) -> np.ndarray:
    """Lambda_{psi, F}(v) for each v of an array, for vectorised density/CDF callables.

    Nonnegative for eps = +1, nonpositive for eps = -1.  The density psi_fn
    vanishes outside the finite interval `support`, which bounds the
    t-integration by t_psi = eps (v - edge), the distance from v to the
    support edge behind it (lo for eps = +1, hi for eps = -1).  The sign eps
    enters only as a factor: the integrand psi(v - eps t) (C(v) - C(v - eps
    T(t))) is split into panels on which it is smooth.  Each v's t-range
    [0, t_cut] (t_cut the smaller of t_psi and the support end of T) is cut at
      - T's break levels t_breaks(f): the corner value r, and for a table
        profile every kink of T;
      - each density break k (psi_breaks and the support ends) translated to
        the t axis, t = eps (v - k);
      - each t where C(v - eps T(t)) crosses a break, t = T_{F#}(eps (v - k)),
        since T_{F#} inverts T.  Below the crossing of the far support end C
        is saturated (0 or 1) and the integrand is a polynomial;
      - when T has no support end (it then diverges like log(1/t) at 0),
        the halvings t_halvings(f) above that saturation edge, as in
        moments.gamma.
    The Gauss-Kronrod nodes lie strictly inside each panel, so T is never
    read at 0 or at a jump; the density argument is clipped into the panel's
    piece between two breaks, one float inside each, since v - eps t may round
    onto a break.  So the rule meets no jump and converges in a few levels.  The panels of one v share the absolute tolerance LAMBDA_TOL; all
    of them, for every v, go through one integrate_intervals call.
    """
    lo, hi = support
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise DomainError("lambda_operator needs a finite density support lo < hi")
    eps = f.eps
    v = np.asarray(v, dtype=float)
    vs = v.ravel()
    edge = lo if eps == +1 else hi
    t_psi = eps * (vs - edge)
    t_zero = t_support_end(f)
    # a v beyond the support edge (t_psi <= 0) gets t_cut = 0: no panel, Lambda = 0
    t_cut = np.maximum(t_psi if t_zero is None else np.minimum(t_zero, t_psi), 0.0)
    breaks = np.unique(np.array([lo, hi, *psi_breaks], dtype=float))
    # per v and break k: reach = eps (v - k), where the density factor meets k, and
    # cross = T_{F#}(reach), where the argument v - eps T(t) of C meets it
    reach = eps * (vs[:, None] - breaks)
    swap = f.swap()
    cross = np.zeros_like(reach)
    cross[reach > 0.0] = t_of(swap, reach[reach > 0.0])
    kinks = t_breaks(f)
    cand = [np.broadcast_to(kinks, (vs.size, kinks.size)), reach, cross]
    if t_zero is None:
        t_sat = cross[:, np.searchsorted(breaks, edge)]  # C saturated below
        halvings = t_halvings(f)
        cand.append(np.where(halvings > t_sat[:, None], halvings, np.nan))
    # per v, the panel edges as one row; an edge outside (0, t_cut) becomes a NaN, sorted last
    cand = np.concatenate(cand, axis=1)
    cand = np.where((cand > 0.0) & (cand < t_cut[:, None]), cand, np.nan)
    edges = np.sort(np.column_stack([np.zeros(vs.size), t_cut, cand]), axis=1)
    a, b = edges[:, :-1], edges[:, 1:]
    panel = b > a
    row, col = np.nonzero(panel)
    a, b = a[row, col], b[row, col]
    v_p, cv_p = vs[row], cdf_fn(vs)[row]  # each panel's v and C(v)
    # the piece of the density each panel covers, one float inside its bounding breaks
    piece = np.searchsorted(breaks, v_p - eps * (0.5 * (a + b)))
    bounds = np.concatenate([[-np.inf], breaks, [np.inf]])
    u_lo = np.nextafter(bounds[piece], np.inf)
    u_hi = np.nextafter(bounds[piece + 1], -np.inf)

    def integrand(t: np.ndarray, k: np.ndarray) -> np.ndarray:
        v = v_p[k]  # the v of each node's panel
        return psi_fn(np.clip(v - eps * t, u_lo[k], u_hi[k])) * (cv_p[k] - cdf_fn(v - eps * t_of(f, t)))

    pieces = np.zeros(panel.shape)
    per = LAMBDA_TOL / np.maximum(panel.sum(axis=1), 1)
    pieces[row, col] = integrate_intervals(integrand, a, b, per[row])
    return pieces.sum(axis=1).reshape(v.shape)


# -- vectorized grid step -------------------------------------------------------


def _atom_t_cells(f: HFunction, h: float, span: float):
    """Cell edges for the product-rule t-integration of one atom.

    The density factor is integrated exactly through the CDF over each cell,
    the crossing bracket is evaluated at the cell midpoint; cells are split at
    the crossing-function kinks (the corner value and the support end)."""
    if f.r == 0.0:
        return None
    t_zero = t_support_end(f)
    if t_zero is not None:
        t_cut = t_zero
    else:
        t_cut = max(1.0, 2.0 * f.r)
        while t_of(f, t_cut) > 1e-3 * h and t_cut < 4.0 * span:
            t_cut *= 2.0
    t_cut = min(t_cut, span)
    panel_edges = {0.0, t_cut}
    if 0.0 < f.r < t_cut:
        panel_edges.add(f.r)
    edges: list[float] = []
    for a, b in zip(sorted(panel_edges), sorted(panel_edges)[1:]):
        if b - a <= 0:
            continue
        k = int(min(max(8, math.ceil((b - a) / h)), 4096))
        seg = a + (b - a) / k * np.arange(k + 1)
        if edges:
            seg = seg[1:]
        edges.extend(seg.tolist())
    return np.asarray(edges)


@dataclass(frozen=True)
class ShiftFilters:
    """The Lambda sum of an eps = +1 atom as one FIR filter of the CDF per integer shift.

    Cell j (edges e_j < e_{j+1}, crossing shift tau_j = T(mid_j) / h in
    cells) adds (S_{e_j/h} - S_{e_{j+1}/h}) (c - S_{tau_j}), where S_s is the
    CDF linearly interpolated s cells to the right, padded with 0s.  With
    k = floor(tau_j) and phi = tau_j - k, S_{tau_j} = (1 - phi) c[i-k] + phi
    c[i-k-1], so the sum is the sum over k of (c - c[i-k]) fir_k[i]: the taps
    of fir_k gather 1 - phi, resp. phi, times the interpolation taps of the
    edge terms of the cells in group k, resp. k - 1.  The k = 0 term vanishes,
    so every shift is positive, and every tap reads the CDF at or before its
    row.  Where the cells of a group share one shift, the edge terms of
    neighbouring cells cancel, so fir_k has exact zeros inside; each shift
    keeps its runs of nonzero taps, fir_k being the sum of the runs' terms.
    A run is stored as step_detailed reads it, (lo, hi, kernel) with the
    kernel contiguous and reversed into correlation order: it adds
    sum over q of kernel[q] c[i - hi + q] to fir_k[i], which on the rows
    a..b-1 is np.correlate(c[a - hi : b - lo], kernel, "valid").  Shift k
    looks back max(k, largest hi of its runs) rows.  The taps depend only on
    T, h and the domain span.

    An eps = -1 atom F has the crossing function of its star F* = F^inv, and
    its Lambda sum on the CDF c is F*'s sum on the reversed CDF
    r[j] = c[M - j], padded with 1s before it and 0s after it, read back at
    row M - i: so every atom filters with the ShiftFilters of its star.
    """

    t_cells: int
    groups: int  # distinct floor(tau_j), the cell groups sharing one integer shift
    taps: int  # nonzero taps over all shifts
    shifts: tuple[int, ...]  # the shifts k > 0 with a filter, ascending
    runs: tuple[tuple[tuple[int, int, np.ndarray], ...], ...]  # per shift, its runs (lo, hi, kernel)
    reach: int  # the longest look-back of any shift


def _shift_filters(f: HFunction, h: float, span: float) -> ShiftFilters | None:
    edges = _atom_t_cells(f, h, span)
    if edges is None:
        return None
    mids = np.maximum(0.5 * (edges[:-1] + edges[1:]), 1e-12)
    tau = t_of(f, mids) / h
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
    # every shift's dense filter over its index span and one zero after it, laid end
    # to end: one bincount sums each tap in the order above, as one per shift would
    shifts, starts, counts = np.unique(shift, return_index=True, return_counts=True)
    lo = np.minimum.reduceat(idx, starts)
    size = np.maximum.reduceat(idx, starts) - lo + 2
    base = np.cumsum(size) - size
    w = np.bincount(idx + np.repeat(base - lo, counts), weights=tap, minlength=int(size.sum()))
    # the runs of nonzero taps [first, stop); the zero after each filter ends its last run
    first, stop = np.flatnonzero(np.diff(w != 0.0, prepend=False)).reshape(-1, 2).T
    owner = np.searchsorted(base, first, side="right") - 1
    run_lo = (lo - base)[owner] + first
    reverse = w[::-1].copy()  # every kernel is a contiguous slice of it
    runs = []
    for new, a, b, r_lo in zip(np.diff(owner, prepend=-1).tolist(), first.tolist(), stop.tolist(), run_lo.tolist()):
        if new:
            runs.append([])
        runs[-1].append((r_lo, r_lo + b - a - 1, reverse[w.size - b : w.size - a]))
    kept = tuple(shifts[np.unique(owner)].tolist())
    taps = int(np.sum(stop - first))
    reach = int(max(idx.max(initial=0), shift.max(initial=0)))
    return ShiftFilters(mids.size, np.unique(k).size, taps, kept, tuple(map(tuple, runs)), reach)


def grid_filters(model: ModelSpec, h: float, span: float) -> tuple[ShiftFilters | None, ...]:
    """The filters of step_detailed, one per atom, for grid spacing h and domain span hi - lo: those of
    the atom's star, so atoms with one star (a mirror pair such as hipster's) share one object."""
    built: dict[HFunction, ShiftFilters | None] = {}
    for _, f in model.atoms:
        if f.star() not in built:
            built[f.star()] = _shift_filters(f.star(), h, span)
    return tuple(built[f.star()] for _, f in model.atoms)


@dataclass
class StepDiagnostics:
    clamp_budget: float
    max_monotonicity_defect: float
    end_defect: float


class _FilterRows:
    """The rows one filter set runs on, and its Lambda sums.

    A step's live rows [i0, i1] of the CDF go into `x` as c if an eps = +1
    atom uses the set, reversed as r if an eps = -1 atom does, and as both
    for a mirror pair, stacked as [0s | c | 1s | r | 0s].  The first row
    starts at `pad` (the reach of every filter of the step), after its
    padding, 0s for c and 1s for r, which is written here, once; after it
    come `gap` 1s for c or 0s for r, gap being the set's largest shift, then
    the second row and gap 0s.  `lam` holds the sums in the layout of `x`.
    `shifts` holds the set's shifts, ascending, as (k, back, start, stop,
    kernel, more, split) entries, offsets from a row's start at pad: the CDF
    k rows back is at back = pad - k, the first run (lo, hi, kernel) reads
    from start = pad - hi to stop = pad - lo rows past the last row it
    writes, and `more` holds the other runs' (start, stop, kernel).  `split`
    marks a shift of a stacked set that looks back past the gap: it runs on
    c in `x` and on r in `solo`, laid out as [1s | r | 0s] with r at pad.
    """

    def __init__(self, filters: ShiftFilters, c: bool, r: bool, pad: int, rows: int):
        self.c, self.stacked = c, c and r
        self.gap = gap = max(filters.shifts, default=0)
        self.x = np.empty(pad + 2 * (rows + gap))
        self.x[:pad] = 0.0 if c else 1.0
        self.lam = np.empty_like(self.x)
        self.shifts = tuple(
            (k, pad - k, pad - hi, pad - lo, kernel, tuple((pad - hi2, pad - lo2, kernel2) for lo2, hi2, kernel2 in more),
             self.stacked and max(k, hi, *(hi2 for _, hi2, _ in more)) > gap)
            for k, ((lo, hi, kernel), *more) in zip(filters.shifts, filters.runs)
        )
        self.solo = None
        if any(split for *_, split in self.shifts):
            self.solo = np.empty(pad + rows + gap)
            self.solo[:pad] = 1.0
        self.pad = pad

    def sum_shifts(self, live: np.ndarray, diff: np.ndarray) -> None:
        """Copy the live rows of a step's CDF into the rows and sum every shift's terms into `lam`."""
        x, pad, gap, lam, size = self.x, self.pad, self.gap, self.lam, live.size
        x[pad : pad + size] = live if self.c else live[::-1]
        x[pad + size : pad + size + gap] = 1.0 if self.c else 0.0
        extent, split = size, ()
        if self.stacked:
            at = pad + size + gap  # the start of r
            x[at : at + size] = live[::-1]
            x[at + size : at + size + gap] = 0.0
            extent = 2 * size + gap
            if self.solo is not None:
                self.solo[pad : pad + size] = live[::-1]
                self.solo[pad + size : pad + size + gap] = 0.0
                split = ((x, size, pad), (self.solo, size, at))
        lam[pad : pad + extent + gap] = 0.0
        whole = ((x, extent, pad),)
        # bound once: the loop pays per call, not per row (out passed by position, "valid" by default)
        correlate, subtract, multiply, add = np.correlate, np.subtract, np.multiply, np.add
        for k, back, start, stop, kernel, more, apart in self.shifts:
            for y, width, at in split if apart else whole:
                u = width + k
                # fir over u rows from the row start; the padding stands for the CDF's 0s and 1s
                fir = correlate(y[start : u + stop], kernel)
                for start2, stop2, kernel2 in more:
                    fir += correlate(y[start2 : u + stop2], kernel2)
                dk = diff[:u]
                subtract(y[pad : pad + u], y[back : back + u], dk)
                multiply(fir, dk, fir)
                lk = lam[at : at + u]
                add(lk, fir, lk)


class StepBuffers:
    """The arrays that grid steps of one model on one grid size with one set of filters write, and
    the filters, which reach a step only through them.

    Each distinct filter set of grid_filters gets its own rows (_FilterRows):
    the live rows of the CDF, of its reversal, or of both stacked with a gap
    of 1s between them, and their Lambda sums.  `atoms` gives each atom's set
    (None for a max/min atom), `widen` is the largest shift of any set, and
    `plus`, `minus`, `branch` and `diff` are scratch rows.  A run builds one
    set of buffers and hands it to every step; a step makes its own when
    given none.
    """

    def __init__(self, model: ModelSpec, filters: tuple[ShiftFilters | None, ...], rows: int):
        self.model = model
        live = [fl for fl in filters if fl is not None]
        pad = max((fl.reach for fl in live), default=0)
        self.widen = max((max(fl.shifts, default=0) for fl in live), default=0)
        self.plus, self.minus, self.branch = (np.empty(rows) for _ in range(3))
        self.diff = np.empty(2 * (rows + self.widen))
        sets: dict[int, _FilterRows] = {}
        for fl in live:
            if id(fl) not in sets:
                eps = {f.eps for (_, f), other in zip(model.atoms, filters) if other is fl}
                sets[id(fl)] = _FilterRows(fl, +1 in eps, -1 in eps, pad, rows)
        self.sets = tuple(sets.values())
        self.atoms = tuple(None if fl is None else sets[id(fl)] for fl in filters)


def step_detailed(d: GridCDF, model: ModelSpec, buffers: StepBuffers | None = None) -> tuple[GridCDF, StepDiagnostics]:
    """One exact evolution step of the grid law under the mixture.

    `buffers` are StepBuffers(model, filters, d.m + 1), the arrays the step
    writes and the filters it applies, normally grid_filters(model, d.h,
    d.hi - d.lo), which depend on the model and the grid only; they are built
    here when not given, so a lone call and a run take the same path.  A run
    on a fixed domain builds them once and reuses them on every step.  Given
    buffers must come from the model and fit the grid.  The step reads d.cdf
    and never writes it, and returns a new array.

    Let i0 be the first row with c != 0, i1 the last with c != 1 (i0 <= i1 + 1)
    and L = i1 + 1 - i0.  An eps = +1 atom's term (c[i] - c[i-k]) fir_k[i] is
    an exact zero outside the rows [i0, i1 + k], and an eps = -1 atom's,
    taken on the reversed row, outside c's rows [i0 - k, i1]: there both
    values are exactly 0 or exactly 1.  So each shift runs once over its
    set's live rows (see _FilterRows), from the first to k rows past the
    last, 2 L + gap + k rows for a stacked pair, whose gap rows past the
    first k give exact zeros, (1 - 1) times the filter.  A shift costs four
    numpy calls: np.correlate of the rows with its kernel (one more per
    extra run), then np.subtract, np.multiply and np.add writing into the
    buffers.  A shift of a stacked set that looks back past the gap runs
    once on each row instead (resistance(0.5)'s k = 1 tail filter for 30
    steps on 2048 rows: 421 taps reading 598 rows back, against a gap of
    254); a gap of the full reach would make every other shift pay for it.
    Each row sums its shifts in ascending k, and np.correlate takes each
    row's dot product alone, so an eps = +1 atom's sum has the bits of the
    sum over the whole grid.

    The branch laws Psi^2 and 2 Psi - Psi^2, the mixture, the clip and the
    monotone test run on the live window [i0 - K, i1 + K] clipped to the
    grid, K the largest shift: outside it every Lambda term is zero, so the
    rows left of it are 0 and those right of it the clipped sum of the
    weights, the values the whole-grid arithmetic gives them.  The running
    maximum that clamps the mixture is taken only when some row decreases,
    over the whole row; a nondecreasing row is its own running maximum, bit
    for bit, and reports a zero defect and budget."""
    c = d.cdf
    h = d.h
    n = c.size

    # the live rows [i0, i1], where c is neither 0 nor 1 (c[-1] is near 1 and c[0] near 0, so both exist)
    i0 = int(np.argmax(c != 0.0))
    i1 = n - 1 - int(np.argmax(c[::-1] != 1.0))
    size = i1 + 1 - i0
    live = c[i0 : i1 + 1]
    # effective support and the one-step expansion margins; row i lies at lo + i h, as d.grid() has it
    inside = (live > _EDGE_EPS) & (live < 1.0 - _EDGE_EPS)
    if inside.any():
        lo_row, hi_row = i0 + int(np.argmax(inside)), i1 - int(np.argmax(inside[::-1]))
    else:
        lo_row = hi_row = int(np.argmax(c >= 0.5))
    lo_eff, hi_eff = (d.hi if i == n - 1 else i * h + d.lo for i in (lo_row, hi_row))
    if hi_eff + model.r_plus() + h > d.hi or lo_eff - model.r_minus() - h < d.lo:
        raise RegridRequiredError(
            f"support [{lo_eff:.3g}, {hi_eff:.3g}] plus margins exceeds the allocated domain"
        )

    if buffers is None:
        buffers = StepBuffers(model, grid_filters(model, h, d.hi - d.lo), n)
    elif buffers.plus.size != n or buffers.model != model:
        raise DomainError("step buffers were built for another grid size or model")
    for rows in buffers.sets:
        rows.sum_shifts(live, buffers.diff)

    # the branch laws, each atom's branch and the mixture on the live window [wa, wb) only
    wa, wb = max(i0 - buffers.widen, 0), min(i1 + 1 + buffers.widen, n)
    cw = c[wa:wb]
    plus, minus = buffers.plus, buffers.minus
    subtract, multiply, add = np.subtract, np.multiply, np.add
    multiply(cw, cw, plus[wa:wb])
    if any(f.eps == -1 for _, f in model.atoms):
        multiply(cw, 2.0, minus[wa:wb])
        subtract(minus[wa:wb], plus[wa:wb], minus[wa:wb])
    raw = np.empty(n)  # the clipped mixture, on the whole grid, in the array the step returns
    out, branch = raw[wa:wb], buffers.branch[wa:wb]
    out.fill(0.0)
    one = 0.0  # the mixture where c = 1: the weights, summed as the rows sum them
    for (w, f), rows in zip(model.atoms, buffers.atoms):
        one += w
        base = plus if f.eps == +1 else minus
        if rows is None:
            multiply(base[wa:wb], w, branch)
        else:
            pad, gap = rows.pad, rows.gap
            branch[:] = base[wa:wb]  # base - eps lam, lam being 0 off the atom's rows
            if f.eps == +1:  # lam on the rows [i0, b), from c at pad
                b = min(i1 + 1 + gap, n)
                subtract(base[i0:b], rows.lam[pad : pad + b - i0], branch[i0 - wa : b - wa])
            else:  # lam on the rows [a, i1], from r read backwards
                a = max(i0 - gap, 0)
                at = pad + size + gap if rows.stacked else pad
                add(base[a : i1 + 1], rows.lam[at : at + i1 + 1 - a][::-1], branch[a - wa : i1 + 1 - wa])
            multiply(branch, w, branch)
        add(out, branch, out)
    np.clip(out, 0.0, 1.0, out=out)

    raw[:wa] = 0.0
    raw[wb:] = min(max(one, 0.0), 1.0)
    # the monotone clamp: most steps need none, and a nondecreasing row is its own running maximum, bit for bit
    lo, hi = max(wa - 1, 0), min(wb + 1, n)
    defect = budget = 0.0
    diff = buffers.diff
    if not subtract(raw[lo + 1 : hi], raw[lo : hi - 1], diff[: hi - lo - 1]).min(initial=0.0) >= 0.0:  # NaN too
        # the running maximum goes through a scratch row back into raw, the array the step returns
        mono = np.maximum.accumulate(raw, out=buffers.branch)
        rise = subtract(mono, raw, diff[:n])
        defect = float(np.max(rise))
        budget = float(np.sum(rise) * h)
        raw[:] = mono
    end_defect = float(abs(raw[-1] - 1.0))
    if end_defect > 1e-6:
        raise HomsysError(f"evolved CDF misses 1 by {end_defect:.3g}; support check was too permissive")
    raw[-1] = 1.0
    raw[0] = 0.0 if raw[0] < 1e-9 else raw[0]
    return GridCDF(d.lo, d.hi, raw), StepDiagnostics(budget, defect, end_defect)


@dataclass(frozen=True)
class RunDiagnostics:
    """Kernel diagnostics of a run through one checkpoint: t-cells, cell
    groups and nonzero FIR taps per atom (0 for a max/min atom), the summed
    clamp budget and the largest monotonicity defect of any step."""

    t_cells: tuple[int, ...]
    groups: tuple[int, ...]
    taps: tuple[int, ...]
    clamp_budget: float
    max_monotonicity_defect: float


def run(
    init: GridCDF,
    model: ModelSpec,
    n_steps: int,
    checkpoints: tuple[int, ...],
    m: int = 8192,
    scaling: tuple[str, float, float] | None = None,
) -> list[Checkpoint]:
    """Evolve the grid law n_steps times under models.run_checkpoints; each checkpoint carries the
    RunDiagnostics through it."""
    return run_checkpoints(model, lambda reach: _laws(init, model, m, reach), n_steps, checkpoints, scaling)


def _laws(init: GridCDF, model: ModelSpec, m: int, reach: float):
    """The law after each step, on m cells allocated once, sized from reach so that no regridding
    happens mid-run, with the RunDiagnostics through that step."""
    half = 1.5 * reach + 8.0 + max(model.r_plus(), model.r_minus())
    lo = min(init.lo, -half)
    hi = max(init.hi, half)
    x = np.linspace(lo, hi, m + 1)
    cdf = init(x)
    cdf[-1] = 1.0
    cdf[0] = 0.0 if cdf[0] < 1e-12 else cdf[0]
    d = GridCDF(lo, hi, np.maximum.accumulate(cdf))

    filters = grid_filters(model, d.h, hi - lo)
    buffers = StepBuffers(model, filters, m + 1)
    t_cells, groups, taps = (tuple(0 if fl is None else getattr(fl, key) for fl in filters)
                             for key in ("t_cells", "groups", "taps"))
    budget = defect = 0.0
    while True:
        d, diag = step_detailed(d, model, buffers)
        budget += diag.clamp_budget
        defect = max(defect, diag.max_monotonicity_defect)
        if budget > CLAMP_ABORT_BUDGET:
            raise ClampBudgetExceededError(f"accumulated clamp budget {budget:.3g} exceeds {CLAMP_ABORT_BUDGET}")
        yield d, RunDiagnostics(t_cells, groups, taps, budget, defect)
