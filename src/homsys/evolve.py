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
depend only on the model and the grid, so a run builds them once, in one
vectorised pass over all shifts.  A filter keeps only its runs of nonzero
taps: where cells sharing one shift telescope, their interior taps are exact
zeros.  Each run is stored as a contiguous correlation kernel, reversed once,
so the step applies it with np.correlate and makes no copy per call.  The
term of shift k is exactly zero on every row where the CDF equals its own
value k rows away, which holds outside the rows where the law moves (from
the first value other than 0 to the last value other than 1) widened by k;
so each shift is evaluated on that window only, with the same numbers as
over the whole grid, in four numpy calls (see step_detailed).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dist import GridCDF, ks, rescale
from .errors import ClampBudgetExceededError, DomainError, HomsysError, RegridRequiredError
from .hfun import HFunction, t_breaks, t_halvings, t_of, t_support_end
from .models import ModelSpec, checkpoint_scales, resolve_scaling
from .quadrature import integrate_intervals

__all__ = [
    "lambda_operator", "step", "step_detailed", "grid_filters", "run",
    "ShiftFilters", "StepDiagnostics", "RunDiagnostics", "RunCheckpoint",
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
    t-integration by t_psi, the distance from v to the support edge.  The
    integrand psi(v -+ t) (C(v) - C(v -+ T(t))) is split into panels on which
    it is smooth.  Each v's t-range [0, t_cut] (t_cut the smaller of t_psi
    and the support end of T) is cut at
      - T's break levels t_breaks(f): the corner value r, and for a table
        profile every kink of T;
      - each density break k (psi_breaks and the support ends) translated to
        the t axis, t = +-(v - k);
      - each t where C(v -+ T(t)) crosses a break, t = T_{F#}(+-(v - k)),
        since T_{F#} inverts T.  Below the crossing of the far support end C
        is saturated (0 or 1) and the integrand is a polynomial;
      - when T has no support end (it then diverges like log(1/t) at 0),
        the halvings t_halvings(f) above that saturation edge, as in
        moments.gamma.
    The Gauss-Kronrod nodes lie strictly inside each panel, so T is never
    read at 0 or at a jump; the density argument is clipped into the panel's
    piece between two breaks, one float inside each, since v -+ t may round
    onto a break.  So the rule meets no jump and converges in a few levels.  The panels of one v share the absolute tolerance LAMBDA_TOL; all
    of them, for every v, go through one integrate_intervals call.
    """
    lo, hi = support
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise DomainError("lambda_operator needs a finite density support lo < hi")
    eps = f.eps
    v = np.asarray(v, dtype=float)
    vs = v.ravel()
    t_psi = (vs - lo) if eps == +1 else (hi - vs)
    t_zero = t_support_end(f)
    # a v beyond the support edge (t_psi <= 0) gets t_cut = 0: no panel, Lambda = 0
    t_cut = np.maximum(t_psi if t_zero is None else np.minimum(t_zero, t_psi), 0.0)
    breaks = np.unique(np.array([lo, hi, *psi_breaks], dtype=float))
    # per v and break k: reach = +-(v - k), where the density factor meets k, and
    # cross = T_{F#}(reach), where the argument v -+ T(t) of C meets it
    reach = (vs[:, None] - breaks) if eps == +1 else (breaks - vs[:, None])
    swap = f.swap()
    cross = np.zeros_like(reach)
    cross[reach > 0.0] = t_of(swap, reach[reach > 0.0])
    kinks = t_breaks(f)
    cand = [np.broadcast_to(kinks, (vs.size, kinks.size)), reach, cross]
    if t_zero is None:
        t_sat = cross[:, np.searchsorted(breaks, lo if eps == +1 else hi)]  # C saturated below
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
    piece = np.searchsorted(breaks, (v_p - 0.5 * (a + b)) if eps == +1 else (v_p + 0.5 * (a + b)))
    bounds = np.concatenate([[-np.inf], breaks, [np.inf]])
    u_lo = np.nextafter(bounds[piece], np.inf)
    u_hi = np.nextafter(bounds[piece + 1], -np.inf)

    def integrand(t: np.ndarray, k: np.ndarray) -> np.ndarray:
        v = v_p[k]  # the v of each node's panel
        tt = t_of(f, t)
        if eps == +1:
            return psi_fn(np.clip(v - t, u_lo[k], u_hi[k])) * (cv_p[k] - cdf_fn(v - tt))
        return psi_fn(np.clip(v + t, u_lo[k], u_hi[k])) * (cdf_fn(v + tt) - cv_p[k])

    pieces = np.zeros(panel.shape)
    per = LAMBDA_TOL / np.maximum(panel.sum(axis=1), 1)
    pieces[row, col] = integrate_intervals(integrand, a, b, per[row])
    total = pieces.sum(axis=1)
    return (total if eps == +1 else -total).reshape(v.shape)


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
    """The Lambda sum of one atom as one FIR filter of the CDF per integer shift.

    Cell j (edges e_j < e_{j+1}, crossing shift tau_j = eps T(mid_j) / h in
    cells) adds (S_{eps e_j/h} - S_{eps e_{j+1}/h}) (c - S_{tau_j}), where S_s
    is the CDF linearly interpolated s cells to the right, padded with 0 and 1.
    With k = floor(tau_j) and phi = tau_j - k, S_{tau_j} = (1 - phi) c[i-k] +
    phi c[i-k-1], so the sum is the sum over k of (c - c[i-k]) fir_k[i]: the
    taps of fir_k gather 1 - phi, resp. phi, times the interpolation taps of
    the edge terms of the cells in group k, resp. k - 1.  The k = 0 term
    vanishes.  Where the cells of a group share one shift, the edge terms of
    neighbouring cells cancel, so fir_k has exact zeros inside; each shift
    keeps its runs of nonzero taps, fir_k being the sum of the runs' terms.
    A run is stored as step_detailed reads it, (lo, hi, kernel) with the
    kernel contiguous and reversed into correlation order: it adds
    sum over q of kernel[q] c[i - hi + q] to fir_k[i], which on the rows
    a..b-1 is np.correlate(c[a - hi : b - lo], kernel, "valid").  The taps
    depend only on the atom, h and the domain span.
    """

    t_cells: int
    groups: int  # distinct floor(tau_j), the cell groups sharing one integer shift
    taps: int  # nonzero taps over all shifts
    shifts: tuple[int, ...]  # the nonzero k with a filter
    runs: tuple[tuple[tuple[int, int, np.ndarray], ...], ...]  # per shift, its runs (lo, hi, kernel)
    reach: int  # largest |index offset| any filter or shift reads


def _shift_filters(f: HFunction, h: float, span: float) -> ShiftFilters | None:
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
    reach = int(max(np.abs(idx).max(initial=0), np.abs(shift).max(initial=0)))
    return ShiftFilters(mids.size, np.unique(k).size, taps, kept, tuple(map(tuple, runs)), reach)


def grid_filters(model: ModelSpec, h: float, span: float) -> tuple[ShiftFilters | None, ...]:
    """The per-atom filters of step_detailed for grid spacing h and domain span hi - lo."""
    return tuple(_shift_filters(f, h, span) for _, f in model.atoms)


@dataclass
class StepDiagnostics:
    clamp_budget: float
    max_monotonicity_defect: float
    end_defect: float
    lambda_rows: float  # rows the shift terms were evaluated on, as a fraction of shifts x grid rows


def step_detailed(
    d: GridCDF, model: ModelSpec, filters: tuple[ShiftFilters | None, ...] | None = None
) -> tuple[GridCDF, StepDiagnostics]:
    """One exact evolution step of the grid law under the mixture.

    `filters` are grid_filters(model, d.h, d.hi - d.lo), which depend on the
    model and the grid only; they are built here when not given, and a run on
    a fixed domain builds them once.

    The term (c[i] - c[i-k]) fir_k[i] of shift k is evaluated on the rows
    [i0 + min(k, 0), i1 + max(k, 0)] clipped to the grid, i0 being the first
    row with c != 0 and i1 the last with c != 1 (the padding reads 0 left of
    the grid and 1 right of it; i0 <= i1 + 1, so the window is never empty).
    Outside them c[i] and c[i-k] are both exactly 0 or both exactly 1, so the
    term is an exact zero there: the window changes no bit of the result,
    only the work.  On its window a shift costs four numpy calls: np.correlate
    of the padded CDF with its kernel (one more per extra run), np.subtract
    into a buffer reused by every shift, an in-place product and one slice
    addition."""
    c = d.cdf
    x = d.grid()
    h = d.h
    n = c.size

    # effective support and the one-step expansion margins
    inside = np.where((c > _EDGE_EPS) & (c < 1.0 - _EDGE_EPS))[0]
    if inside.size:
        lo_eff, hi_eff = x[inside[0]], x[inside[-1]]
    else:
        jump = int(np.argmax(c >= 0.5))
        lo_eff = hi_eff = x[jump]
    if hi_eff + model.r_plus() + h > d.hi or lo_eff - model.r_minus() - h < d.lo:
        raise RegridRequiredError(
            f"support [{lo_eff:.3g}, {hi_eff:.3g}] plus margins exceeds the allocated domain"
        )

    if filters is None:
        filters = grid_filters(model, h, d.hi - d.lo)
    pad = max((fl.reach for fl in filters if fl is not None), default=0)
    padded = np.concatenate([np.zeros(pad), c, np.ones(pad)])
    i0 = int(np.argmax(c != 0.0))  # c[-1] is near 1 and c[0] near 0, so both rows exist
    i1 = n - 1 - int(np.argmax(c[::-1] != 1.0))
    touched = evaluated = 0
    out = np.zeros_like(c)
    diff = np.empty_like(c)
    for (w, f), fl in zip(model.atoms, filters):
        if f.eps == +1:
            branch = c * c
        else:
            branch = 2.0 * c - c * c
        if fl is not None:
            lam = np.zeros_like(c)
            evaluated += len(fl.shifts) * n
            for k, runs in zip(fl.shifts, fl.runs):
                a, b = (max(i0 + k, 0), i1 + 1) if k < 0 else (i0, min(i1 + 1 + k, n))
                touched += b - a
                # fir[i], i in [a, b): its runs' correlations, reading the 0/1 padding outside the grid
                lo, hi, kernel = runs[0]
                fir = np.correlate(padded[pad + a - hi : pad + b - lo], kernel, "valid")
                for lo, hi, kernel in runs[1:]:
                    fir += np.correlate(padded[pad + a - hi : pad + b - lo], kernel, "valid")
                dk = diff[: b - a]
                np.subtract(c[a:b], padded[pad - k + a : pad - k + b], dk)
                fir *= dk
                lam[a:b] += fir
            branch = branch - f.eps * lam
        out += w * branch

    # the continuum map is monotone; clamp roundoff/discretization violations
    raw = np.clip(out, 0.0, 1.0)
    mono = np.maximum.accumulate(raw)
    defect = float(np.max(mono - raw))
    budget = float(np.sum(mono - raw) * h)
    end_defect = float(abs(mono[-1] - 1.0))
    if end_defect > 1e-6:
        raise HomsysError(f"evolved CDF misses 1 by {end_defect:.3g}; support check was too permissive")
    mono[-1] = 1.0
    mono[0] = 0.0 if mono[0] < 1e-9 else mono[0]
    rows = touched / evaluated if evaluated else 0.0
    return GridCDF(d.lo, d.hi, mono), StepDiagnostics(budget, defect, end_defect, rows)


def step(d: GridCDF, model: ModelSpec) -> GridCDF:
    return step_detailed(d, model)[0]


@dataclass(frozen=True)
class RunDiagnostics:
    """Kernel diagnostics of a run through one checkpoint: t-cells, cell
    groups and nonzero FIR taps per atom (0 for a max/min atom), the summed
    clamp budget, the largest monotonicity defect of any step, and the mean
    over steps of the fraction of grid rows the shift terms were evaluated on."""

    t_cells: tuple[int, ...]
    groups: tuple[int, ...]
    taps: tuple[int, ...]
    clamp_budget: float
    max_monotonicity_defect: float
    lambda_rows: float


@dataclass
class RunCheckpoint:
    n: int
    scale: float
    ks: float
    dist: GridCDF
    law: str
    diagnostics: RunDiagnostics


def run(
    init: GridCDF,
    model: ModelSpec,
    n_steps: int,
    checkpoints: tuple[int, ...],
    m: int = 8192,
    scaling: tuple[str, float, float] | None = None,
) -> list[RunCheckpoint]:
    """Evolve the grid law n_steps times, recording rescaled checkpoints.

    scaling = (law, constant, exponent) is checked by resolve_scaling, which
    derives it from the model when it is None.  The domain is allocated once,
    sized from the growth (constant * n_steps)^exponent of the support, so no
    regridding happens mid-run.  Checkpoint laws are rescaled by
    (constant * n)^exponent and compared to the limit CDF of law.
    """
    scaling = resolve_scaling(model, scaling)
    scales, tau_max = checkpoint_scales(scaling, n_steps, checkpoints)
    law = scaling[0]
    half = 1.5 * tau_max + 8.0 + max(model.r_plus(), model.r_minus())
    lo = min(init.lo, -half)
    hi = max(init.hi, half)
    x = np.linspace(lo, hi, m + 1)
    cdf = init(x)
    cdf[-1] = 1.0
    cdf[0] = 0.0 if cdf[0] < 1e-12 else cdf[0]
    d = GridCDF(lo, hi, np.maximum.accumulate(cdf))

    filters = grid_filters(model, d.h, hi - lo)
    t_cells, groups, taps = (tuple(0 if fl is None else getattr(fl, key) for fl in filters)
                             for key in ("t_cells", "groups", "taps"))
    out: list[RunCheckpoint] = []
    budget = defect = rows = 0.0
    for n in range(1, n_steps + 1):
        d, diag = step_detailed(d, model, filters)
        budget += diag.clamp_budget
        defect = max(defect, diag.max_monotonicity_defect)
        rows += diag.lambda_rows
        if budget > CLAMP_ABORT_BUDGET:
            raise ClampBudgetExceededError(f"accumulated clamp budget {budget:.3g} exceeds {CLAMP_ABORT_BUDGET}")
        if n in scales:
            r = rescale(d, scales[n])
            diagnostics = RunDiagnostics(t_cells, groups, taps, budget, defect, rows / n)
            out.append(RunCheckpoint(n, scales[n], ks(r, law), r, law, diagnostics))
    return out
