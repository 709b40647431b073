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
depend only on the model, the grid and tol, so a run builds them once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dist import GridCDF, ks, rescale
from .errors import ClampBudgetExceededError, DomainError, HomsysError, RegridRequiredError
from .hfun import HFunction, t_of, t_support_end
from .models import ModelSpec, resolve_scaling
from .quadrature import integrate_geometric, integrate_panels

__all__ = [
    "lambda_operator", "step", "step_detailed", "grid_filters", "run",
    "ShiftFilters", "StepDiagnostics", "RunDiagnostics", "RunCheckpoint",
]

_EDGE_EPS = 1e-12
CLAMP_ABORT_BUDGET = 1e-6


# -- generic scalar Lambda operator (shared with the proof-machinery module) ---


def lambda_operator(
    psi_fn,
    cdf_fn,
    f: HFunction,
    v: float,
    tol: float = 1e-10,
    support: tuple[float, float] = (-math.inf, math.inf),
    psi_breaks: tuple[float, ...] = (),
) -> float:
    """Lambda_{psi, F}(v) for callable density/CDF pairs.

    Nonnegative for eps = +1, nonpositive for eps = -1.  The t-integration is
    split at the crossing-function kinks and at the density kinks translated
    to the t axis, each piece handled by adaptive Simpson; an exponential
    tail (softplus profiles) is extended by doubling panels.
    """
    eps = f.eps
    root_tol = min(1e-12, tol / 100.0)
    t_zero = t_support_end(f)
    lo, hi = support
    t_psi = (v - lo) if eps == +1 else (hi - v)
    if t_psi <= 0.0:
        return 0.0

    cv = cdf_fn(v)

    def integrand(t: float) -> float:
        tt = t_of(f, max(t, 1e-12), root_tol)
        if eps == +1:
            return psi_fn(v - t) * (cv - cdf_fn(v - tt))
        return psi_fn(v + t) * (cdf_fn(v + tt) - cv)

    t_cut = t_psi if t_zero is None else min(t_zero, t_psi)
    edges = {0.0, t_cut}
    if 0.0 < f.r < t_cut:
        edges.add(f.r)
    for k in psi_breaks:
        tb = (v - k) if eps == +1 else (k - v)
        if 0.0 < tb < t_cut:
            edges.add(tb)
    total = integrate_panels(integrand, sorted(edges), tol)
    if t_zero is None and t_cut < t_psi:
        total += integrate_geometric(integrand, t_cut, 2.0, tol / 4.0)
    return total if eps == +1 else -total


# -- vectorized grid step -------------------------------------------------------


def _atom_t_cells(f: HFunction, h: float, span: float, root_tol: float):
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
        while t_of(f, t_cut, root_tol) > 1e-3 * h and t_cut < 4.0 * span:
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
    phi c[i-k-1], so the sum is the sum over k of (c - c[i-k]) (w_k * c)[i]:
    the taps w_k gather 1 - phi, resp. phi, times the interpolation taps of
    the edge terms of the cells in group k, resp. k - 1.  The k = 0 term
    vanishes.  The taps depend only on the atom, h, the domain span and tol.
    """

    t_cells: int
    groups: int  # distinct floor(tau_j), the cell groups sharing one integer shift
    shifts: tuple[int, ...]  # the nonzero k with a filter
    offsets: tuple[int, ...]  # w_k[0] multiplies c[i - offset]
    taps: tuple[np.ndarray, ...]
    reach: int  # largest |index offset| any filter or shift reads


def _shift_filters(f: HFunction, h: float, span: float, root_tol: float) -> ShiftFilters | None:
    edges = _atom_t_cells(f, h, span, root_tol)
    if edges is None:
        return None
    sign = float(f.eps)
    mids = np.maximum(0.5 * (edges[:-1] + edges[1:]), 1e-12)
    tau = np.array([sign * t_of(f, t, root_tol) / h for t in mids])
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
    shifts, starts = np.unique(shift, return_index=True)
    offsets, taps = [], []
    for a, b in zip(starts, np.append(starts[1:], shift.size)):
        offsets.append(int(idx[a:b].min()))
        taps.append(np.bincount(idx[a:b] - offsets[-1], weights=tap[a:b]))
    reach = int(max(np.abs(idx).max(initial=0), np.abs(shift).max(initial=0)))
    return ShiftFilters(mids.size, np.unique(k).size, tuple(shifts.tolist()), tuple(offsets), tuple(taps), reach)


def grid_filters(model: ModelSpec, h: float, span: float, tol: float = 1e-9) -> tuple[ShiftFilters | None, ...]:
    """The per-atom filters of step_detailed for grid spacing h and domain span hi - lo."""
    root_tol = min(1e-12, tol / 100.0)
    return tuple(_shift_filters(f, h, span, root_tol) for _, f in model.atoms)


@dataclass
class StepDiagnostics:
    clamp_budget: float
    max_monotonicity_defect: float
    end_defect: float


def step_detailed(
    d: GridCDF, model: ModelSpec, tol: float = 1e-9, filters: tuple[ShiftFilters | None, ...] | None = None
) -> tuple[GridCDF, StepDiagnostics]:
    """One exact evolution step of the grid law under the mixture.

    `filters` are grid_filters(model, d.h, d.hi - d.lo, tol), built here when
    not given; a run on a fixed domain builds them once."""
    if d.atom_neg_inf != 0.0:
        raise DomainError("grid evolution requires an atomless law")
    c = d.cdf
    x = d.grid()
    h = d.h

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
        filters = grid_filters(model, h, d.hi - d.lo, tol)
    pad = max((fl.reach for fl in filters if fl is not None), default=0)
    padded = np.concatenate([np.zeros(pad), c, np.ones(pad)])
    out = np.zeros_like(c)
    for (w, f), fl in zip(model.atoms, filters):
        if f.eps == +1:
            branch = c * c
        else:
            branch = 2.0 * c - c * c
        if fl is not None:
            lam = np.zeros_like(c)
            for k, lo, taps in zip(fl.shifts, fl.offsets, fl.taps):
                # fir[i] = sum_j taps[j] c[i - lo - j], reading the 0/1 padding outside the grid
                start = pad - lo - taps.size + 1
                fir = np.convolve(padded[start : start + c.size + taps.size - 1], taps, "valid")
                lam += (c - padded[pad - k : pad - k + c.size]) * fir
            branch = branch - f.eps * lam
        out += w * branch

    # the continuum map is monotone; clamp roundoff/discretization violations
    raw = np.clip(out, 0.0, 1.0)
    mono = np.maximum.accumulate(raw)
    defect = float(np.max(mono - raw))
    budget = float(np.sum(mono - raw) * h)
    end_defect = abs(mono[-1] - 1.0)
    if end_defect > 1e-6:
        raise HomsysError(f"evolved CDF misses 1 by {end_defect:.3g}; support check was too permissive")
    mono[-1] = 1.0
    mono[0] = 0.0 if mono[0] < 1e-9 else mono[0]
    return GridCDF(d.lo, d.hi, mono, 0.0), StepDiagnostics(budget, defect, end_defect)


def step(d: GridCDF, model: ModelSpec, tol: float = 1e-9) -> GridCDF:
    return step_detailed(d, model, tol)[0]


@dataclass(frozen=True)
class RunDiagnostics:
    """Kernel diagnostics of a run through one checkpoint: t-cells and cell
    groups per atom (0 for a max/min atom), the summed clamp budget and the
    largest monotonicity defect of any step."""

    t_cells: tuple[int, ...]
    groups: tuple[int, ...]
    clamp_budget: float
    max_monotonicity_defect: float


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
    tol: float = 1e-9,
    m: int = 8192,
    law: str | None = None,
    scale_constant: float | None = None,
    exponent: float | None = None,
) -> list[RunCheckpoint]:
    """Evolve the grid law n_steps times, recording rescaled checkpoints.

    The domain is allocated once, sized from the growth (scale_constant *
    n_steps)^exponent of the support, so no regridding happens mid-run.
    Checkpoint laws are rescaled by (scale_constant * n)^exponent and compared
    to the limit CDF; missing scaling arguments are filled by resolve_scaling.
    """
    law, scale_constant, exponent = resolve_scaling(model, law, scale_constant, exponent)
    checkpoints = tuple(sorted(set(checkpoints)))
    if checkpoints and checkpoints[-1] > n_steps:
        raise DomainError("checkpoints must not exceed n_steps")

    tau_max = (scale_constant * max(n_steps, 1)) ** exponent
    half = 1.5 * tau_max + 8.0 + max(model.r_plus(), model.r_minus())
    lo = min(init.lo, -half)
    hi = max(init.hi, half)
    x = np.linspace(lo, hi, m + 1)
    cdf = init(x)
    cdf[-1] = 1.0
    cdf[0] = 0.0 if cdf[0] < 1e-12 else cdf[0]
    d = GridCDF(lo, hi, np.maximum.accumulate(cdf), 0.0)

    filters = grid_filters(model, d.h, hi - lo, tol)
    t_cells = tuple(0 if fl is None else fl.t_cells for fl in filters)
    groups = tuple(0 if fl is None else fl.groups for fl in filters)
    out: list[RunCheckpoint] = []
    budget = defect = 0.0
    cp = set(checkpoints)
    for n in range(1, n_steps + 1):
        d, diag = step_detailed(d, model, tol, filters)
        budget += diag.clamp_budget
        defect = max(defect, diag.max_monotonicity_defect)
        if budget > CLAMP_ABORT_BUDGET:
            raise ClampBudgetExceededError(f"accumulated clamp budget {budget:.3g} exceeds {CLAMP_ABORT_BUDGET}")
        if n in cp:
            scale = (scale_constant * n) ** exponent
            r = rescale(d, scale)
            out.append(RunCheckpoint(n, scale, ks(r, law), r, law, RunDiagnostics(t_cells, groups, budget, defect)))
    return out
