"""Exact deterministic evolution of the law of log X_n on a grid.

One step maps a CDF Psi through the mixture of the one-step laws

    P{log F(e^Y, e^Yhat) < v} = Psi(v)^2 - Lam(v)                (eps = +1)
    P{log F(e^Y, e^Yhat) < v} = 2 Psi(v) - Psi(v)^2 - Lam(v)     (eps = -1)

where Lam is the crossing-function correction operator.  The grid step
computes the t-quadrature with fixed composite-Simpson panels shared across
all grid nodes, so the per-node work is a pair of constant-shift blends and
the result is deterministic regardless of evaluation order.
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

__all__ = ["lambda_operator", "step", "step_detailed", "run", "StepDiagnostics", "RunCheckpoint"]

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


def _int_shift(arr: np.ndarray, k: int, left: float, right: float) -> np.ndarray:
    """out[i] = arr[i - k] with constant padding."""
    n = arr.size
    out = np.empty(n)
    if k >= n:
        out[:] = left
    elif k <= -n:
        out[:] = right
    elif k >= 0:
        out[:k] = left
        out[k:] = arr[: n - k]
    else:
        out[n + k :] = right
        out[: n + k] = arr[-k:]
    return out


def _sample_shifted(arr: np.ndarray, shift_cells: float, left: float, right: float) -> np.ndarray:
    """Piecewise-linear value of arr at fractional index i - shift_cells."""
    k = math.floor(shift_cells)
    phi = shift_cells - k
    a = _int_shift(arr, k, left, right)
    if phi == 0.0:
        return a
    b = _int_shift(arr, k + 1, left, right)
    return (1.0 - phi) * a + phi * b


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


@dataclass
class StepDiagnostics:
    clamp_budget: float
    max_monotonicity_defect: float
    end_defect: float


def step_detailed(d: GridCDF, model: ModelSpec, tol: float = 1e-9) -> tuple[GridCDF, StepDiagnostics]:
    """One exact evolution step of the grid law under the mixture."""
    if d.atom_neg_inf != 0.0:
        raise DomainError("grid evolution requires an atomless law")
    c = d.cdf
    x = d.grid()
    h = d.h
    root_tol = min(1e-12, tol / 100.0)

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

    span = d.hi - d.lo
    out = np.zeros_like(c)
    for w, f in model.atoms:
        if f.eps == +1:
            branch = c * c
        else:
            branch = 2.0 * c - c * c
        edges = _atom_t_cells(f, h, span, root_tol)
        if edges is not None:
            lam = np.zeros_like(c)
            sign = float(f.eps)
            prev = _sample_shifted(c, sign * edges[0] / h, 0.0, 1.0)
            for t0, t1 in zip(edges, edges[1:]):
                nxt = _sample_shifted(c, sign * t1 / h, 0.0, 1.0)
                cell_mass = sign * (prev - nxt)  # integral of psi(v - eps t) over the cell
                tt = t_of(f, max(0.5 * (t0 + t1), 1e-12), root_tol)
                cdf_s = _sample_shifted(c, sign * tt / h, 0.0, 1.0)
                lam += cell_mass * (sign * (c - cdf_s))
                prev = nxt
            branch = branch - sign * lam
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


@dataclass
class RunCheckpoint:
    n: int
    scale: float
    ks: float
    dist: GridCDF
    law: str


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

    out: list[RunCheckpoint] = []
    budget = 0.0
    cp = set(checkpoints)
    for n in range(1, n_steps + 1):
        d, diag = step_detailed(d, model, tol)
        budget += diag.clamp_budget
        if budget > CLAMP_ABORT_BUDGET:
            raise ClampBudgetExceededError(f"accumulated clamp budget {budget:.3g} exceeds {CLAMP_ABORT_BUDGET}")
        if n in cp:
            scale = (scale_constant * n) ** exponent
            r = rescale(d, scale)
            out.append(RunCheckpoint(n, scale, ks(r, law), r, law))
    return out
