"""Numeric embodiment of the lower-bound proof machinery.

This module instantiates the deterministic schedule (tau_n, sigma_n, a_n and
their tilde twins, beta_n, q_n), the piecewise-quadratic bridging densities,
the per-n Lambda-condition inequality and the stochastic lower bound it
yields.  Everything is computed with exact closed forms except the Lambda
operator itself, which reuses the generic Lambda quadrature of the evolution
module: the whole v-grid of one n goes through one batched adaptive
Gauss-Kronrod call per atom, with the density and its CDF evaluated on
arrays.

All "sufficiently large n" thresholds are outputs of numeric scans, never
hard-coded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, ScheduleInfeasibleError
from .evolve import LAMBDA_TOL, lambda_operator
from .models import ModelSpec
from .quadrature import integrate_panels

__all__ = [
    "ProofParams",
    "ScheduleRow",
    "schedule",
    "q_increment",
    "psi_n",
    "Psi_n",
    "delta_psi",
    "lambda_condition",
    "LambdaConditionReport",
    "find_n0",
    "lower_bound",
    "default_v_grid",
]


@dataclass(frozen=True)
class ProofParams:
    """Exponents and offsets of the bridging schedule.

    Interval constraints (checked at construction):
      c_star in (0, inf), eta in (0, 1], delta in (0, 1), delta1 in (0, delta/9),
      rho in (1/(1+eta), 1), kappa in (0, min(2-2rho, 1-2rho_tilde, eta)/3),
      rho_tilde in (0, (1-3kappa)/2).
    """

    c_star: float
    eta: float = 1.0
    delta: float = 0.5
    delta1: float = 0.05
    rho: float = field(default=None)  # type: ignore[assignment]
    rho_tilde: float = field(default=None)  # type: ignore[assignment]
    kappa: float = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        if self.rho is None:
            object.__setattr__(self, "rho", 1.0 / (1.0 + self.eta / 2.0))
        if self.rho_tilde is None:
            object.__setattr__(self, "rho_tilde", self.rho / 2.0)
        if self.kappa is None:
            object.__setattr__(self, "kappa", (1.0 - self.rho) / 4.0)
        if not 0.0 < self.c_star < math.inf:
            raise DomainError("c_star must be finite and positive")
        if not 0.0 < self.eta <= 1.0:
            raise DomainError("eta must lie in (0, 1]")
        if not 0.0 < self.delta < 1.0:
            raise DomainError("delta must lie in (0, 1)")
        if not 0.0 < self.delta1 < self.delta / 9.0:
            raise DomainError("delta1 must lie in (0, delta/9)")
        if not 1.0 / (1.0 + self.eta) < self.rho < 1.0:
            raise DomainError("rho must lie in (1/(1+eta), 1)")
        if not 0.0 < self.kappa < min(2.0 - 2.0 * self.rho, 1.0 - 2.0 * self.rho_tilde, self.eta) / 3.0:
            raise DomainError("kappa must lie in (0, min(2-2rho, 1-2rho_tilde, eta)/3)")
        if not 0.0 < self.rho_tilde < (1.0 - 3.0 * self.kappa) / 2.0:
            raise DomainError("rho_tilde must lie in (0, (1-3kappa)/2)")


@dataclass(frozen=True)
class ScheduleRow:
    """All schedule quantities at one n."""

    n: int
    tau: float
    sigma: float
    a: float
    tau_tilde: float
    sigma_tilde: float
    a_tilde: float
    beta: float
    q: float


def _tau(params: ProofParams, n: int) -> float:
    return (params.c_star * n) ** (1.0 / 3.0)


def _q(params: ProofParams, n: int) -> float:
    return params.delta1 * (1.0 - n ** (-params.kappa))


def q_increment(params: ProofParams, n: int) -> float:
    """q_{n+1} - q_n, computed without cancellation."""
    return params.delta1 * n ** (-params.kappa) * (-math.expm1(-params.kappa * math.log1p(1.0 / n)))


def _norm_const(tau: float, sigma: float) -> float:
    return tau * tau / (tau * tau * sigma - sigma**3 / 3.0)


def _solve_tau_tilde(params: ProofParams, tau: float, sigma: float) -> float:
    """Bisection for tau_tilde on [sigma, tau]: match the density normalization."""
    rhs = _norm_const(tau, sigma)

    def fn(x: float) -> float:
        st = x - x**params.rho_tilde
        if st <= 0:
            raise ScheduleInfeasibleError(f"sigma_tilde <= 0 at x={x:.6g}; n too small")
        return _norm_const(x, st) - rhs

    lo, hi = sigma, tau
    flo, fhi = fn(lo), fn(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo * fhi > 0:
        raise ScheduleInfeasibleError(
            f"tau_tilde bracket failure on [{sigma:.6g}, {tau:.6g}] (f={flo:.3g}, {fhi:.3g}); n too small"
        )
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fm = fn(mid)
        if flo * fm <= 0:
            hi, fhi = mid, fm
        else:
            lo, flo = mid, fm
        if hi - lo <= 1e-14 * hi:
            break
    return 0.5 * (lo + hi)


def schedule(params: ProofParams, n: int) -> ScheduleRow:
    """All schedule quantities at n; raises ScheduleInfeasibleError for small n, and
    DomainError if tau at n or n + 1 is not finite."""
    if n < 1:
        raise DomainError("n must be >= 1")
    tau, tau_next = _tau(params, n), _tau(params, n + 1)
    if not math.isfinite(tau_next):  # tau <= tau_next
        raise DomainError(f"tau = (c* n)^(1/3) is not finite at n={n} or {n + 1}")
    sigma = tau - tau**params.rho
    if sigma <= 0:
        raise ScheduleInfeasibleError(f"sigma <= 0 at n={n} (tau={tau:.6g} <= 1)")
    a = 1.0 / (2.0 * (tau * tau * sigma - sigma**3 / 3.0))
    tau_t = _solve_tau_tilde(params, tau, sigma)
    sigma_t = tau_t - tau_t**params.rho_tilde
    if sigma_t <= 0:
        raise ScheduleInfeasibleError(f"sigma_tilde <= 0 at n={n}")
    a_t = a * tau * tau / (tau_t * tau_t)
    beta = tau_next - tau
    return ScheduleRow(n, tau, sigma, a, tau_t, sigma_t, a_t, beta, _q(params, n))


# -- bridging density and its exact CDF ----------------------------------------


def psi_n(row: ScheduleRow, v) -> np.ndarray | float:
    """Piecewise-quadratic bridging density: wide bump for v<0, narrow for v>=0."""
    v = np.asarray(v, dtype=float)
    v2, av = v * v, np.abs(v)
    pos = row.a * (row.tau**2 - v2) * (av < row.sigma)
    neg = row.a_tilde * (row.tau_tilde**2 - v2) * (av < row.sigma_tilde)
    out = np.where(v >= 0, pos, neg)
    return float(out) if out.ndim == 0 else out


def Psi_n(row: ScheduleRow, v) -> np.ndarray | float:
    """Exact CDF of psi_n: cubic polynomials on each side, 1/2 at zero."""
    v = np.asarray(v, dtype=float)
    w = np.clip(v, -row.sigma_tilde, row.sigma)  # each side's polynomial reads w only where it is selected
    w3 = w * w * w
    neg = row.a_tilde * (row.tau_tilde**2 * (w + row.sigma_tilde) - (w3 + row.sigma_tilde**3) / 3.0)
    pos = 0.5 + row.a * (row.tau**2 * w - w3 / 3.0)
    out = np.clip(np.where(v < 0, neg, pos), 0.0, 1.0)
    return float(out) if out.ndim == 0 else out


def delta_psi(params: ProofParams, row_n: ScheduleRow, row_n1: ScheduleRow, v) -> np.ndarray | float:
    """Psi_{n+1}(v + delta beta_n) - Psi_n(v)."""
    return Psi_n(row_n1, np.asarray(v, dtype=float) + params.delta * row_n.beta) - Psi_n(row_n, v)


def psi_n_quadrature(row: ScheduleRow, v: float) -> float:
    """Independent numeric CDF (quadrature of psi_n to LAMBDA_TOL); test oracle for Psi_n."""
    lo = -row.sigma_tilde
    if v <= lo:
        return 0.0
    edges = sorted({e for e in (lo, 0.0, min(v, row.sigma)) if e <= v})
    return min(integrate_panels(lambda z, k: psi_n(row, z), edges, LAMBDA_TOL), 1.0)


# -- the Lambda condition -------------------------------------------------------


@dataclass
class LambdaConditionReport:
    n: int
    min_residual: float
    argmin_v: float
    v_grid: np.ndarray
    residuals: np.ndarray

    @property
    def passed(self) -> bool:
        return self.min_residual >= 0.0


def default_v_grid(params: ProofParams, n: int, points: int = 400) -> np.ndarray:
    """Grid spanning the support fringe up to the allowed right end.

    Below -sigma_tilde_n - 1 every term except the positive q-increment term
    vanishes, so the grid starts slightly below the support edge.
    """
    return _v_grid(params, schedule(params, n), schedule(params, n + 1), points)


def _v_grid(params: ProofParams, row: ScheduleRow, row1: ScheduleRow, points: int) -> np.ndarray:
    right = row1.sigma - params.delta * row.beta
    return np.linspace(-row.sigma_tilde - 2.0, right - 1e-9, points)


def expected_lambda(model: ModelSpec, row: ScheduleRow, v) -> np.ndarray:
    """Mixture average of the Lambda operator under the bridging density, at each v of an array."""
    support = (-row.sigma_tilde, row.sigma)
    breaks = (-row.sigma_tilde, 0.0, row.sigma)
    psi_fn = lambda u: psi_n(row, u)
    cdf_fn = lambda u: Psi_n(row, u)
    acc = 0.0
    for w, f in model.atoms:
        acc += w * lambda_operator(psi_fn, cdf_fn, f, v, support=support, psi_breaks=breaks)
    return acc


def lambda_condition(
    model: ModelSpec,
    params: ProofParams,
    n: int,
    v_grid: np.ndarray | None = None,
    points: int = 400,
) -> LambdaConditionReport:
    """Evaluate the per-n inequality and report its minimum over the grid.

    v_grid defaults to default_v_grid(params, n, points), made from the same
    two schedule rows as the residual.

    residual(v) = E[Lambda_{psi_n, F}(v)]
                  + (1-q_{n+1})/(1-q_n)^2 * [Psi_{n+1}(v + delta beta_n) - Psi_n(v)]
                  + (q_{n+1}-q_n)/(1-q_n)^2 * (1 - Psi_n(v))
    """
    row = schedule(params, n)
    row1 = schedule(params, n + 1)
    v_grid = _v_grid(params, row, row1, points) if v_grid is None else np.asarray(v_grid, dtype=float)
    right_end = row1.sigma - params.delta * row.beta
    if np.any(v_grid >= right_end):
        raise DomainError("v_grid must stay below sigma_{n+1} - delta beta_n")
    q0, dq = row.q, q_increment(params, n)
    q1 = q0 + dq
    omq2 = (1.0 - q0) ** 2
    el = expected_lambda(model, row, v_grid)
    dpsi = delta_psi(params, row, row1, v_grid)
    res = el + (1.0 - q1) / omq2 * dpsi + dq / omq2 * (1.0 - Psi_n(row, v_grid))
    i = int(np.argmin(res))
    return LambdaConditionReport(n, float(res[i]), float(v_grid[i]), v_grid, res)


def find_n0(
    model: ModelSpec,
    params: ProofParams,
    n_max: int,
    n_min: int = 64,
    points: int = 400,
) -> tuple[int | None, list[LambdaConditionReport]]:
    """Scan n = n_min, 2 n_min, 4 n_min, ... for the first nonnegative minimum residual.

    Each scanned n uses default_v_grid(params, n, points); an n whose schedule
    is infeasible is skipped.  Returns (n0, reports); n0 is None when no
    scanned n within [n_min, n_max] passes.  An empty range (n_min > n_max),
    a range in which no scanned n has a feasible schedule, and n_min < 1
    (from schedule) raise DomainError.  The reported n0 depends on the grid
    and the quadrature tolerance; it is an empirical threshold, not a
    certified constant.
    """
    if n_min > n_max:
        raise DomainError(f"empty n range: n_min={n_min} > n_max={n_max}")
    history: list[LambdaConditionReport] = []
    n = n_min
    while n <= n_max:
        try:
            rep = lambda_condition(model, params, n, points=points)
        except ScheduleInfeasibleError:
            n *= 2
            continue
        history.append(rep)
        if rep.passed:
            return n, history
        n *= 2
    if not history:
        raise DomainError(f"no n scanned in [{n_min}, {n_max}] has a feasible schedule")
    return None, history


# -- the stochastic lower bound --------------------------------------------------


def lower_bound(params: ProofParams, n: int, x: float) -> float:
    """(1 - q_n) [1 - Psi_n((x + delta) tau_n)]: the probability floor for
    P(X_{n-n0} >= e^{x tau_n}) once the Lambda condition holds from n0 on.

    The value does not depend on n0, so keeping n >= n0 is the caller's part;
    n < 1 raises DomainError."""
    row = schedule(params, n)
    return (1.0 - row.q) * (1.0 - float(Psi_n(row, (x + params.delta) * row.tau)))
