"""Moment integrals of the crossing function and the cube-root constant.

gamma(f, a, b) integrates t^a T(t)^b over (0, inf).  T is nonincreasing, may
diverge logarithmically at 0 and either hits zero at a finite point (compact
profiles) or decays exponentially (softplus profiles).  Its breakpoints are
known in advance (hfun), so the integral is one integrate_panels call over
fixed edges, with no tolerance-driven stopping rule; the integrand evaluates
T on the whole array of nodes of a refinement level.  alpha, the one-sided
area of a profile, is in closed form.

Every moment integral runs to one absolute tolerance, MOMENT_TOL = 1e-10.
On fixed edges T is smooth on each panel, and the Gauss-Kronrod rule lands
far inside that tolerance: Gamma^(0,1) of the sum atom lands within 3e-16 of pi^2/6,
c*(resistance(1/2)) within 2e-15 of 9 zeta(3), and the worst
integration-by-parts residual of the acceptance suite is 2e-15.  The regime
thresholds of models.classify are 100 MOMENT_TOL.

Each Gamma is integrated once per process: it reads nothing of f but the
profile g* of star(f) (r = f.r is g*(0)), a value, so gamma is cached on
(g*, float(a), float(b)).  Atoms that share g* (a sum and a parallel atom,
hipster+ and hipster-) share one entry, and c_star, m_eta, check_ipp, the
moment tables and models.classify and resolve_scaling all read through it.
Nothing else is cached: c* and the classification are summed from the
stored Gammas on every call, and nothing that depends on n, a grid, a seed
or a pool size is kept.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from functools import cache
from typing import TYPE_CHECKING

import numpy as np

from .errors import DegenerateModelError, DomainError, HomsysError
from .hfun import GFunction, HFunction, t_breaks, t_halvings, t_of, t_support_end
from .quadrature import integrate_panels

if TYPE_CHECKING:
    from .models import ModelSpec

__all__ = ["gamma", "m_eta", "alpha", "c_star", "check_ipp", "MomentTable", "moment_table", "model_moments"]

MOMENT_TOL = 1e-10  # absolute tolerance of every moment integral


def gamma(f: HFunction, a: float, b: float) -> float:
    """Moment integral of the crossing function, to absolute tolerance MOMENT_TOL.

    Integrated on the first call for its (g*, a, b); later calls return the
    cached value.  A bad a or b raises on every call.
    """
    if not a >= 0:  # NaN too; checked before the cache, so that a cached bad key cannot skip it
        raise DomainError("a must be nonnegative")
    if not b > 0:
        raise DomainError("b must be positive")
    return _gamma(f.g_star, float(a), float(b))


@cache
def _gamma(g_star: GFunction, a: float, b: float) -> float:
    """The integral of t^a T(t)^b over (0, inf), T the crossing function of f = F* with profile g*,
    by one integrate_panels call.

    The panel edges are the halvings t_halvings(f); 1, which tops the
    halvings when r > 1; the break levels t_breaks(f), a table's jumps among
    them; and the top end: the support end of a compact T, or for a softplus
    T the first of the doublings of 2r at which T is exactly 0, exp(-t/scale)
    having underflowed.  The quadrature nodes lie strictly inside each panel,
    so T is never read at 0 or at a jump.

    t^a may overflow at a node where t^a T^b does not (from a = 108 for the
    sum atom, whose Gamma(a + 1) zeta(a + 2) is finite up to a = 170).  Then
    the integral is not finite, and it is taken again of t^a T^b 2^-s,
    computed as t^(a/2) T^b t^(a/2) and scaled exactly, 2^s the largest power
    of 2 below the integrand's peak on a geometric grid of (0, top); the
    result is scaled back.  With its peak near 1 the integrand converges as
    the small moments do.  Unscaled, near 1e262, its rounding would have to
    stay below MOMENT_TOL, which an integrand taken in log space,
    exp(a log t + b log T), is far from: the rule then splits its panels
    until memory runs out.  Every Gamma that is finite unscaled keeps its
    bits; one that is still not finite raises HomsysError.
    """
    f = HFunction(+1, g_star)
    if f.r == 0.0:
        return 0.0
    top = t_support_end(f)
    if top is None:
        doublings = [2.0 * f.r]
        while t_of(f, doublings[-1]) > 0.0:
            doublings.append(2.0 * doublings[-1])
        top = doublings[-1]
    else:
        doublings = [top]
    edges = np.unique(np.concatenate([t_halvings(f), t_breaks(f), [1.0], doublings]))
    edges = edges[edges <= top]

    def integral(s: int | None) -> float:
        def h(t: np.ndarray, k: np.ndarray) -> np.ndarray:
            tv = t_of(f, t)
            out = np.zeros_like(t)
            pos = tv > 0.0
            if s is None:
                out[pos] = t[pos] ** a * tv[pos] ** b
            else:
                half = t[pos] ** (0.5 * a)
                out[pos] = np.ldexp(half * tv[pos] ** b * half, -s)
            return out

        return integrate_panels(h, edges.tolist(), MOMENT_TOL)

    with np.errstate(over="ignore", invalid="ignore"):
        value = integral(None)
        if not math.isfinite(value) and np.power(top, a) == np.inf:
            grid = np.geomspace(edges[0], top, 2048)
            tv = t_of(f, grid)
            pos = tv > 0.0
            s = math.floor(np.max(a * np.log2(grid[pos]) + b * np.log2(tv[pos])))
            value = float(np.ldexp(integral(s), s))
    if not math.isfinite(value):
        raise HomsysError(f"Gamma^({a!r},{b!r}) is not finite in double precision (got {value!r})")
    return value


def m_eta(f: HFunction, eta: float = 1.0) -> float:
    """max of the two minimal-integrability moments."""
    if not 0.0 < eta <= 1.0:
        raise DomainError("eta must lie in (0, 1]")
    return max(gamma(f, 1.0 + eta, 1.0), gamma(f, 0.0, 2.0 + eta))


def alpha(g: GFunction) -> float:
    """One-sided area of a profile: the integral of g over [0, inf), in closed form."""
    if g.family == "softplus":
        return g.params[0] ** 2 * math.pi**2 / 12.0
    if g.family == "tent":
        return 0.5 / g.params[0]
    if g.family == "table":  # piecewise linear between the nodes at or above 0 and z = 0, zero past the grid
        z = np.union1d(g.grid[g.grid >= 0.0], [0.0])
        return float(np.trapezoid(g(z), z))
    return 0.0


def c_star(model: ModelSpec) -> float:
    """(9/4) E[Gamma^(0,2) + 2 Gamma^(1,1)] over the mixture; positive by nontriviality."""
    if not model.is_nontrivial():
        raise DegenerateModelError("every atom is max or min; the scaling constant would vanish")
    acc = 0.0
    for w, f in model.atoms:
        acc += w * (gamma(f, 0.0, 2.0) + 2.0 * gamma(f, 1.0, 1.0))
    return 2.25 * acc


def check_ipp(f: HFunction, a: float, b: float) -> float:
    """Residual of the integration-by-parts identity a*G_swap(a-1,b) = b*G(b-1,a)."""
    if a < 1 or b < 1:
        raise DomainError("the identity needs a >= 1 and b >= 1")
    return a * gamma(f.swap(), a - 1.0, b) - b * gamma(f, b - 1.0, a)


@dataclass
class MomentTable:
    """Moment summary for one function of the mixture."""

    gamma01: float
    gamma02: float
    gamma11: float
    gamma_1eta_1: float
    gamma_0_2eta: float
    r: float
    m_eta: float
    eta: float

    def __post_init__(self):
        entries = (self.gamma01, self.gamma02, self.gamma11, self.gamma_1eta_1, self.gamma_0_2eta)
        if any(v < 0 for v in entries):
            raise DomainError("moment entries must be nonnegative")
        if abs(self.m_eta - max(self.gamma_1eta_1, self.gamma_0_2eta)) > 1e-9 * max(self.m_eta, 1.0):
            raise DomainError("m_eta must be the max of the two eta-moments")
        if self.r ** (3.0 + self.eta) > self.m_eta * (1 + 1e-9) + 1e-12:
            raise DomainError("corner bound r^(3+eta) <= m_eta violated")


def moment_table(f: HFunction, eta: float = 1.0) -> MomentTable:
    m = m_eta(f, eta)  # checks eta before any Gamma
    return MomentTable(
        gamma01=gamma(f, 0.0, 1.0),
        gamma02=gamma(f, 0.0, 2.0),
        gamma11=gamma(f, 1.0, 1.0),
        gamma_1eta_1=gamma(f, 1.0 + eta, 1.0),
        gamma_0_2eta=gamma(f, 0.0, 2.0 + eta),
        r=f.r,
        m_eta=m,
        eta=eta,
    )


def model_moments(model: ModelSpec, eta: float = 1.0) -> dict:
    """Per-atom moment tables plus the aggregated scaling constant."""
    tables = [moment_table(f, eta) for f in model.functions]
    return {
        "atoms": [
            {"weight": float(w), "label": f.label or f.g.family, "eps": f.eps, **asdict(t)}
            for (w, f), t in zip(model.atoms, tables)
        ],
        "c_star": c_star(model) if model.is_nontrivial() else 0.0,
        "eta": eta,
        "tol": MOMENT_TOL,
    }
