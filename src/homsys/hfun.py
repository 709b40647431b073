"""Algebra of 1-homogeneous two-argument functions.

A function F in the class handled here is determined by a sign ``eps`` and a
log-scale profile ``g``:

    log F(e^x, e^y) = max(x, y) + g(x - y)      if eps = +1
    log F(e^x, e^y) = min(x, y) - g(x - y)      if eps = -1

where g >= 0 is 1-Lipschitz, nonincreasing on [0, inf), nondecreasing on
(-inf, 0] and vanishes at +-inf.  The pair (eps, g) is the canonical storage;
every evaluation goes through the correspondence above, which makes
homogeneity and the boundary limits automatic.

The module also provides the dualities (the ``HFunction`` methods ``swap``,
``invert`` and the positive representative ``star``), the crossing function
``t_of`` and the corner value ``HFunction.r`` that drive all moment integrals
downstream.  ``t_of`` is exact for every profile family (closed forms, and a
piecewise-linear inverse for tables) and returns the sup at a flat crossing.
Where T is not smooth is known in advance, and every t-integral takes its
panel edges from here: the break levels (``t_breaks``, a table's kinks and
jumps among them), the halvings toward T's log singularity at 0
(``t_halvings``) and the support end (``t_support_end``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, InvalidProfileError

__all__ = [
    "GFunction",
    "HFunction",
    "ValidationReport",
    "g_zero",
    "g_softplus",
    "g_hip",
    "g_tent",
    "g_table",
    "from_g",
    "t_of",
    "validate",
    "F_SUM",
    "F_PARALLEL",
    "F_MAX",
    "F_MIN",
    "F_HIP_PLUS",
    "F_HIP_MINUS",
    "power_mean",
    "asym_tent",
]

_LIP_TOL = 1e-12
MIN_POWER_MEAN_SCALE = 1e-3
_MAX_HALVINGS = 120


@dataclass(frozen=True)
class GFunction:
    """Log-scale profile: a nonnegative even-peaked bump over the max/min skeleton.

    ``family`` is one of ``zero``, ``softplus`` (scale a: a*log(1+e^{-|z|/a})),
    ``tent`` (slopes s_plus on z>=0 and s_minus on z<0) or ``table``
    (piecewise-linear values on a symmetric uniform grid, vanishing outside).
    """

    family: str
    params: tuple = ()
    grid: np.ndarray | None = field(default=None, repr=False, compare=False)
    values: np.ndarray | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.family not in ("zero", "softplus", "tent", "table"):
            raise InvalidProfileError(f"unknown profile family {self.family!r}")
        if self.family == "softplus":
            (a,) = self.params
            if not a > 0:
                raise InvalidProfileError("softplus scale must be positive")
        elif self.family == "tent":
            sp, sm = self.params
            if not (0 < sp <= 1 and 0 < sm <= 1):
                raise InvalidProfileError("tent slopes must lie in (0, 1]")
        elif self.family == "table":
            self._check_table()

    def _check_table(self):
        z, v = self.grid, self.values
        if z is None or v is None or len(z) != len(v) or len(z) < 3:
            raise InvalidProfileError("table profile needs matching grid/values of length >= 3")
        dz = np.diff(z)
        if not np.allclose(dz, dz[0], rtol=0, atol=1e-9 * abs(dz[0])):
            raise InvalidProfileError("table grid must be uniform")
        if abs(z[0] + z[-1]) > 1e-9 * (z[-1] - z[0]):
            raise InvalidProfileError("table grid must be symmetric about 0")
        if np.any(v < 0):
            raise InvalidProfileError("profile values must be nonnegative")
        if abs(v[0]) > _LIP_TOL or abs(v[-1]) > _LIP_TOL:
            raise InvalidProfileError("table profile must vanish at the grid ends")
        dv = np.diff(v)
        if np.any(np.abs(dv) > dz + _LIP_TOL):
            raise InvalidProfileError("profile violates the 1-Lipschitz bound")
        # monotonicity per side on the grid with 0 inserted, so that no cell straddles z = 0
        zs = np.union1d(z, 0.0)
        dvs = np.diff(np.interp(zs, z, v))
        if np.any(dvs[zs[:-1] >= 0] > _LIP_TOL):
            raise InvalidProfileError("profile must be nonincreasing on [0, inf)")
        if np.any(dvs[zs[1:] <= 0] < -_LIP_TOL):
            raise InvalidProfileError("profile must be nondecreasing on (-inf, 0]")

    def __call__(self, z):
        z = np.asarray(z, dtype=float)
        scalar = z.ndim == 0
        z = np.atleast_1d(z)
        out = np.where(np.isfinite(z), self._eval_finite(z), 0.0)
        return float(out[0]) if scalar else out

    def _eval_finite(self, z: np.ndarray) -> np.ndarray:
        """Vectorized evaluation for finite float arrays (hot path, no checks)."""
        if self.family == "zero":
            return np.zeros_like(z)
        if self.family == "softplus":
            (a,) = self.params
            return a * np.log1p(np.exp(-np.abs(z) / a))
        if self.family == "tent":
            sp, sm = self.params
            if sp == sm:
                return np.maximum(0.0, 1.0 - sp * np.abs(z))
            return np.where(z >= 0, np.maximum(0.0, 1.0 - sp * z), np.maximum(0.0, 1.0 + sm * z))
        return np.interp(z, self.grid, self.values, left=0.0, right=0.0)

    @property
    def peak(self) -> float:
        """g(0), the maximum of the profile."""
        if self.family == "zero":
            return 0.0
        if self.family == "softplus":
            return self.params[0] * math.log(2.0)
        if self.family == "tent":
            return 1.0
        return float(self(0.0))

    @property
    def is_zero(self) -> bool:
        return self.peak == 0.0

    def reflected(self) -> "GFunction":
        """The profile z -> g(-z)."""
        if self.family in ("zero", "softplus"):
            return self
        if self.family == "tent":
            sp, sm = self.params
            return GFunction("tent", (sm, sp))
        return GFunction("table", (), grid=self.grid, values=self.values[::-1].copy())


def g_zero() -> GFunction:
    return GFunction("zero")


def g_softplus(scale: float = 1.0) -> GFunction:
    return GFunction("softplus", (float(scale),))


def g_hip() -> GFunction:
    return GFunction("tent", (1.0, 1.0))


def g_tent(s_plus: float, s_minus: float) -> GFunction:
    return GFunction("tent", (float(s_plus), float(s_minus)))


def g_table(grid, values) -> GFunction:
    return GFunction("table", (), grid=np.asarray(grid, dtype=float), values=np.asarray(values, dtype=float))


@dataclass(frozen=True)
class HFunction:
    """A member of the function class: orientation sign plus profile."""

    eps: int
    g: GFunction
    label: str = ""

    def __post_init__(self):
        if self.eps not in (+1, -1):
            raise DomainError("eps must be +1 or -1")

    # -- evaluation ---------------------------------------------------------

    def log_eval(self, lx, ly):
        """log F(e^lx, e^ly), vectorized; exact in the log domain."""
        lx = np.asarray(lx, dtype=float)
        ly = np.asarray(ly, dtype=float)
        if self.eps == +1:
            base = np.maximum(lx, ly)
        else:
            base = np.minimum(lx, ly)
        diff = np.full(np.broadcast(lx, ly).shape, np.inf)
        np.subtract(lx, ly, out=diff, where=np.isfinite(lx) & np.isfinite(ly))
        return base + self.eps * self.g(diff)

    def log_eval_finite(self, lx: np.ndarray, ly: np.ndarray) -> np.ndarray:
        """log F(e^lx, e^ly) for finite float arrays (hot path)."""
        base = np.maximum(lx, ly) if self.eps == +1 else np.minimum(lx, ly)
        return base + self.eps * self.g._eval_finite(lx - ly)

    def __call__(self, x: float, y: float) -> float:
        if not (x > 0 and y > 0):
            raise DomainError("arguments must be positive")
        return float(np.exp(self.log_eval(math.log(x), math.log(y))))

    # -- dualities ----------------------------------------------------------

    def swap(self) -> "HFunction":
        """F#(x, y) = F(y, x): same sign, reflected profile."""
        return HFunction(self.eps, self.g.reflected(), _dual_label(self.label, "#"))

    def invert(self) -> "HFunction":
        """F_inv(x, y) = 1/F(1/x, 1/y): flipped sign, reflected profile."""
        return HFunction(-self.eps, self.g.reflected(), _dual_label(self.label, "inv"))

    def star(self) -> "HFunction":
        """The positive representative: F itself if eps=+1, else its inversion."""
        return self if self.eps == +1 else self.invert()

    @property
    def g_star(self) -> GFunction:
        """Profile of star(F); used by the crossing function."""
        return self.g if self.eps == +1 else self.g.reflected()

    @property
    def r(self) -> float:
        """log F*(1, 1); zero exactly for max and min."""
        return self.g.peak

    def __repr__(self):
        return f"HFunction(eps={self.eps:+d}, {self.label or self.g.family})"


def _dual_label(label: str, op: str) -> str:
    return f"{label}^{op}" if label else ""


def from_g(g: GFunction, eps: int, label: str = "") -> HFunction:
    """Construct the unique F with the given (eps, g) pair.

    For table profiles the class axioms are re-checked on the representation
    grid; violations raise InvalidProfileError.
    """
    if g.family == "table":
        g._check_table()
    return HFunction(eps, g, label)


def _h_nodes(g: GFunction) -> tuple[np.ndarray, np.ndarray]:
    """Nodes (u_i, H_i) of H(u) = g(u) - min(u, 0) for a table profile g: piecewise linear between the
    grid and 0, -u left of the grid, 0 right of it, and nonincreasing because g is 1-Lipschitz (the
    running minimum removes the rise of up to 1e-12 that the slope check admits)."""
    u = np.union1d(g.grid, [0.0])
    return u, np.minimum.accumulate(g(u) - np.minimum(u, 0.0))


def _table_crossing(g: GFunction, t: np.ndarray) -> np.ndarray:
    """T(t) = t + sup{u : H(u) >= t}, since log F*(e^-t, e^-(t+u)) = H(u) - t: the last node with
    H_j >= t, then linear interpolation toward the next one."""
    u, hv = _h_nodes(g)
    j = np.searchsorted(-hv, -t, side="right") - 1  # -1 if none: H = -u there, so T = 0
    jc = np.clip(j, 0, u.size - 2)
    drop = hv[jc] - hv[jc + 1]
    frac = np.divide(hv[jc] - t, drop, out=np.zeros_like(t), where=drop > 0.0)
    sup = np.where(j < 0, -t, np.where(j == u.size - 1, u[-1], u[jc] + frac * (u[jc + 1] - u[jc])))
    return np.maximum(t + sup, 0.0)


def _crossing(g: GFunction, t: np.ndarray) -> np.ndarray:
    """T(t) on a 1-d array, in closed form for every profile family."""
    if g.family == "zero":
        return np.zeros_like(t)
    if g.family == "table":
        return _table_crossing(g, t)
    out = np.empty_like(t)
    if g.family == "softplus":
        (a,) = g.params
        s = t / a
        # two algebraically equal forms of -a log(1 - e^-s), stable at each end
        far = s >= 1.0
        out[far] = -a * np.log1p(-np.exp(-s[far]))
        out[~far] = -a * np.log(-np.expm1(-s[~far]))
        return out
    sp, sm = g.params  # tent
    near = t < 1.0
    out[near] = t[near] + (1.0 - t[near]) / sp
    if sm == 1.0:
        # flat crossing exactly at t = 1; return the sup there
        out[~near] = np.where(t[~near] == 1.0, 1.0, 0.0)
    else:
        out[~near] = np.maximum(0.0, (1.0 - sm * t[~near]) / (1.0 - sm))
    return out


def t_of(f: HFunction, t):
    """Crossing function T_F(t) = sup{z : F*(e^-t, e^-z) >= 1}, elementwise.

    Exact for every profile family: the zero, softplus and tent crossings are
    elementary, and for a table profile T(t) = t + sup{u : H(u) >= t} with
    the piecewise-linear H(u) = g*(u) - min(u, 0).  At a flat crossing (a
    wing of slope 1) the sup of the flat set is returned.  A float t gives a
    float, an array t an array of its shape.
    """
    x = np.asarray(t, dtype=float)
    flat = x.ravel()
    if not np.all(flat > 0):
        raise DomainError("t must be positive")
    out = _crossing(f.g_star, flat)
    return float(out[0]) if x.ndim == 0 else out.reshape(x.shape)


def t_kinks(f: HFunction) -> np.ndarray:
    """The t > 0 where a table profile's T kinks, t = H(u_i); empty for the other families.

    T jumps down at the levels of the flat pieces of H (a slope-1 piece of g*'s left wing, a plateau
    of its right wing), which are among these; there t_of gives the value from the left."""
    if f.g_star.family != "table":
        return np.empty(0)
    _, hv = _h_nodes(f.g_star)
    return np.unique(hv[hv > 0.0])


def t_breaks(f: HFunction) -> np.ndarray:
    """The levels that cut a t-integral of T into smooth panels: the corner value r and, for a table
    profile, every kink t_kinks(f), the jumps among them."""
    return np.append(f.r, t_kinks(f))


def t_halvings(f: HFunction) -> np.ndarray:
    """The panel edges min(r, 1) 2^-j, j = 1.._MAX_HALVINGS, toward 0, where T may diverge like
    log(1/t); what a t-integral of T gathers below the last one is far below any tolerance."""
    return min(f.r, 1.0) * 0.5 ** np.arange(1, _MAX_HALVINGS + 1)


def t_support_end(f: HFunction) -> float | None:
    """Smallest t beyond which T_F vanishes identically, or None if T > 0 everywhere.

    T is nonincreasing, and T(t) = 0 exactly when g*(-t) = 0, so the support
    end is the point where the left wing of g* hits zero.
    """
    gs = f.g_star
    if gs.family == "zero":
        return 0.0
    if gs.family == "softplus":
        return None
    if gs.family == "tent":
        _, sm = gs.params
        return 1.0 / sm
    z, v = gs.grid, gs.values
    neg = z <= 0
    nz = v[neg] > 0
    if not nz.any():
        return 0.0
    first = int(np.argmax(nz))
    # support of the left wing starts at the node before the first positive value
    return float(-z[neg][max(first - 1, 0)])


@dataclass
class ValidationReport:
    passed: bool
    violations: list[str]


def validate(f: HFunction) -> ValidationReport:
    """Check the class axioms on 64 fixed random probe points (x, y) in
    [e^-6, e^6]^2: homogeneity, coordinatewise monotonicity, the eps-side
    bound, and the boundary limits."""
    rng = np.random.default_rng(0)
    probes = np.exp(rng.uniform(-6, 6, size=(64, 2)))
    violations: list[str] = []
    scales = np.exp(rng.uniform(-3, 3, size=len(probes)))
    for (x, y), a in zip(probes, scales):
        fxy = f(x, y)
        if abs(f(a * x, a * y) - a * fxy) > 1e-10 * a * fxy:
            violations.append(f"homogeneity fails at (x={x:.3g}, y={y:.3g}, a={a:.3g})")
        for xp in (x * 1.01, x * 2.0):
            if f(xp, y) < fxy - 1e-12 * fxy:
                violations.append(f"monotonicity in x fails at (x={x:.3g}, y={y:.3g})")
        if f.eps == +1 and fxy < max(x, y) * (1 - 1e-12):
            violations.append(f"eps=+1 side bound fails at (x={x:.3g}, y={y:.3g})")
        if f.eps == -1 and fxy > min(x, y) * (1 + 1e-12):
            violations.append(f"eps=-1 side bound fails at (x={x:.3g}, y={y:.3g})")
    # boundary limits: F(x, y) -> y as x -> 0 (eps=+1) or x -> inf (eps=-1)
    for y in (0.5, 1.0, 3.0):
        if f.eps == +1:
            lim = f(1e-14, y)
        else:
            lim = f(1e14, y)
        if abs(lim - y) > 1e-6 * y:
            violations.append(f"boundary limit fails at y={y}")
    return ValidationReport(passed=not violations, violations=violations)


# -- built-in instances -------------------------------------------------------

F_SUM = HFunction(+1, g_softplus(1.0), "sum")
F_PARALLEL = HFunction(-1, g_softplus(1.0), "parallel")
F_MAX = HFunction(+1, g_zero(), "max")
F_MIN = HFunction(-1, g_zero(), "min")
F_HIP_PLUS = HFunction(+1, g_hip(), "hipster+")
F_HIP_MINUS = HFunction(-1, g_hip(), "hipster-")


def power_mean(alpha: float) -> HFunction:
    """F(x, y) = (x^{1/alpha} + y^{1/alpha})^alpha, orientation sign(alpha)."""
    if abs(alpha) < MIN_POWER_MEAN_SCALE:
        raise DomainError(f"|alpha| must be >= {MIN_POWER_MEAN_SCALE}")
    return HFunction(+1 if alpha > 0 else -1, g_softplus(abs(alpha)), f"power_mean({alpha:g})")


def asym_tent(s_plus: float, s_minus: float, eps: int = +1) -> HFunction:
    """Asymmetric tent profile with slopes s_plus (right) and s_minus (left)."""
    return HFunction(eps, g_tent(s_plus, s_minus), f"tent({s_plus:g},{s_minus:g})")
