"""Finite-mixture laws of the random function, built-in named models, and the
criticality/regime classifier."""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from . import hfun
from .errors import DomainError
from .hfun import HFunction
from .moments import alpha, c_star, gamma

__all__ = [
    "ModelSpec",
    "CriticalityReport",
    "builtin",
    "classify",
    "sample_f",
    "sample_indices",
    "apply_mixture",
    "resolve_scaling",
    "invert_model",
    "parse_model",
    "model_digest",
    "KNOWN_SQRT_CONSTANTS",
]

_WEIGHT_TOL = 1e-12


@dataclass(frozen=True)
class ModelSpec:
    """Finite mixture of class functions: the law of the random recursion map."""

    atoms: tuple[tuple[float, HFunction], ...]
    name: str = ""

    def __post_init__(self):
        if not self.atoms:
            raise DomainError("a model needs at least one atom")
        weights = [w for w, _ in self.atoms]
        if any(w <= 0 for w in weights):
            raise DomainError("atom weights must be positive")
        if abs(sum(weights) - 1.0) > _WEIGHT_TOL:
            raise DomainError(f"atom weights must sum to 1 (got {sum(weights)!r})")

    @property
    def weights(self) -> np.ndarray:
        return np.array([w for w, _ in self.atoms])

    @property
    def functions(self) -> tuple[HFunction, ...]:
        return tuple(f for _, f in self.atoms)

    def is_nontrivial(self) -> bool:
        """True when some atom differs from max/min (so moment integrals are positive)."""
        return any(not f.g.is_zero for _, f in self.atoms)

    def r_plus(self) -> float:
        """Largest corner value among eps=+1 atoms (one-step support growth upward)."""
        return max((f.r for _, f in self.atoms if f.eps == +1), default=0.0)

    def r_minus(self) -> float:
        return max((f.r for _, f in self.atoms if f.eps == -1), default=0.0)


def builtin(name: str, **params) -> ModelSpec:
    """Named models.

    resistance(p):  {p: sum, 1-p: parallel}
    distance(p):    {p: sum, 1-p: min}
    hipster:        {1/2: hipster+, 1/2: hipster-}
    lazy_hipster:   {1/2: hipster+, 1/2: min}
    power_mean:     atoms = [(weight, alpha), ...]
    """
    if name == "resistance":
        p = _check_prob(params.pop("p", 0.5))
        atoms = _two_atom(p, hfun.F_SUM, hfun.F_PARALLEL)
        return ModelSpec(atoms, f"resistance({p:g})")
    if name == "distance":
        p = _check_prob(params.pop("p", 0.5))
        atoms = _two_atom(p, hfun.F_SUM, hfun.F_MIN)
        return ModelSpec(atoms, f"distance({p:g})")
    if name == "hipster":
        return ModelSpec(((0.5, hfun.F_HIP_PLUS), (0.5, hfun.F_HIP_MINUS)), "hipster")
    if name == "lazy_hipster":
        return ModelSpec(((0.5, hfun.F_HIP_PLUS), (0.5, hfun.F_MIN)), "lazy_hipster")
    if name == "power_mean":
        atoms = params.pop("atoms", ((0.5, 1.0), (0.5, -1.0)))
        spec = tuple((float(w), hfun.power_mean(alpha)) for w, alpha in atoms)
        alphas = ",".join(f"{a:g}" for _, a in atoms)
        return ModelSpec(spec, f"power_mean({alphas})")
    raise DomainError(f"unknown builtin model {name!r}")


def _check_prob(p: float) -> float:
    p = float(p)
    if not 0.0 <= p <= 1.0:
        raise DomainError("p must lie in [0, 1]")
    return p


def _two_atom(p: float, f1: HFunction, f2: HFunction):
    if p == 0.0:
        return ((1.0, f2),)
    if p == 1.0:
        return ((1.0, f1),)
    return ((p, f1), (1.0 - p, f2))


def invert_model(model: ModelSpec) -> ModelSpec:
    """Atom-wise inversion: the law of the reciprocal system."""
    return ModelSpec(tuple((w, f.invert()) for w, f in model.atoms), f"{model.name}^inv" if model.name else "")


# -- sampling -----------------------------------------------------------------


def sample_f(model: ModelSpec, rng: np.random.Generator) -> int:
    """Draw one atom index according to the mixture weights."""
    return int(sample_indices(model, rng, 1)[0])


def sample_indices(model: ModelSpec, rng: np.random.Generator, size: int) -> np.ndarray:
    cum = np.cumsum(model.weights)
    cum[-1] = 1.0
    return np.searchsorted(cum, rng.random(size), side="right")


def apply_mixture(model: ModelSpec, rng: np.random.Generator, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """log F(e^a, e^b) elementwise for finite arrays, with an independent atom F
    of the mixture drawn per element.

    The atom indices are the only draws made here, after any draws of the
    caller, so the caller's random stream keeps its order.
    """
    which = sample_indices(model, rng, a.size)
    out = np.empty(a.size)
    for k, f in enumerate(model.functions):
        mask = which == k
        if mask.any():
            out[mask] = f.log_eval_finite(a[mask], b[mask])
    return out


# -- criticality / regime -------------------------------------------------------

#: Proved square-root scaling constants, keyed by builtin model name.
KNOWN_SQRT_CONSTANTS = {
    "lazy_hipster": 2.0,
    "distance(0.5)": math.pi**2 / 6.0,
}


@dataclass
class CriticalityReport:
    p: float
    e_eps: float
    e_gamma01_eps: float
    alpha_plus: float
    alpha_minus: float
    regime: str
    nontrivial: bool
    notes: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "p": self.p,
            "e_eps": self.e_eps,
            "e_gamma01_eps": self.e_gamma01_eps,
            "alpha_plus": self.alpha_plus,
            "alpha_minus": self.alpha_minus,
            "regime": self.regime,
            "nontrivial": self.nontrivial,
            "notes": self.notes,
        }


def classify(model: ModelSpec, tol: float = 1e-10) -> CriticalityReport:
    """Compute the criticality parameters and the conjectured growth regime.

    The cube-root label is applied only under the proved hypotheses
    (E[eps] = 0 and E[Gamma^(0,1) eps] = 0 with a nontrivial mixture); the
    other labels follow the conjectured parameter regions and are heuristic.
    """
    w = model.weights
    eps = np.array([f.eps for f in model.functions], dtype=float)
    p = float(w[eps > 0].sum())
    e_eps = float((w * eps).sum())
    g01 = np.array([gamma(f, 0.0, 1.0, tol) for f in model.functions])
    e_g01_eps = float((w * eps * g01).sum())
    ints = np.array([alpha(f.g, tol) for f in model.functions])
    wp = float(w[eps > 0].sum())
    wm = float(w[eps < 0].sum())
    a_plus = float((w * ints)[eps > 0].sum() / wp) if wp > 0 else 0.0
    a_minus = float((w * ints)[eps < 0].sum() / wm) if wm > 0 else 0.0

    notes: list[str] = []
    nontrivial = model.is_nontrivial()
    eps_tol = 1e-12
    g01_tol = 100.0 * tol
    alpha_tol = 100.0 * tol

    if not nontrivial:
        regime = "unknown"
        notes.append("degenerate mixture of max/min only; no scaling regime applies")
    elif abs(e_eps) < eps_tol and abs(e_g01_eps) < g01_tol:
        regime = "cbrt"
        notes.append("proved cube-root regime: E[eps] = E[Gamma^(0,1) eps] = 0")
    elif abs(p - 0.5) < eps_tol and abs(a_plus - a_minus) > alpha_tol:
        regime = "sqrt"
        notes.append("heuristic: p = 1/2 with unbalanced one-sided areas")
    elif a_plus > alpha_tol and a_minus <= alpha_tol:
        regime = "linear" if p > 0.5 else "bounded"
        notes.append("heuristic: bump only on the expanding side" if p > 0.5 else "heuristic: expanding bump but contracting majority")
    elif a_minus > alpha_tol and a_plus <= alpha_tol:
        regime = "linear" if p < 0.5 else "bounded"
        notes.append("heuristic: bump only on the contracting side" if p < 0.5 else "heuristic: contracting bump but expanding majority")
    elif a_plus > alpha_tol and a_minus > alpha_tol and abs(p - 0.5) > eps_tol:
        regime = "linear"
        notes.append("heuristic: off-critical mixture, linear growth of the log")
    else:
        regime = "unknown"
        notes.append("parameters outside the classified regions")

    return CriticalityReport(p, e_eps, e_g01_eps, a_plus, a_minus, regime, nontrivial, notes)


def resolve_scaling(
    model: ModelSpec,
    law: str | None = None,
    scale_constant: float | None = None,
    exponent: float | None = None,
    tol: float = 1e-8,
) -> tuple[str, float, float]:
    """(law, constant, exponent) for rescaling log X_n by (constant n)^exponent.

    The arguments given are kept; the missing ones come from one
    classification of the model.  cbrt models use the cubic law with the
    computed c* and exponent 1/3; sqrt models use the y^2 law with the proved
    constants where known and exponent 1/2.  Raises DomainError when some are
    missing and no limit law is known for the model.
    """
    if law is not None and scale_constant is not None and exponent is not None:
        return law, scale_constant, exponent
    regime = classify(model, tol).regime
    if regime == "cbrt":
        known = ("cubic", c_star(model, tol), 1.0 / 3.0)
    elif regime == "sqrt" and model.name in KNOWN_SQRT_CONSTANTS:
        known = ("linear_half", KNOWN_SQRT_CONSTANTS[model.name], 0.5)
    else:
        raise DomainError(
            f"no limit law known for model {model.name!r} (regime {regime!r}); pass law, scale_constant and exponent"
        )
    return (
        known[0] if law is None else law,
        known[1] if scale_constant is None else scale_constant,
        known[2] if exponent is None else exponent,
    )


# -- model spec files ----------------------------------------------------------

_FAMILY_BUILDERS = {
    "sum": lambda spec: hfun.F_SUM,
    "parallel": lambda spec: hfun.F_PARALLEL,
    "max": lambda spec: hfun.F_MAX,
    "min": lambda spec: hfun.F_MIN,
    "hipster+": lambda spec: hfun.F_HIP_PLUS,
    "hipster-": lambda spec: hfun.F_HIP_MINUS,
    "power_mean": lambda spec: hfun.power_mean(float(spec["alpha"])),
    "softplus": lambda spec: hfun.from_g(hfun.g_softplus(float(spec["scale"])), int(spec.get("eps", +1))),
    "tent": lambda spec: hfun.asym_tent(
        float(spec.get("s_plus", 1.0)), float(spec.get("s_minus", 1.0)), int(spec.get("eps", +1))
    ),
    "table": lambda spec: hfun.from_g(
        hfun.g_table(spec["grid"], spec["values"]), int(spec.get("eps", +1)), "table"
    ),
}


def parse_model(text: str) -> ModelSpec:
    """Parse a model reference: builtin shorthand, JSON literal, or JSON file path.

    Shorthand: ``hipster``, ``lazy_hipster``, ``resistance(0.5)``,
    ``distance(0.3)``, ``power_mean(1,-1)`` (equal weights).
    JSON schema: ``{"name": ..., "atoms": [{"weight": w, "family": tag, ...params}]}``,
    the form written by ``model_to_dict``.  A malformed reference raises DomainError.
    """
    try:
        return _parse_model(text.strip())
    except DomainError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise DomainError(f"malformed model reference ({type(exc).__name__}: {exc})") from exc


def _parse_model(text: str) -> ModelSpec:
    if os.path.isfile(text):
        with open(text) as fh:
            return _model_from_dict(json.load(fh))
    if text.startswith("{"):
        return _model_from_dict(json.loads(text))
    if text in ("hipster", "lazy_hipster"):
        return builtin(text)
    for prefix in ("resistance", "distance"):
        if text.startswith(prefix + "(") and text.endswith(")"):
            return builtin(prefix, p=float(text[len(prefix) + 1 : -1]))
    if text in ("resistance", "distance"):
        return builtin(text, p=0.5)
    if text.startswith("power_mean(") and text.endswith(")"):
        alphas = [float(s) for s in text[len("power_mean(") : -1].split(",") if s.strip()]
        if not alphas:
            raise DomainError("power_mean shorthand needs at least one alpha")
        w = 1.0 / len(alphas)
        return builtin("power_mean", atoms=tuple((w, a) for a in alphas))
    raise DomainError(f"cannot parse model reference {text!r}")


def _model_from_dict(data: dict) -> ModelSpec:
    atoms = []
    for spec in data["atoms"]:
        family = spec["family"]
        if family not in _FAMILY_BUILDERS:
            raise DomainError(f"unknown function family {family!r}")
        atoms.append((float(spec["weight"]), _FAMILY_BUILDERS[family](spec)))
    return ModelSpec(tuple(atoms), data.get("name", ""))


def model_to_dict(model: ModelSpec) -> dict:
    """The JSON form that parse_model reads back (function labels are not kept)."""
    atoms = []
    for w, f in model.atoms:
        g = f.g
        if g.family == "zero":
            entry = {"family": "max" if f.eps == +1 else "min"}
        elif g.family == "softplus" and g.params[0] >= hfun.MIN_POWER_MEAN_SCALE:
            entry = {"family": "power_mean", "alpha": f.eps * g.params[0]}
        elif g.family == "softplus":
            entry = {"family": "softplus", "eps": f.eps, "scale": g.params[0]}
        elif g.family == "tent":
            entry = {"family": "tent", "eps": f.eps, "s_plus": g.params[0], "s_minus": g.params[1]}
        else:
            entry = {"family": "table", "eps": f.eps, "grid": g.grid.tolist(), "values": g.values.tolist()}
        atoms.append({"weight": w, **entry})
    return {"name": model.name, "atoms": atoms}


def model_digest(model: ModelSpec) -> str:
    """Stable hash of the model content (its model_to_dict form), for reproducibility logs."""
    blob = json.dumps(model_to_dict(model), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]
