"""Finite-mixture laws of the random function, built-in named models, and the
criticality/regime classifier."""

from __future__ import annotations

import hashlib
import json
import math
import numbers
import os
from dataclasses import dataclass, field

import numpy as np

from . import hfun
from .dist import LIMIT_LAWS
from .errors import DomainError
from .hfun import HFunction
from .moments import MOMENT_TOL, alpha, c_star, gamma

__all__ = [
    "ModelSpec",
    "CriticalityReport",
    "builtin",
    "classify",
    "apply_mixture",
    "resolve_scaling",
    "checkpoint_scales",
    "invert_model",
    "parse_model",
    "model_digest",
    "KNOWN_SQRT_CONSTANTS",
]

_WEIGHT_TOL = 1e-12


@dataclass(frozen=True)
class ModelSpec:
    """Finite mixture of class functions, the law of the random recursion map: a value that compares
    and hashes by its atoms (``name`` is a display label, outside equality)."""

    atoms: tuple[tuple[float, HFunction], ...]
    name: str = field(default="", compare=False)

    def __post_init__(self):
        if not self.atoms:
            raise DomainError("a model needs at least one atom")
        weights = [w for w, _ in self.atoms]
        if not all(math.isfinite(w) and w > 0 for w in weights):
            raise DomainError("atom weights must be finite and positive")
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

    A parameter the named model does not take raises DomainError.
    """
    if name in ("resistance", "distance"):
        p = _check_prob(params.pop("p", 0.5))
        atoms = _two_atom(p, hfun.F_SUM, hfun.F_PARALLEL if name == "resistance" else hfun.F_MIN)
        model = ModelSpec(atoms, f"{name}({p:g})")
    elif name == "hipster":
        model = ModelSpec(((0.5, hfun.F_HIP_PLUS), (0.5, hfun.F_HIP_MINUS)), "hipster")
    elif name == "lazy_hipster":
        model = ModelSpec(((0.5, hfun.F_HIP_PLUS), (0.5, hfun.F_MIN)), "lazy_hipster")
    elif name == "power_mean":
        atoms = params.pop("atoms", ((0.5, 1.0), (0.5, -1.0)))
        spec = tuple((float(w), hfun.power_mean(alpha)) for w, alpha in atoms)
        alphas = ",".join(f"{a:g}" for _, a in atoms)
        model = ModelSpec(spec, f"power_mean({alphas})")
    else:
        raise DomainError(f"unknown builtin model {name!r}")
    if params:
        raise DomainError(f"builtin model {name!r} takes no parameter {', '.join(sorted(params))}")
    return model


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


def _atom_counts(model: ModelSpec, rng: np.random.Generator, size: int) -> np.ndarray:
    """The atoms' block sizes over ``size`` slots: one multinomial draw from rng."""
    w = model.weights
    return rng.multinomial(size, w / w.sum())


def apply_mixture(
    model: ModelSpec, rng: np.random.Generator | None, a: np.ndarray, b: np.ndarray,
    out: np.ndarray | None = None, counts: np.ndarray | None = None,
) -> np.ndarray:
    """log F(e^a, e^b) elementwise for finite arrays, F an atom of the mixture.

    The atom counts are one multinomial draw, and atom k fills the k-th
    contiguous block of slots.  For exchangeable slots, such as iid (a, b)
    pairs, the multiset of outputs then has the law of an independent atom
    drawn per element; the pool step needs no more, since it only resamples
    the pool uniformly.  The counts are the only draws made here, after any
    draws of the caller, so the caller's random stream keeps its order.  A
    caller that drew them already, by `_atom_counts` on its stream, passes
    them as ``counts``, and rng is not read.

    The result goes to ``out`` when given (a float array of a's size that
    overlaps neither a nor b; each atom writes its block of it in place),
    else to a new array; the bits are the same either way.
    """
    if counts is None:
        counts = _atom_counts(model, rng, a.size)
    if out is None:
        out = np.empty(a.size)
    start = 0
    for f, count in zip(model.functions, counts):
        stop = start + count
        f.log_eval_finite(a[start:stop], b[start:stop], out=out[start:stop])
        start = stop
    return out


# -- criticality / regime -------------------------------------------------------

def _law(model: ModelSpec) -> tuple[tuple[HFunction, float], ...]:
    """The law of the recursion map: the model's distinct atoms in a fixed order, each with
    the summed weight of the atoms equal to it, so that the atom order and split atoms of
    one law give one key."""
    merged: dict[HFunction, float] = {}
    for w, f in sorted(model.atoms, key=lambda atom: (atom[1].eps, atom[1].g.family, atom[1].g.params, atom[0])):
        merged[f] = merged.get(f, 0.0) + w
    return tuple(merged.items())


#: Proved square-root scaling constants, keyed by the model's law (`_law`; the name is a label): the lazy
#: hipster walk (Addario-Berry et al., PTRF 2020) and the p = 1/2 series-parallel distance (Hambly & Jordan, 2004).
KNOWN_SQRT_CONSTANTS = {
    _law(builtin("lazy_hipster")): 2.0,
    _law(builtin("distance", p=0.5)): math.pi**2 / 6.0,
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


def classify(model: ModelSpec) -> CriticalityReport:
    """Compute the criticality parameters and the conjectured growth regime.

    The cube-root label is applied only under the proved hypotheses
    (E[eps] = 0 and E[Gamma^(0,1) eps] = 0 with a nontrivial mixture); the
    other labels follow the conjectured parameter regions and are heuristic.
    The thresholds on E[Gamma^(0,1) eps] and on the one-sided areas are 100x
    the tolerance moments.MOMENT_TOL of the moment integrals.
    """
    w = model.weights
    eps = np.array([f.eps for f in model.functions], dtype=float)
    p = float(w[eps > 0].sum())
    e_eps = float((w * eps).sum())
    g01 = np.array([gamma(f, 0.0, 1.0) for f in model.functions])
    e_g01_eps = float((w * eps * g01).sum())
    ints = np.array([alpha(f.g) for f in model.functions])
    wm = float(w[eps < 0].sum())
    a_plus = float((w * ints)[eps > 0].sum() / p) if p > 0 else 0.0
    a_minus = float((w * ints)[eps < 0].sum() / wm) if wm > 0 else 0.0

    notes: list[str] = []
    nontrivial = model.is_nontrivial()
    eps_tol = 1e-12
    g01_tol = alpha_tol = 100.0 * MOMENT_TOL

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


def resolve_scaling(model: ModelSpec, scaling: tuple[str, float, float] | None = None) -> tuple[str, float, float]:
    """The (law, constant, exponent) that rescale log X_n by (constant n)^exponent.

    With `scaling` None, the triple comes from one classification of the
    model: cbrt models use the cubic law with c* = moments.c_star(model) and
    exponent 1/3; sqrt models whose law is a key of KNOWN_SQRT_CONSTANTS (the
    same atoms with the same total weights, in any order and whatever the
    name) use the y^2 law, its constant and exponent 1/2;
    any other model raises DomainError.  A given
    `scaling` is returned as it is once checked: a 3-tuple whose law is in
    dist.LIMIT_LAWS and whose constant and exponent are finite and > 0, else
    DomainError.
    """
    if scaling is not None:
        if not (isinstance(scaling, tuple) and len(scaling) == 3):
            raise DomainError(f"scaling must be a (law, constant, exponent) triple, got {scaling!r}")
        law, constant, exponent = scaling
        if law not in LIMIT_LAWS:
            raise DomainError(f"scaling law must be one of {LIMIT_LAWS}, got {law!r}")
        for name, value in (("constant", constant), ("exponent", exponent)):
            if not (isinstance(value, numbers.Real) and math.isfinite(value) and value > 0):
                raise DomainError(f"scaling {name} must be finite and > 0, got {value!r}")
        return scaling
    regime = classify(model).regime
    if regime == "cbrt":
        return "cubic", c_star(model), 1.0 / 3.0
    if regime == "sqrt" and _law(model) in KNOWN_SQRT_CONSTANTS:
        return "linear_half", KNOWN_SQRT_CONSTANTS[_law(model)], 0.5
    raise DomainError(f"no limit law known for model {model.name!r} (regime {regime!r}); pass a scaling triple")


def checkpoint_scales(scaling: tuple[str, float, float], n_steps: int, checkpoints) -> tuple[dict[int, float], float]:
    """The scale (constant n)^exponent at each checkpoint, in order, and at max(n_steps, 1).

    The checkpoints must lie in 1..n_steps.  A scale that overflows, or
    underflows to 0, raises DomainError, so a run fails before its first step.
    """
    _, constant, exponent = scaling
    cps = sorted(set(checkpoints))
    if cps and not 1 <= cps[0] <= cps[-1] <= n_steps:
        raise DomainError(f"checkpoints must lie in 1..{n_steps}")

    def scale(n: int) -> float:
        try:
            s = (constant * n) ** exponent
        except OverflowError:
            s = math.inf
        if not (math.isfinite(s) and s > 0.0):
            raise DomainError(f"scale ({constant!r} * {n}) ** {exponent!r} is not finite and > 0")
        return s

    return {n: scale(n) for n in cps}, scale(max(n_steps, 1))


# -- model spec files ----------------------------------------------------------

_FAMILY_BUILDERS = {
    "sum": lambda spec: hfun.F_SUM,
    "parallel": lambda spec: hfun.F_PARALLEL,
    "max": lambda spec: hfun.F_MAX,
    "min": lambda spec: hfun.F_MIN,
    "hipster+": lambda spec: hfun.F_HIP_PLUS,
    "hipster-": lambda spec: hfun.F_HIP_MINUS,
    "power_mean": lambda spec: hfun.power_mean(float(spec["alpha"])),
    "softplus": lambda spec: HFunction(int(spec.get("eps", +1)), hfun.g_softplus(float(spec["scale"]))),
    "tent": lambda spec: hfun.asym_tent(
        float(spec.get("s_plus", 1.0)), float(spec.get("s_minus", 1.0)), int(spec.get("eps", +1))
    ),
    "table": lambda spec: HFunction(int(spec.get("eps", +1)), hfun.g_table(spec["grid"], spec["values"]), "table"),
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
    """Stable hash of the model's written form (model_to_dict, name label included) for reproducibility logs."""
    blob = json.dumps(model_to_dict(model), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]
