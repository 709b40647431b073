"""Span tracing of the homsys modules, done from outside the package.

`Tracer` wraps every public function of the traced modules (plus the hot
method `HFunction.log_eval_finite`) for the duration of a `with` block.  A
name bound by `from .x import f` is a separate attribute of the importing
module, so each wrapper is installed under every attribute, in every homsys
module, that holds the original object; leaving the block puts the originals
back.

Spans are kept in flat columns in memory (about 40 bytes each, since the hot
scalar functions produce millions of them) and written out once at the end.
`self_times` and `layer_metrics` turn the columns into per-layer numbers.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import statistics
import time
from array import array

import numpy as np

# Layers are the homsys modules, in call-graph order from the front end down.
LAYERS = (
    "cli", "acceptance", "proofcheck", "serpar", "evolve", "mc",
    "moments", "models", "quadrature", "dist", "hfun",
)
MODELS = ("hipster", "resistance", "distance")
EVOLVE_MODELS = ("hipster", "resistance")
CRITERIA = ("1", "2", "3", "5")


def _step_clamp_budget(args, out):
    return out[1].clamp_budget


def _elements(args, out):
    return args[1].size


# span name -> function of (args, result) giving the span's `value` column
VALUE_OF = {
    "evolve.step_detailed": _step_clamp_budget,
    "hfun.log_eval_finite": _elements,
}


def public_functions(module):
    """Module-level functions defined in `module` whose names are public."""
    return {
        name: obj
        for name, obj in vars(module).items()
        if not name.startswith("_") and inspect.isfunction(obj) and obj.__module__ == module.__name__
    }


class Tracer:
    """Records one span per call of a traced function while active."""

    def __init__(self):
        self.package = importlib.import_module("homsys")
        self.modules = {name: importlib.import_module(f"homsys.{name}") for name in LAYERS}
        self.names: list[str] = []
        self.name_col = array("i")
        self.parent_col = array("i")
        self.inv_col = array("i")
        self.ok_col = array("b")
        self.start_col = array("d")
        self.end_col = array("d")
        self.value_col = array("d")
        self.invocation = -1
        self._stack = [-1]
        self._patched: list[tuple[object, str, object]] = []

    # -- patching --------------------------------------------------------------

    def _targets(self):
        """(span name, owner, attribute, original) for every wrapper to install."""
        owners = [self.package, *self.modules.values()]
        out = []
        for layer, mod in self.modules.items():
            for fname, fn in public_functions(mod).items():
                for owner in owners:
                    for attr, val in vars(owner).items():
                        if val is fn:
                            out.append((f"{layer}.{fname}", owner, attr, fn))
        hf = self.modules["hfun"].HFunction
        out.append(("hfun.log_eval_finite", hf, "log_eval_finite", hf.__dict__["log_eval_finite"]))
        return out

    def __enter__(self):
        wrappers: dict[int, object] = {}
        try:
            for span_name, owner, attr, fn in self._targets():
                if id(fn) not in wrappers:
                    wrappers[id(fn)] = self._wrap(fn, span_name)
                setattr(owner, attr, wrappers[id(fn)])
                self._patched.append((owner, attr, fn))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc):
        self._restore()
        return False

    def _restore(self):
        while self._patched:
            owner, attr, fn = self._patched.pop()
            setattr(owner, attr, fn)

    def _wrap(self, fn, span_name: str):
        nid = len(self.names)
        self.names.append(span_name)
        value_of = VALUE_OF.get(span_name)
        stack = self._stack
        name_col, parent_col, inv_col = self.name_col, self.parent_col, self.inv_col
        ok_col, start_col, end_col, value_col = self.ok_col, self.start_col, self.end_col, self.value_col
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(start_col)
            name_col.append(nid)
            parent_col.append(stack[-1])
            inv_col.append(tracer.invocation)
            ok_col.append(0)
            end_col.append(0.0)
            value_col.append(0.0)
            stack.append(i)
            start_col.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                end_col[i] = clock()
                stack.pop()
            ok_col[i] = 1
            if value_of is not None:
                value_col[i] = value_of(args, out)
            return out

        return traced

    # -- output ----------------------------------------------------------------

    def columns(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name_col, dtype=np.int32),
            "parent": np.frombuffer(self.parent_col, dtype=np.int32),
            "invocation": np.frombuffer(self.inv_col, dtype=np.int32),
            "ok": np.frombuffer(self.ok_col, dtype=np.int8),
            "start": np.frombuffer(self.start_col, dtype=np.float64),
            "end": np.frombuffer(self.end_col, dtype=np.float64),
            "value": np.frombuffer(self.value_col, dtype=np.float64),
        }

    def save(self, path, invocations: list[dict]) -> None:
        """Write the spans as compressed columns, with the name table and the
        invocation list (indexed by the `invocation` column) as JSON."""
        np.savez_compressed(
            path,
            names=np.array(json.dumps(self.names)),
            invocations=np.array(json.dumps(invocations)),
            **self.columns(),
        )


# -- span arithmetic --------------------------------------------------------------


def self_times(parent: np.ndarray, start: np.ndarray, end: np.ndarray) -> np.ndarray:
    """Span duration minus the time covered by its direct children.

    The traced process is single-threaded, so children of one span never
    overlap and the covered time is the sum of their durations.
    """
    dur = end - start
    has_parent = parent >= 0
    covered = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
    return dur - covered


def layer_self_times(names: list[str], cols: dict[str, np.ndarray], wall: float) -> dict[str, float]:
    """Self time per layer, plus `other`: the part of `wall` outside every span."""
    own = self_times(cols["parent"], cols["start"], cols["end"])
    per_name = np.bincount(cols["name"], weights=own, minlength=len(names))
    out = {layer: 0.0 for layer in LAYERS}
    for name, t in zip(names, per_name):
        out[name.split(".")[0]] += float(t)
    out["other"] = wall - sum(out.values())
    return out


def layer_metrics(names: list[str], cols: dict[str, np.ndarray], invocations: list[dict], wall: float) -> dict:
    """Per-layer metrics (name -> (value, unit)) from the spans of one traced run.

    `invocations[k]` is the worker's record of invocation k: its `model`
    labels the spans of the metrics kept per model, and the criterion times
    come from the `report` summaries read by the output checks.
    """
    nid = {n: i for i, n in enumerate(names)}
    dur = cols["end"] - cols["start"]
    # a span outside every invocation has invocation -1, which picks the trailing ""
    model_of = np.array([inv.get("model") or "" for inv in invocations] + [""], dtype=object)
    span_model = model_of[cols["invocation"]]

    def sel(name, model=None):
        mask = cols["name"] == nid[name]
        if model is not None:
            mask &= span_model == model
        return mask

    def count(name, model=None):
        return int(sel(name, model).sum())

    def total(name, model=None):
        return float(dur[sel(name, model)].sum())

    def mean(name, scale):
        m = sel(name)
        return float(dur[m].mean()) * scale if m.any() else 0.0

    def pct_ms(name, model, q):
        d = dur[sel(name, model)]
        return float(np.percentile(d, q)) * 1e3 if d.size else 0.0

    out: dict[str, tuple[float, str]] = {}
    for layer, t in layer_self_times(names, cols, wall).items():
        out[f"self.{layer}.s"] = (t, "s")
    out["cli.main.calls"] = (count("cli.main"), "count")
    out["cli.main.s"] = (mean("cli.main", 1.0), "s")
    out["models.parse_model.ms"] = (mean("models.parse_model", 1e3), "ms")
    out["models.resolve_scaling.ms"] = (mean("models.resolve_scaling", 1e3), "ms")
    out["moments.gamma.calls"] = (count("moments.gamma"), "count")
    out["moments.c_star.ms"] = (mean("moments.c_star", 1e3), "ms")
    out["quadrature.adaptive_simpson.calls"] = (count("quadrature.adaptive_simpson"), "count")
    out["quadrature.adaptive_simpson.s"] = (total("quadrature.adaptive_simpson"), "s")
    out["hfun.t_of.calls"] = (count("hfun.t_of"), "count")
    out["hfun.t_of.us"] = (mean("hfun.t_of", 1e6), "us")
    lef = sel("hfun.log_eval_finite")
    elems = float(cols["value"][lef].sum())
    out["hfun.log_eval_finite.calls"] = (int(lef.sum()), "count")
    out["hfun.log_eval_finite.ns_per_elem"] = (float(dur[lef].sum()) / elems * 1e9 if elems else 0.0, "ns")
    for m in EVOLVE_MODELS:
        out[f"evolve.run.s.{m}"] = (total("evolve.run", m), "s")
        out[f"evolve.step_detailed.calls.{m}"] = (count("evolve.step_detailed", m), "count")
        out[f"evolve.step_detailed.ms_p50.{m}"] = (pct_ms("evolve.step_detailed", m, 50), "ms")
        out[f"evolve.step_detailed.ms_p95.{m}"] = (pct_ms("evolve.step_detailed", m, 95), "ms")
        budget = float(cols["value"][sel("evolve.step_detailed", m)].sum())
        out[f"evolve.step_detailed.clamp_budget_sum.{m}"] = (budget, "cdf_x")
    out["evolve.lambda_operator.calls"] = (count("evolve.lambda_operator"), "count")
    out["evolve.lambda_operator.us"] = (mean("evolve.lambda_operator", 1e6), "us")
    for m in MODELS:
        out[f"mc.simulate.s.{m}"] = (total("mc.simulate", m), "s")
        out[f"mc.pool_step.calls.{m}"] = (count("mc.pool_step", m), "count")
        out[f"mc.pool_step.ms_p50.{m}"] = (pct_ms("mc.pool_step", m, 50), "ms")
        out[f"mc.pool_step.ms_p95.{m}"] = (pct_ms("mc.pool_step", m, 95), "ms")
    out["mc.new_pool.ms"] = (mean("mc.new_pool", 1e3), "ms")
    out["dist.ks.calls"] = (count("dist.ks"), "count")
    out["dist.ks.ms"] = (mean("dist.ks", 1e3), "ms")
    out["dist.from_samples.ms"] = (mean("dist.from_samples", 1e3), "ms")
    out["proofcheck.find_n0.s"] = (mean("proofcheck.find_n0", 1.0), "s")
    out["proofcheck.lambda_condition.s"] = (mean("proofcheck.lambda_condition", 1.0), "s")
    lc = sel("proofcheck.lambda_condition")
    out["proofcheck.lambda_condition.feasible_frac"] = (
        float(cols["ok"][lc].mean()) if lc.any() else 0.0, "ratio")
    out["proofcheck.expected_lambda.calls"] = (count("proofcheck.expected_lambda"), "count")
    for fname in ("build", "reduce_graph", "resistance_exact", "distance_exact"):
        out[f"serpar.{fname}.ms"] = (mean(f"serpar.{fname}", 1e3), "ms")
    for c in CRITERIA:
        secs = [inv["facts"]["criterion_s"][c] for inv in invocations if c in inv["facts"].get("criterion_s", {})]
        out[f"acceptance.criterion.{c}.s"] = (statistics.fmean(secs) if secs else 0.0, "s")
    out["trace.spans"] = (len(dur), "count")
    return out
