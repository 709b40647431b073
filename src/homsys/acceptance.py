"""Acceptance criteria, runnable from the test suite or `homsys report`.

Each criterion is a callable returning (passed, detail).  Tolerances are
pinned here; nothing is deferred to later calibration.  A criterion that is
numerically unreachable is still asserted as stated and allowed to fail.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import dist, evolve, mc, moments, proofcheck, serpar
from .hfun import F_HIP_MINUS, F_HIP_PLUS, F_SUM, asym_tent, power_mean
from .models import ModelSpec, apply_mixture, builtin

ZETA3 = 1.2020569031595942854
PI2_6 = math.pi**2 / 6.0

SEED = 20250801


@dataclass
class CriterionResult:
    cid: str
    name: str
    passed: bool
    detail: str
    seconds: float


def _c1_closed_form_moments():
    checks = []
    for f in (F_HIP_PLUS, F_HIP_MINUS):
        checks.append((f"gamma({f.label},0,2)", moments.gamma(f, 0, 2), 1.0, 1e-9))
        checks.append((f"gamma({f.label},1,1)", moments.gamma(f, 1, 1), 0.5, 1e-9))
    checks.append(("gamma(sum,0,1)", moments.gamma(F_SUM, 0, 1), PI2_6, 1e-8))
    checks.append(("gamma(sum,1,1)", moments.gamma(F_SUM, 1, 1), ZETA3, 1e-8))
    bad = [f"{n}={v:.12g} (want {w:.12g} +- {t:g})" for n, v, w, t in checks if abs(v - w) > t]
    return not bad, "; ".join(bad) or f"all {len(checks)} closed-form moments within tolerance"


def _c2_constants():
    c_hip = moments.c_star(builtin("hipster"))
    c_res = moments.c_star(builtin("resistance", p=0.5))
    c_pm = moments.c_star(builtin("power_mean", atoms=((0.5, 1.0), (0.5, -1.0))))
    bad = []
    if abs(c_hip - 4.5) > 1e-8:
        bad.append(f"c*(hipster)={c_hip!r} != 4.5")
    if abs(c_res - 9 * ZETA3) > 1e-6:
        bad.append(f"c*(resistance(1/2))={c_res!r} != 9 zeta(3)")
    if abs(c_pm - c_res) > 1e-6:
        bad.append(f"c*(power_mean +-1)={c_pm!r} != c*(resistance(1/2))")
    return not bad, "; ".join(bad) or (
        f"c*(hipster)={c_hip:.10g}, c*(resistance)={c_res:.10g}, c*(pm)={c_pm:.10g}"
    )


def _c3_ipp():
    funcs = [F_SUM, F_HIP_PLUS, power_mean(1.7), asym_tent(1.0, 0.5)]
    pairs = [(1.0, 2.0), (2.0, 1.0), (2.0, 2.0)]
    worst = 0.0
    where = ""
    for f in funcs:
        for a, b in pairs:
            r = abs(moments.check_ipp(f, a, b))
            if r > worst:
                worst, where = r, f"{f.label} (a={a:g},b={b:g})"
    return worst < 1e-7, f"max |IPP residual| = {worst:.3g} at {where}"


def _uniform_init(lo=-1.0, hi=1.0, m=2048) -> dist.GridCDF:
    x = np.linspace(lo - 0.5, hi + 0.5, m + 1)
    cdf = np.clip((x - lo) / (hi - lo), 0.0, 1.0)
    cdf[-1] = 1.0
    return dist.GridCDF(x[0], x[-1], cdf)


def _one_step_mc(model: ModelSpec, init: dist.GridCDF, N: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    a = np.interp(rng.random(N), init.cdf, init.grid())
    b = np.interp(rng.random(N), init.cdf, init.grid())
    return apply_mixture(model, rng, a, b)


def _c4_one_step_oracle():
    N = 100_000
    budget = 3.0 / math.sqrt(N)
    names = ["resistance", "distance", "hipster", "lazy_hipster", "power_mean"]
    bad = []
    details = []
    init = _uniform_init(m=4096)
    for i, name in enumerate(names):
        model = builtin(name)
        big = dist.GridCDF(init.lo - 3.0, init.hi + 3.0, np.clip(init(np.linspace(init.lo - 3.0, init.hi + 3.0, 8193)), 0, 1))
        stepped = evolve.step_detailed(big, model)[0]
        sample = _one_step_mc(model, init, N, SEED + i)
        d = dist.ks(sample, stepped)
        details.append(f"{model.name}: KS={d:.4f}")
        if d > budget:
            bad.append(f"{model.name}: KS={d:.4f} > {budget:.4f}")
    return not bad, "; ".join(bad) or "; ".join(details)


def _c5_serpar():
    worst_r = 0.0
    for g in serpar.forests(12, 0.5, range(200)):
        r_red, d_red = serpar.reduce_graph(g)
        r_ex, d_ex = serpar.resistance_exact(g), serpar.distance_exact(g)
        for seed, rr, re, dr, de in zip(g.seeds, *(x.tolist() for x in (r_red, r_ex, d_red, d_ex))):
            worst_r = max(worst_r, abs(re - rr) / rr)
            if de != dr:
                return False, f"distance mismatch at seed {seed}: reduce={dr}, exact={de}"
    ok = worst_r < 1e-9
    return ok, f"200 seeds, n=12: max relative resistance error {worst_r:.3g}; distances exact"


def _check_trace(name, summaries, final_budget=0.1):
    bad = []
    ks_vals = [s.ks for s in summaries]
    if not all(a > b for a, b in zip(ks_vals, ks_vals[1:])):
        bad.append(f"{name}: KS not strictly decreasing {['%.4f' % k for k in ks_vals]}")
    if ks_vals[-1] >= final_budget:
        bad.append(f"{name}: final KS {ks_vals[-1]:.4f} >= {final_budget}")
    return bad, f"{name}: KS " + " -> ".join(f"{k:.4f}" for k in ks_vals)


def _c6_cbrt_convergence():
    N = 100_000
    cps = (100, 1000, 10_000)
    bad, details = [], []
    hip_final = None
    for i, name in enumerate(["hipster", "resistance", "power_mean"]):
        model = builtin(name)
        summaries = mc.simulate(model, 0.0, 10_000, N, SEED + 10 + i, cps)
        if name == "hipster":
            hip_final = summaries[-1]
        b, d = _check_trace(model.name, summaries)
        bad += b
        details.append(d)
    # literal integer walk vs the framework pool, two-sample
    direct = mc.hipster_direct(10_000, N, SEED + 21)
    d2 = dist.ks(hip_final.rescaled, direct / hip_final.scale)
    budget2 = 3.0 * math.sqrt(2.0 / N)
    details.append(f"direct-vs-framework two-sample KS={d2:.4f} (budget {budget2:.4f})")
    if d2 > budget2:
        bad.append(details[-1])
    return not bad, "; ".join(bad) or "; ".join(details)


def _c7_sqrt_convergence():
    N = 100_000
    cps = (100, 1000, 10_000)
    bad, details = [], []
    for name, seed, constant in (("lazy_hipster", SEED + 30, 2.0), ("distance", SEED + 31, PI2_6)):
        model = builtin(name)
        summaries = mc.simulate(model, 0.0, 10_000, N, seed, cps, ("linear_half", constant, 0.5))
        b, d = _check_trace(model.name, summaries)
        bad += b
        details.append(d)
    return not bad, "; ".join(bad) or "; ".join(details)


def _c8_proof_machinery():
    bad, details = [], []
    defaults = proofcheck.ProofParams(c_star=4.5)

    # (a) closed-form CDF of the bridging density vs quadrature
    row = proofcheck.schedule(defaults, 1000)
    rng = np.random.default_rng(SEED)
    vs = rng.uniform(-row.sigma_tilde - 1.0, row.sigma + 1.0, 100)
    worst = max(abs(proofcheck.psi_n_quadrature(row, float(v)) - float(proofcheck.Psi_n(row, v))) for v in vs)
    details.append(f"Psi closed form vs quadrature: {worst:.2e}")
    if worst >= 1e-10:
        bad.append(f"Psi_n closed form vs quadrature {worst:.3g} >= 1e-10")

    # (b) schedule ordering and the exact normalization identity
    for n in (1000, 10**4, 10**5, 10**6):
        r = proofcheck.schedule(defaults, n)
        if not (r.sigma <= r.sigma_tilde < r.tau_tilde <= r.tau):
            bad.append(f"ordering fails at n={n}")
        lhs, rhs = r.a_tilde * r.tau_tilde**2, r.a * r.tau**2
        if abs(lhs - rhs) > 1e-14 * rhs:
            bad.append(f"a~ tau~^2 != a tau^2 at n={n}")
    details.append("schedule ordering and normalization identity hold at n=1e3..1e6")

    # (c) a_n tau_n^3 -> 3/4.  The approach rate is tau^{-2(1-rho)}, so the
    # 0.01 band at n=1e6 needs rho near its lower limit; rho=0.52 is valid.
    fast = proofcheck.ProofParams(c_star=4.5, rho=0.52, rho_tilde=0.26, kappa=0.12)
    r6 = proofcheck.schedule(fast, 10**6)
    at3 = r6.a * r6.tau**3
    details.append(f"a tau^3 at n=1e6 (rho=0.52): {at3:.5f}")
    if abs(at3 - 0.75) >= 0.01:
        bad.append(f"|a tau^3 - 3/4| = {abs(at3 - 0.75):.4f} >= 0.01 at n=1e6")

    # (d) Lambda condition for the hipster model with paper-default parameters.
    # Stated bound: some n0 <= 1e6 with nonnegative residual on a 400-point
    # grid for n in [n0, 2n0], asserted as stated.  Why it fails is measured in
    # ROADMAP.md, "Known failures -> Criterion 8(d)" and direction 9.
    model = builtin("hipster")
    n0, history = proofcheck.find_n0(model, defaults, n_max=10**6, n_min=64, points=400)
    if n0 is None:
        last = history[-1] if history else None
        msg = f"no n0 <= 1e6 (last scanned n={last.n}, min residual {last.min_residual:.3e} at v={last.argmin_v:.2f})" if last else "no n0 <= 1e6"
        bad.append("lambda condition: " + msg)
        details.append(msg)
    else:
        ns = np.unique(np.geomspace(n0, 2 * n0, 12).astype(int))
        fails = []
        for nn in ns:
            rep = proofcheck.lambda_condition(model, defaults, int(nn), proofcheck.default_v_grid(defaults, int(nn), 400))
            if not rep.passed:
                fails.append(int(nn))
        details.append(f"n0={n0}; verified on {len(ns)} points of [n0, 2n0]")
        if fails:
            bad.append(f"residual negative again at n={fails}")

    # (e) lower bound vs its n -> infinity limit
    worst_lb = 0.0
    for x in (-0.5, 0.0, 0.5):
        got = proofcheck.lower_bound(defaults, 10**6, x)
        y = x + defaults.delta
        want = (1.0 - defaults.delta1) * (2.0 - 3.0 * y + y**3) / 4.0
        worst_lb = max(worst_lb, abs(got - want))
    details.append(f"lower bound vs limit at n=1e6: max dev {worst_lb:.4f}")
    if worst_lb >= 0.05:
        bad.append(f"lower bound deviates {worst_lb:.4f} >= 0.05 from the limit")

    return not bad, "; ".join(bad) if bad else "; ".join(details)


def _c9_determinism():
    import subprocess
    import sys
    import tempfile
    from pathlib import Path

    with tempfile.TemporaryDirectory() as td:
        outs = []
        for threads in (1, 4):
            out = Path(td) / f"t{threads}"
            cmd = [
                sys.executable, "-m", "homsys.cli", "simulate",
                "--model", "hipster", "--n", "10000", "--pool", "100000",
                "--seed", str(SEED), "--checkpoints", "100,1000,10000",
                "--threads", str(threads), "--out", str(out),
            ]
            r = subprocess.run(cmd, capture_output=True, text=True)
            if r.returncode != 0:
                return False, f"CLI failed (threads={threads}): {r.stderr[-400:]}"
            outs.append((out.with_suffix(".csv").read_bytes(), out.with_suffix(".json").read_bytes()))
        same_csv = outs[0][0] == outs[1][0]
        same_json = outs[0][1] == outs[1][1]
    if same_csv and same_json:
        return True, "CSV and JSON byte-identical across --threads 1 vs 4"
    return False, f"outputs differ across thread counts (csv={same_csv}, json={same_json})"


CRITERIA = [
    ("1", "closed-form moments", _c1_closed_form_moments),
    ("2", "scaling constants", _c2_constants),
    ("3", "integration-by-parts identity", _c3_ipp),
    ("4", "one-step grid vs Monte Carlo", _c4_one_step_oracle),
    ("5", "series-parallel dual oracles", _c5_serpar),
    ("6", "cube-root limit convergence", _c6_cbrt_convergence),
    ("7", "square-root limit convergence", _c7_sqrt_convergence),
    ("8", "proof-machinery suite", _c8_proof_machinery),
    ("9", "determinism across thread counts", _c9_determinism),
]


def run_criteria(selected: set[str] | None = None, echo=print) -> list[CriterionResult]:
    results = []
    for cid, name, fn in CRITERIA:
        if selected and cid not in selected:
            continue
        t0 = time.perf_counter()
        try:
            passed, detail = fn()
        except Exception as exc:  # a crash is a failure, not an abort
            passed, detail = False, f"raised {type(exc).__name__}: {exc}"
        dt = time.perf_counter() - t0
        results.append(CriterionResult(cid, name, passed, detail, dt))
        echo(f"[{'PASS' if passed else 'FAIL'}] criterion {cid} ({name}, {dt:.1f}s): {detail}")
    return results
