"""The benchmark workloads: fixed lists of `homsys` CLI invocations.

A run repeats its workload's list (a *pass*) for as long as `--seconds`
allows, so that every timing is a median over passes spread across the run.
Every `simulate` gets its seed from the run seed and the pass index, so one
run seed gives one set of inputs.  The grid sizes, pool sizes and model mixes
are those the workloads were designed around; the horizons n, the serpar
seed counts and the resistance v-grid are scaled so that a pass takes a few
seconds on a 2-CPU x86 host.

Each workload leaves some engines idle.  Every end-to-end metric is reported
on every workload, so each pass ends with a short *probe* of every engine
verb that the list lacks; probes are kept out of `wall_s` and `peak_rss_mb`.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

MC_MODELS = ("hipster", "resistance(0.5)", "distance(0.5)")


def _evolve(model: str, n: int, grid: int) -> list[str]:
    return ["evolve", "--model", model, "--n", str(n), "--grid", str(grid), "--checkpoints", f"{n // 2},{n}"]


def _simulate(model: str, n: int, pool: int, seed: int) -> list[str]:
    return ["simulate", "--model", model, "--n", str(n), "--pool", str(pool), "--checkpoints", f"{n // 2},{n}",
            "--seed", str(seed)]


def _lambda(model: str, n_range: str, vgrid: int | None = None) -> list[str]:
    argv = ["lambda-check", "--model", model, "--n-range", n_range]
    return argv + ["--vgrid", str(vgrid)] if vgrid is not None else argv


def _serpar(seeds: int) -> list[str]:
    return ["serpar", "--p", "0.5", "--n", "12", "--seeds", str(seeds), "--check-exact"]


REPORT = ["report", "--criteria", "1,2,3,5"]
# The resistance Lambda scan: T is root-found with an exponential tail, and
# the cost per v-point rises steeply with the v-grid (2 points: 0.06 s, 4: 0.4 s).
LAMBDA_RESISTANCE = _lambda("resistance(0.5)", "4096:4096", 4)


@dataclass(frozen=True)
class Workload:
    why: str
    main: Callable[[int], list[list[str]]]  # simulate seed -> one pass


WORKLOADS = {
    "grid_evolve": Workload(
        "grid evolution of a compact (hipster) and a softplus (resistance) profile: the step kernel "
        "works, mc is idle",
        lambda seed: [_evolve("hipster", 100, 4096), _evolve("resistance(0.5)", 30, 2048)],
    ),
    "pool_mc": Workload(
        "pool Monte Carlo of hipster, resistance and distance at N=1e5: pool_step and "
        "log_eval_finite work, evolve is idle",
        lambda seed: [_simulate(m, 40, 100_000, seed) for m in MC_MODELS],
    ),
    "scalar_oracles": Workload(
        "criteria 1-3 and 5, Lambda-condition scans and serpar oracles: scalar t_of and "
        "quadrature work, the array kernels are idle",
        lambda seed: [REPORT, _lambda("hipster", "64:128"), LAMBDA_RESISTANCE, _serpar(30)],
    ),
}


# Short invocations of each engine verb, for workloads whose list lacks it:
# verb -> (simulate seed -> invocations).
PROBES = {
    "evolve": lambda seed: [_evolve("hipster", 20, 4096), _evolve("resistance(0.5)", 8, 2048)],
    "simulate": lambda seed: [_simulate(m, 6, 100_000, seed) for m in MC_MODELS],
    "lambda-check": lambda seed: [_lambda("hipster", "4096:4096", 25), LAMBDA_RESISTANCE],
    "serpar": lambda seed: [_serpar(10)],
}


MIN_PASSES = 4  # made whatever the time; the KS metrics are read from these
MAX_PASSES = 64
SEED_LIMIT = 2**48  # simulate seeds are seed * 100 + pass, a Philox key word


def _model_label(argv: list[str]) -> str | None:
    if "--model" not in argv:
        return None
    return argv[argv.index("--model") + 1].split("(")[0]


def plan(workload: str, seed: int, passes: int, trace: bool = False) -> list[dict]:
    """The run's invocations, in order.

    `passes` passes, each the workload's list followed by the probes of the
    engine verbs the list lacks; `slot` is an invocation's place in its pass.
    The worker may stop after any pass past MIN_PASSES when time is up.  A
    tail follows, run in any case: a traced run also probes `report`, so
    that every layer is measured, and a short `simulate` runs twice with one
    seed, whose CSVs must match byte for byte.
    """
    wl = WORKLOADS[workload]
    own = {argv[0] for argv in wl.main(seed)}
    missing = [verb for verb in PROBES if verb not in own]
    out = []

    def add(argv, group, p, slot, **extra):
        out.append({"argv": argv, "group": group, "pass": p, "slot": slot, "model": _model_label(argv), **extra})

    for p in range(passes):
        pass_seed = seed * 100 + p
        todo = [(argv, "main") for argv in wl.main(pass_seed)]
        todo += [(argv, "probe") for verb in missing for argv in PROBES[verb](pass_seed)]
        for slot, (argv, group) in enumerate(todo):
            add(argv, group, p, slot)
    if trace and "report" not in own:
        add(REPORT, "probe", None, None)
    repeat = _simulate("distance(0.5)", 8, 4096, seed * 100 + passes)
    add(repeat, "repeat", None, None)
    add(repeat, "repeat", None, None, same_csv_as=len(out) - 1)
    return out
