"""Benchmark of the homsys CLI: one workload per run.

    python3 bench/run.py --workload grid_evolve --seed 1 --seconds 32 --trace 0

Runs the workload's invocation list (see workloads.py) in a fresh Python
process through `homsys.cli.main(argv)`, checks every output, and prints one
line per metric, then a JSON record of the run (environment, seed and every
invocation), then, as the last line, the result object

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value": v, "unit": u}}}

With --trace 0 the metrics are the end-to-end ones.  With --trace 1 one pass
is made twice, untraced and traced, and the metrics are the per-layer ones
from the traced pass's spans plus the tracing overhead.  Outputs, spans and
the record are kept under bench/out/<workload>/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from reference import REFERENCE_SECONDS
from workloads import MAX_PASSES, MIN_PASSES, SEED_LIMIT, WORKLOADS, plan

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# One thread everywhere, and a fixed str hash seed, so that set iteration
# order is the same in every run.
PINNED_ENV = {
    "HOMSYS_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}
SETUP_SAMPLES = 7
WORKER_TIMEOUT_S = 150.0


class WorkerError(RuntimeError):
    pass


def run_worker(job: dict, job_path: Path) -> tuple[dict, dict]:
    """Start a worker process on `job`; (its set-up sample, its result)."""
    job_path.parent.mkdir(parents=True, exist_ok=True)
    job_path.write_text(json.dumps(job))
    env = {**os.environ, **PINNED_ENV}
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), str(job_path)],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
    )
    try:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - t0
        rc = proc.wait(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise WorkerError(f"worker {job_path} ran longer than {WORKER_TIMEOUT_S} s")
    finally:
        proc.stdout.close()
    if ready.strip() != "ready" or rc != 0:
        raise WorkerError(f"worker {job_path} failed (exit code {rc})")
    result = json.loads((Path(job["out"]) / "result.json").read_text())
    return {"seconds": setup, "ref_seconds": result["setup_ref_seconds"]}, result


# The reference computation whose slowdowns each verb's follow most closely:
# lambda-check is interpreter-bound quadrature, the others mix in array work.
REFERENCE_OF = {"lambda-check": "scalar"}


def _scale(kind: str, ref_seconds: list[float]) -> float:
    """REFERENCE_SECONDS[kind] ÷ the mean of that reference's times taken
    around a measurement: the factor that brings the measurement to the
    speed of a host on which the reference takes REFERENCE_SECONDS[kind]."""
    return REFERENCE_SECONDS[kind] / statistics.fmean(ref_seconds)


def _slot_seconds(records: list[dict], normalise: bool) -> dict[int, float]:
    """Median over passes of the time of each slot (place in a pass)."""
    times: dict[int, list[float]] = {}
    for r in records:
        if r["slot"] is not None:
            scale = 1.0
            if normalise and r.get("ref_seconds"):
                kind = REFERENCE_OF.get(r["argv"][0], "mixed")
                scale = _scale(kind, r["ref_seconds"][kind])
            times.setdefault(r["slot"], []).append(r["seconds"] * scale)
    return {slot: statistics.median(ts) for slot, ts in times.items()}


def _slots(records: list[dict], verb: str) -> list[int]:
    """The slots of the workload's own invocations of `verb`, or of its
    probes when it has none."""
    own = {r["slot"] for r in records if r["argv"][0] == verb and r["group"] == "main"}
    return sorted(own or {r["slot"] for r in records if r["argv"][0] == verb and r["group"] == "probe"})


# A failed invocation has no facts; it counts as no work, so that a run with
# failures still reports (with "correct": false) instead of crashing.


def _rate(records: list[dict], seconds: dict[int, float], verb: str, fact: str) -> float:
    """Work of one pass's `verb` invocations ÷ the sum of their median times."""
    slots = _slots(records, verb)
    work = sum(max((r["facts"].get(fact, 0) for r in records if r["slot"] == s), default=0) for s in slots)
    return work / sum(seconds[s] for s in slots)


def _ks_max(records: list[dict], verb: str, models=None) -> float:
    """Median over the first MIN_PASSES passes of the largest last-checkpoint
    KS of `verb`, so that it depends on the seed only."""
    slots = set(_slots(records, verb))
    passes = sorted({r["pass"] for r in records if r["pass"] is not None})[:MIN_PASSES]
    per_pass = [
        max((r["facts"]["last_ks"] for r in records
             if r["pass"] == p and r["slot"] in slots and "last_ks" in r["facts"]
             and (models is None or r["model"] in models)), default=0.0)
        for p in passes
    ]
    return statistics.median(per_pass)


def end_to_end(result: dict, setups: list[dict], attempted: int, failed: int, normalise: bool = True) -> dict:
    """The end-to-end metrics of an untraced run.  With `normalise`, each
    time is brought to the reference host's speed by the reference times
    taken next to it (`_scale`, `REFERENCE_OF`)."""
    records = result["records"]
    seconds = _slot_seconds(records, normalise)
    main_slots = {r["slot"] for r in records if r["group"] == "main"}
    setup = [s["seconds"] * (_scale("mixed", [s["ref_seconds"]]) if normalise else 1.0) for s in setups]
    return {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (sum(seconds[s] for s in main_slots), "s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
        "ok_frac": (1.0 - failed / attempted, "ratio"),
        "evolve_steps_per_s": (_rate(records, seconds, "evolve", "steps"), "steps/s"),
        "evolve_ks_max": (_ks_max(records, "evolve"), "KS"),
        "mc_samples_per_s": (_rate(records, seconds, "simulate", "samples"), "samples/s"),
        # distance(0.5) is left out: its KS against the assumed law diverges with n
        "mc_ks_max": (_ks_max(records, "simulate", ("hipster", "resistance")), "KS"),
        "lambda_v_per_s": (_rate(records, seconds, "lambda-check", "v_points"), "points/s"),
        "serpar_graphs_per_s": (_rate(records, seconds, "serpar", "graphs"), "graphs/s"),
    }


def trace_metrics(traced_wall: float, untraced_wall: float) -> dict:
    return {
        "trace.wall_s": (traced_wall, "s"),
        "trace.untraced_wall_s": (untraced_wall, "s"),
        "trace.overhead_s": (traced_wall - untraced_wall, "s"),
    }


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        ref_file = ROOT / ".git" / ref[5:]
        return ref_file.read_text().strip() if ref_file.is_file() else "unknown"
    return ref


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not 0 <= args.seed < SEED_LIMIT:
        ap.error(f"--seed must lie in [0, {SEED_LIMIT})")
    if not (ROOT / "src" / "homsys" / "__init__.py").is_file():
        sys.stderr.write(f"no homsys sources under {ROOT / 'src'}\n")
        return 2

    out = HERE / "out" / args.workload
    shutil.rmtree(out, ignore_errors=True)
    # A traced run makes one pass: it is a breakdown, and spans of more
    # passes would only cost memory.
    passes = 1 if args.trace else MAX_PASSES
    invocations = plan(args.workload, args.seed, passes, bool(args.trace))
    modes = ["untraced", "traced"] if args.trace else ["untraced"]
    setups, results = [], {}
    try:
        for mode in modes:
            job = {"out": str(out / mode), "trace": mode == "traced", "invocations": invocations,
                   "seconds": args.seconds, "min_passes": min(passes, MIN_PASSES)}
            setup, results[mode] = run_worker(job, out / f"{mode}.job.json")
            setups.append(setup)
        while len(setups) < SETUP_SAMPLES:
            job = {"out": str(out / "setup"), "setup_only": True}
            setups.append(run_worker(job, out / "setup.job.json")[0])
    except WorkerError as exc:
        sys.stderr.write(f"{exc}\n")
        return 1

    records = [r for res in results.values() for r in res["records"]]
    failed = sum(r["error"] is not None for r in records)
    for r in records:
        if r["error"] is not None:
            sys.stderr.write(f"FAILED {' '.join(r['argv'])}: {r['error']}\n")
    extra = {}
    if args.trace:
        walls = {m: sum(r["seconds"] for r in results[m]["records"]) for m in modes}
        metrics = {**results["traced"]["layer_metrics"], **trace_metrics(walls["traced"], walls["untraced"])}
    else:
        metrics = end_to_end(results["untraced"], setups, len(records), failed)
        # the same figures at the speed the host had, for comparison
        extra["unnormalised_metrics"] = end_to_end(results["untraced"], setups, len(records), failed, normalise=False)

    record = {
        "workload": args.workload,
        "why": WORKLOADS[args.workload].why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": {
            "git_sha": git_sha(),
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            **results["untraced"]["versions"],
            **PINNED_ENV,
        },
        "setup_s": setups,
        "invocations": [
            {k: r.get(k) for k in ("argv", "group", "pass", "slot", "seconds", "cpu_seconds", "ref_seconds", "error")}
            for r in results["untraced"]["records"]
        ],
        **extra,
    }
    (out / "run.json").write_text(json.dumps({**record, "metrics": metrics}, indent=1) + "\n")
    for name, (value, unit) in metrics.items():
        print(f"{name:48s} {value:>16.6g} {unit}")
    print(json.dumps(record))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
