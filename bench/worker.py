"""One workload process: import homsys, run a list of CLI invocations
in-process through `homsys.cli.main(argv)`, check every output, and write the
measurements as JSON.

Usage: python3 bench/worker.py JOB.json

The parent (`run.py`) starts it with the pinned environment already set, so
numpy and scipy see it at import.  The process prints `ready` once
it could start the first invocation; the parent times set-up up to that line.
After `ready`, and after each invocation of a pass, the worker times the
fixed computation of reference.py, by which the parent normalises the times
to one host speed.  A job with `"setup_only": true` stops after the first.

The job's invocations are passes (`pass` 0, 1, ...) and a tail (`pass`
null).  Passes past `min_passes` are made only while the next one, at the
median duration of those before it, still ends within `seconds`; the tail
always runs.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _read_csv(path: Path) -> list[list[str]]:
    lines = path.read_text().splitlines()
    return [line.split(",") for line in lines[1:]]


def _doubling(lo: int, hi: int) -> list[int]:
    out, n = [], lo
    while n <= hi:
        out.append(n)
        n = max(n + 1, int(n * 2.0))
    return out


def check(argv: list[str], stem: Path) -> tuple[str | None, dict]:
    """Check one invocation's outputs; (error or None, facts used by the metrics)."""
    verb = argv[0]
    summary = json.loads((stem.with_suffix(".json")).read_text())
    facts: dict = {}
    if verb == "report":
        want = set(argv[argv.index("--criteria") + 1].split(","))
        got = {r["criterion"]: r for r in summary["results"]}
        if set(got) != want:
            return f"report ran criteria {sorted(got)}, asked for {sorted(want)}", facts
        failed = [c for c, r in got.items() if r["passed"] is not True]
        if failed:
            return f"criteria {failed} did not pass", facts
        facts["criterion_s"] = {c: r["seconds"] for c, r in got.items()}
    elif verb == "serpar":
        if summary["distance_mismatches"] != 0:
            return f"{summary['distance_mismatches']} distance mismatches", facts
        if not summary["max_rel_resistance_error"] < 1e-9:
            return f"resistance error {summary['max_rel_resistance_error']:.3g} >= 1e-9", facts
        facts["graphs"] = summary["seeds"]
    elif verb in ("evolve", "simulate"):
        ks = [cp["ks"] for cp in summary["checkpoints"]]
        if not ks or not all(math.isfinite(k) for k in ks):
            return f"KS values not finite: {ks}", facts
        facts["last_ks"] = ks[-1]
        if verb == "evolve":
            by_n: dict[str, list[float]] = {}
            for row in _read_csv(stem.with_suffix(".csv")):
                by_n.setdefault(row[0], []).append(float(row[2]))
            for n, cdf in by_n.items():
                if any(b < a for a, b in zip(cdf, cdf[1:])) or cdf[-1] != 1.0:
                    return f"checkpoint n={n}: cdf not nondecreasing to 1", facts
            if len(by_n) != len(ks):
                return f"CSV has {len(by_n)} checkpoints, summary {len(ks)}", facts
            facts["steps"] = summary["n"]
        else:
            facts["samples"] = summary["pool"] * summary["n"]
    elif verb == "lambda-check":
        rows = _read_csv(stem.with_suffix(".csv"))
        lo, hi = summary["n_range"]
        scanned = _doubling(lo, hi)
        if summary["n0_found"]:
            scanned = scanned[: scanned.index(summary["n0"]) + 1]
        if [int(r[0]) for r in rows] != scanned:
            return f"CSV rows for n={[r[0] for r in rows]}, scanned {scanned}", facts
        if not all(math.isfinite(float(r[1])) for r in rows):
            return "nonfinite Lambda residual", facts
        facts["v_points"] = len(rows) * summary["vgrid"]
    return None, facts


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_invocation(cli, inv: dict, stem: Path) -> dict:
    """Run one invocation, time it, and check its outputs."""
    argv = inv["argv"] + ["--out", str(stem.with_suffix(".json") if inv["argv"][0] == "report" else stem)]
    sink = io.StringIO()
    error = None
    t0, c0 = time.perf_counter(), time.process_time()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            rc = cli.main(argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # a crash of one invocation is a counted failure
        rc, error = None, f"raised {type(exc).__name__}: {exc}"
    seconds, cpu_seconds = time.perf_counter() - t0, time.process_time() - c0
    facts: dict = {}
    if error is None and rc != 0:
        error = f"exit code {rc}: {sink.getvalue()[-300:]}"
    if error is None:
        try:
            error, facts = check(inv["argv"], stem)
        except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            error = f"output check raised {type(exc).__name__}: {exc}"
    return {**inv, "seconds": seconds, "cpu_seconds": cpu_seconds, "error": error, "facts": facts}


def main(job_path: str) -> int:
    job = json.loads(Path(job_path).read_text())
    sys.path.insert(0, str(ROOT / "src"))
    import homsys.cli as cli
    from reference import reference_seconds

    out = Path(job["out"])
    out.mkdir(parents=True, exist_ok=True)
    print("ready", flush=True)
    reference_seconds()  # warm-up: a first call costs up to 4 times more
    # the host's speed just after set-up, by which the parent normalises it
    setup_ref = statistics.median(reference_seconds()["mixed"] for _ in range(3))
    if job.get("setup_only"):
        (out / "result.json").write_text(json.dumps({"setup_ref_seconds": setup_ref}) + "\n")
        return 0

    tracer = None
    if job["trace"]:
        from tracing import Tracer

        tracer = Tracer()
    invocations = job["invocations"]
    passes: dict[int, list[int]] = {}
    for k, inv in enumerate(invocations):
        if inv["pass"] is not None:
            passes.setdefault(inv["pass"], []).append(k)
    tail = [k for k, inv in enumerate(invocations) if inv["pass"] is None]
    records = []
    rss_mb = None
    durations: list[float] = []

    def run(k):
        nonlocal rss_mb
        inv = invocations[k]
        if inv["group"] != "main" and rss_mb is None:
            rss_mb = _peak_rss_mb()
        if tracer is not None:
            tracer.invocation = len(records)
        records.append({"index": k, **run_invocation(cli, inv, out / f"i{k:04d}")})

    with tracer or contextlib.nullcontext():
        t0 = time.perf_counter()
        ref = reference_seconds()
        for p, ks in sorted(passes.items()):
            elapsed = time.perf_counter() - t0
            if p >= job["min_passes"] and elapsed + statistics.median(durations) > job["seconds"]:
                break
            for k in ks:
                run(k)
                # the host's speed just before and just after the invocation
                after = reference_seconds()
                records[-1]["ref_seconds"] = {kind: [ref[kind], after[kind]] for kind in after}
                ref = after
            durations.append(time.perf_counter() - t0 - elapsed)
        for k in tail:
            run(k)
    if rss_mb is None:
        rss_mb = _peak_rss_mb()

    for rec in records:
        twin = rec.get("same_csv_as")
        if twin is not None and rec["error"] is None:
            if (out / f"i{twin:04d}.csv").read_bytes() != (out / f"i{rec['index']:04d}.csv").read_bytes():
                rec["error"] = f"CSV differs from invocation {twin} run with the same seed"

    import numpy
    import scipy

    versions = {"numpy": numpy.__version__, "scipy": scipy.__version__}
    result = {"records": records, "peak_rss_mb": rss_mb, "versions": versions, "setup_ref_seconds": setup_ref}
    if tracer is not None:
        from tracing import layer_metrics

        cols = tracer.columns()
        wall = sum(r["seconds"] for r in records)
        result["layer_metrics"] = layer_metrics(tracer.names, cols, records, wall)
        tracer.save(out / "spans.npz", [{"argv": r["argv"], "model": r["model"]} for r in records])
    (out / "result.json").write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
