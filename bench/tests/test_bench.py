"""Tests of the benchmark's own code.

Run from the repository root:  python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import homsys  # noqa: E402
import homsys.cli  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
from reference import REFERENCE_SECONDS  # noqa: E402
from workloads import WORKLOADS, plan  # noqa: E402


def _cols(spans):
    """Columns from (name id, parent, start, end) tuples."""
    name, parent, start, end = (np.array(c) for c in zip(*spans))
    return {"name": name.astype(np.int32), "parent": parent.astype(np.int32), "start": start, "end": end}


def test_self_times_on_a_synthetic_tree():
    # a [0, 10] holds b [1, 4] and c [5, 9]; c holds d [6, 7]; e [10.5, 11] is a second root
    names = ["cli.main", "evolve.run", "hfun.t_of", "dist.ks", "cli.main"]
    cols = _cols([(0, -1, 0.0, 10.0), (1, 0, 1.0, 4.0), (2, 0, 5.0, 9.0), (3, 2, 6.0, 7.0), (4, -1, 10.5, 11.0)])
    own = tracing.self_times(cols["parent"], cols["start"], cols["end"])
    np.testing.assert_allclose(own, [3.0, 3.0, 3.0, 1.0, 0.5])

    layers = tracing.layer_self_times(names, cols, wall=12.0)
    assert layers["cli"] == pytest.approx(3.5)
    assert layers["evolve"] == pytest.approx(3.0)
    assert layers["hfun"] == pytest.approx(3.0)
    assert layers["dist"] == pytest.approx(1.0)
    assert layers["other"] == pytest.approx(1.5)
    assert sum(layers.values()) == pytest.approx(12.0)


def _bindings():
    """Every attribute of the homsys modules, and the traced method."""
    mods = [homsys, *(sys.modules[f"homsys.{m}"] for m in tracing.LAYERS)]
    out = {(m.__name__, k): v for m in mods for k, v in vars(m).items()}
    out[("HFunction", "log_eval_finite")] = homsys.HFunction.__dict__["log_eval_finite"]
    return out


def test_tracer_patches_every_binding_and_restores_them():
    before = _bindings()
    t_of = homsys.hfun.t_of
    with pytest.raises(RuntimeError):
        with tracing.Tracer() as tracer:
            # a name imported with `from .hfun import t_of` is patched where it is looked up
            for mod in (homsys.hfun, homsys.evolve, homsys.moments, homsys):
                assert mod.t_of is not t_of and mod.t_of.__wrapped__ is t_of
            assert homsys.proofcheck.lambda_operator.__wrapped__ is homsys.evolve.lambda_operator.__wrapped__
            homsys.moments.c_star(homsys.builtin("hipster"), 1e-8)
            raise RuntimeError("leave the block by an exception")
    after = _bindings()
    assert after.keys() == before.keys()
    assert [k for k in before if after[k] is not before[k]] == []
    assert "hfun.t_of" in tracer.names and len(tracer.start_col) > 0


def _tiny(argv: list[str]) -> list[str]:
    """The same invocation at a size that runs in well under a second."""
    small = {"--n": "4", "--pool": "2000", "--seeds": "3", "--vgrid": "3", "--n-range": "4096:4096",
             "--grid": "512", "--criteria": "1,2,3"}
    out = list(argv)
    for flag, value in small.items():
        if flag in out:
            out[out.index(flag) + 1] = value
    if "--checkpoints" in out:
        out[out.index("--checkpoints") + 1] = "2,4"
    return out


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_every_layer_records_calls_on_a_tiny_workload(workload, tmp_path):
    invocations = [{**inv, "argv": _tiny(inv["argv"])} for inv in plan(workload, 7, passes=1, trace=True)]
    with tracing.Tracer() as tracer:
        records = []
        for k, inv in enumerate(invocations):
            tracer.invocation = k
            records.append(worker.run_invocation(homsys.cli, inv, tmp_path / f"i{k:03d}"))
    assert [r["error"] for r in records] == [None] * len(records)

    cols = tracer.columns()
    called = {tracer.names[i].split(".")[0] for i in np.unique(cols["name"])}
    assert called == set(tracing.LAYERS)
    metrics = tracing.layer_metrics(tracer.names, cols, records, sum(r["seconds"] for r in records))
    for name in ("cli.main.calls", "moments.gamma.calls", "quadrature.adaptive_simpson.calls", "hfun.t_of.calls",
                 "hfun.log_eval_finite.calls", "evolve.lambda_operator.calls", "dist.ks.calls",
                 "proofcheck.expected_lambda.calls", "evolve.step_detailed.calls.hipster",
                 "evolve.step_detailed.calls.resistance", "mc.pool_step.calls.distance"):
        assert metrics[name][0] > 0, name
    assert sum(metrics[f"self.{layer}.s"][0] for layer in (*tracing.LAYERS, "other")) == pytest.approx(
        sum(r["seconds"] for r in records))

    # the metrics a run prints are the ones BENCHMARK.json declares, with the same units
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {k: w.why for k, w in WORKLOADS.items()}
    e2e = run.end_to_end({"records": records, "peak_rss_mb": 1.0}, [{"seconds": 0.1, "ref_seconds": 0.03}],
                         len(records), 0)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {k: unit for k, (_, unit) in e2e.items()}
    layer = {**metrics, **run.trace_metrics(1.0, 0.9)}
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {k: unit for k, (_, unit) in layer.items()}


def test_output_checks_reject_bad_outputs(tmp_path):
    stem = tmp_path / "e"
    stem.with_suffix(".json").write_text(json.dumps({"n": 2, "checkpoints": [{"n": 2, "ks": 0.1}]}))
    stem.with_suffix(".csv").write_text("n,x,cdf,cdf_limit,density\n2,0,0.5,0,0\n2,1,0.4,0,0\n2,2,1,0,0\n")
    assert "nondecreasing" in worker.check(["evolve"], stem)[0]

    stem.with_suffix(".json").write_text(json.dumps({"n_range": [64, 256], "n0_found": False, "vgrid": 5}))
    stem.with_suffix(".csv").write_text("n,min_residual,argmin_v\n64,-1,0\n256,-1,0\n")
    assert "scanned" in worker.check(["lambda-check"], stem)[0]

    rec = worker.run_invocation(homsys.cli, {"argv": ["classify", "--model", "no_such_model"]}, tmp_path / "c")
    assert rec["error"].startswith("exit code 1")


def test_metrics_are_medians_over_passes_per_slot():
    def rec(p, slot, verb, group, seconds, facts):
        return {"argv": [verb], "group": group, "pass": p, "slot": slot, "model": "hipster", "seconds": seconds,
                "facts": facts, "error": None}

    # slot 0: the workload's own evolve; slots 1-3: probes of serpar, simulate and lambda-check.
    # Pass 2 is a slow spell, pass 4 a seed with a large KS.
    records = []
    for p, (evolve_s, serpar_s, ks) in enumerate([(1.0, 0.5, 0.1), (1.2, 0.4, 0.2), (9.0, 9.0, 0.3), (1.1, 0.6, 0.2),
                                                  (0.9, 0.5, 9.0)]):
        records += [rec(p, 0, "evolve", "main", evolve_s, {"steps": 10, "last_ks": 0.05}),
                    rec(p, 1, "serpar", "probe", serpar_s, {"graphs": 5}),
                    rec(p, 2, "simulate", "probe", 0.2, {"samples": 100, "last_ks": ks}),
                    rec(p, 3, "lambda-check", "probe", 0.25, {"v_points": 5})]
    records.append(rec(None, None, "simulate", "repeat", 5.0, {"samples": 1, "last_ks": 7.0}))
    setups = [{"seconds": t, "ref_seconds": REFERENCE_SECONDS["mixed"]} for t in (0.3, 0.1, 0.2)]
    m = run.end_to_end({"records": records, "peak_rss_mb": 1.0}, setups, len(records), 0)
    assert m["setup_s"][0] == pytest.approx(0.2)
    assert m["wall_s"][0] == pytest.approx(1.1)  # probes are not part of the wall
    assert m["evolve_steps_per_s"][0] == pytest.approx(10 / 1.1)
    assert m["serpar_graphs_per_s"][0] == pytest.approx(5 / 0.5)
    assert m["mc_samples_per_s"][0] == pytest.approx(100 / 0.2)
    assert m["evolve_ks_max"][0] == pytest.approx(0.05)
    assert m["mc_ks_max"][0] == pytest.approx(0.2)  # from the first MIN_PASSES passes only
    assert m["lambda_v_per_s"][0] == pytest.approx(20.0)
    assert m["ok_frac"][0] == 1.0


def test_times_are_brought_to_the_reference_speed():
    # the mixed reference runs at half speed in pass 0, and slows from full to half speed during pass 1
    mixed, scalar = REFERENCE_SECONDS["mixed"], REFERENCE_SECONDS["scalar"]
    records = [{"argv": ["evolve"], "group": "main", "pass": p, "slot": 0, "model": "hipster", "seconds": seconds,
                "facts": {"steps": 10, "last_ks": 0.1, "v_points": 6}, "error": None,
                "ref_seconds": {"mixed": refs, "scalar": [3 * scalar, 3 * scalar]}}
               for p, (seconds, refs) in enumerate([(2.0, [2 * mixed, 2 * mixed]), (1.5, [mixed, 2 * mixed])])]
    for verb in ("simulate", "lambda-check", "serpar"):
        records += [{**r, "argv": [verb], "group": "probe", "slot": len(records) // 2} for r in records[:2]]
    setups = [{"seconds": 0.8, "ref_seconds": 2 * mixed}]
    m = run.end_to_end({"records": records, "peak_rss_mb": 1.0}, setups, len(records), 0)
    assert m["wall_s"][0] == pytest.approx(1.0)  # median of 2.0 / 2 and 1.5 / 1.5
    assert m["evolve_steps_per_s"][0] == pytest.approx(10.0)
    assert m["setup_s"][0] == pytest.approx(0.4)
    # lambda-check follows the scalar reference: 1.75 s at a third of its speed
    assert m["lambda_v_per_s"][0] == pytest.approx(6 / (1.75 / 3))
    raw = run.end_to_end({"records": records, "peak_rss_mb": 1.0}, setups, len(records), 0, normalise=False)
    assert raw["wall_s"][0] == pytest.approx(1.75) and raw["setup_s"][0] == pytest.approx(0.8)


def test_a_failed_invocation_still_gives_metrics():
    records = [{"argv": [verb], "group": "main", "pass": 0, "slot": slot, "model": None, "seconds": 1.0, "facts": {},
                "error": "x"} for slot, verb in enumerate(("evolve", "simulate", "lambda-check", "serpar"))]
    setups = [{"seconds": 0.1, "ref_seconds": 0.03}]
    metrics = run.end_to_end({"records": records, "peak_rss_mb": 1.0}, setups, attempted=4, failed=4)
    assert metrics["ok_frac"] == (0.0, "ratio")
    assert metrics["evolve_steps_per_s"] == (0.0, "steps/s")


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "pool_mc", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_worker_stops_after_min_passes_when_time_is_up(tmp_path, capsys):
    invocations = [{**inv, "argv": _tiny(inv["argv"])} for inv in plan("pool_mc", 3, passes=5)]
    job = {"out": str(tmp_path / "out"), "trace": False, "invocations": invocations, "seconds": 0.0, "min_passes": 2}
    (tmp_path / "job.json").write_text(json.dumps(job))
    assert worker.main(str(tmp_path / "job.json")) == 0
    assert capsys.readouterr().out == "ready\n"
    records = json.loads((tmp_path / "out" / "result.json").read_text())["records"]
    assert [r["pass"] for r in records if r["group"] != "repeat"] == [0] * 8 + [1] * 8
    assert [r["group"] for r in records[-2:]] == ["repeat", "repeat"]
    assert [r["error"] for r in records] == [None] * len(records)
