import ctypes
import io
import json
import math
import os
import subprocess
import sys
import time
import warnings
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

import homsys
from homsys import builtin, cli, limit_cdf, moments, parse_model, proofcheck, serpar
from homsys.models import model_digest, model_to_dict, resolve_scaling
from test_proofcheck import TWO_TABLES


def _csv(path):
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def test_success_records_the_given_argv(tmp_path):
    argv = ["classify", "--model", "hipster", "--out", str(tmp_path / "c.json")]
    assert cli.main(argv) == 0
    summary = json.loads((tmp_path / "c.json").read_text())
    assert summary["regime"] == "cbrt"
    assert json.loads((tmp_path / "c.run.json").read_text())["argv"] == argv


@pytest.mark.parametrize("model", ["no_such_model", '{"atoms":[{"weight":1}]}', "resistance(2)"])
def test_bad_model_exits_1(model, capsys):
    assert cli.main(["classify", "--model", model]) == 1
    assert "validation error" in capsys.readouterr().err


def test_a_non_finite_table_node_exits_1(capsys):
    table = '{"weight":0.5,"family":"table","eps":1,"grid":[-1,-0.5,0,0.5,1],"values":[0,0.3,NaN,0.3,0]}'
    assert cli.main(["gamma", "--model", '{"atoms":[' + table + ',{"weight":0.5,"family":"min"}]}']) == 1
    assert "validation error: table grid and values must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["classify"], ["frobnicate"], ["simulate", "--model", "hipster", "--n", "x"]])
def test_usage_error_exits_64(argv):
    with pytest.raises(SystemExit) as info:
        cli.main(argv)
    assert info.value.code == cli.USAGE_EXIT == 64


def test_classify_and_evolve_agree_on_the_regime(tmp_path, capsys):
    # E[Gamma^(0,1) eps] = 4.9e-7: one tolerance decides the regime for classify and for the rescaling
    spec = ('{"atoms":[{"weight":0.5,"family":"softplus","eps":1,"scale":1.0},'
            '{"weight":0.5,"family":"softplus","eps":-1,"scale":0.9999997}]}')
    assert cli.main(["classify", "--model", spec, "--out", str(tmp_path / "c.json")]) == 0
    summary = json.loads((tmp_path / "c.json").read_text())
    assert summary["regime"] == "sqrt" and summary["e_gamma01_eps"] == pytest.approx(4.9e-7, abs=5e-9)
    capsys.readouterr()
    assert cli.main(["evolve", "--model", spec, "--n", "2", "--grid", "256", "--checkpoints", "2"]) == 1
    assert "no limit law known" in capsys.readouterr().err


def test_summary_embeds_the_model(tmp_path):
    spec = '{"atoms":[{"weight":0.5,"family":"tent","s_plus":0.7,"s_minus":0.4},{"weight":0.5,"family":"max"}]}'
    assert cli.main(["classify", "--model", spec, "--out", str(tmp_path / "c.json")]) == 0
    summary = json.loads((tmp_path / "c.json").read_text())
    assert model_digest(parse_model(json.dumps(summary["model_spec"]))) == summary["model_digest"]


def test_evolve_csv_uses_the_run_law(tmp_path):
    stem = tmp_path / "lazy"
    argv = ["evolve", "--model", "lazy_hipster", "--n", "4", "--grid", "512", "--checkpoints", "4", "--out", str(stem)]
    assert cli.main(argv) == 0
    rows = _csv(f"{stem}.csv")
    assert np.array_equal(rows[:, 3], limit_cdf("linear_half", rows[:, 1]))
    summary = json.loads(stem.with_suffix(".json").read_text())
    assert [cp["n"] for cp in summary["checkpoints"]] == [4]
    assert summary["scaling"] == {"law": "linear_half", "constant": 2.0, "exponent": 0.5}
    assert json.loads(stem.with_suffix(".run.json").read_text())["argv"] == argv
    diag = summary["diagnostics"]  # the hipster+ atom has cells, the min atom none
    assert diag["t_cells"][0] > 0 and diag["groups"][0] == 1 and diag["t_cells"][1] == diag["groups"][1] == 0
    assert 0 < diag["taps"][0] < diag["t_cells"][0] and diag["taps"][1] == 0 and 0.0 < diag["lambda_rows"] < 1.0
    assert 0.0 <= diag["max_monotonicity_defect"] and 0.0 <= diag["clamp_budget"] <= 1e-6


def test_checkpoint_csv_rows_match_the_per_row_format():
    # the joined %-format must give the bytes of one f-string per row, special values included
    special = [-0.0, 0.0, 5e-324, -2.5e-310, np.inf, -np.inf, np.nan, 1.0 / 3.0, -1e300, 2.0**-1074 * 3]
    x = np.array([-1.0, -0.5, *special, 7.25])
    cdf = np.array([*special[::-1], 0.1, 0.9, 1.0])
    fh = io.StringIO()
    with np.errstate(all="ignore"):
        cli._emit_checkpoint_csv(fh, 12, x, cdf, "cubic")
        ref, dens = limit_cdf("cubic", x), np.gradient(cdf, x[1] - x[0])
    want = "".join(
        f"12,{float(a):.17g},{float(b):.17g},{float(c):.17g},{float(d):.17g}\n" for a, b, c, d in zip(x, cdf, ref, dens)
    )
    assert fh.getvalue() == want
    assert {"-0", "inf", "-inf", "nan", "4.9406564584124654e-324"} <= set(want.replace("\n", ",").split(","))


def test_results_are_byte_identical_across_thread_counts(tmp_path):
    # criterion 9 at a small size: the thread count and the output path go to the .run.json
    # sidecar, so the results themselves compare byte for byte
    base = ["simulate", "--model", "hipster", "--n", "20", "--pool", "2000", "--seed", "7", "--checkpoints", "10,20"]
    for threads in (1, 4):
        assert cli.main(base + ["--threads", str(threads), "--out", str(tmp_path / f"t{threads}")]) == 0
    for suffix in (".csv", ".json"):
        assert (tmp_path / f"t1{suffix}").read_bytes() == (tmp_path / f"t4{suffix}").read_bytes()
    run = json.loads((tmp_path / "t4.run.json").read_text())
    assert run["threads"] == 4 and run["argv"][-1] == str(tmp_path / "t4")


def test_csv_and_summary_to_stdout(capsys):
    assert cli.main(["serpar", "--p", "0.5", "--n", "3", "--seeds", "2", "--check-exact"]) == 0
    out = capsys.readouterr().out
    header, row0, row1, rest = out.split("\n", 3)
    assert header == "seed,R_reduce,R_exact,D_reduce,D_exact"
    assert row0.startswith("0,") and row1.startswith("1,")
    assert json.loads(rest)["distance_mismatches"] == 0


def _exit_code(argv):
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize(
    "argv, code",
    [
        (["simulate", "--model", "hipster", "--n", "4", "--pool", "100", "--checkpoints", "2,x"], 64),
        (["evolve", "--model", "hipster", "--n", "4", "--checkpoints", "2,x"], 64),
        (["lambda-check", "--model", "hipster", "--n-range", "64"], 64),
        (["lambda-check", "--model", "hipster", "--n-range", "a:b"], 64),
        (["simulate", "--model", "hipster", "--n", "4", "--pool", "100", "--checkpoints", "0"], 1),
        (["evolve", "--model", "hipster", "--n", "4", "--grid", "256", "--checkpoints", "0,4"], 1),
    ],
)
def test_malformed_step_lists_exit_without_traceback(argv, code, capsys):
    assert _exit_code(argv) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err and ("usage:" in err if code == 64 else "validation error" in err)


@pytest.mark.parametrize(
    "argv",
    [
        ["lambda-check", "--model", "hipster", "--n-range", "64:8"],
        ["lambda-check", "--model", "hipster", "--n-range", "0:8"],
        ["simulate", "--model", "hipster", "--n", "4", "--pool", "100", "--checkpoints", ","],
        ["evolve", "--model", "hipster", "--n", "4", "--grid", "256", "--checkpoints", ","],
        ["evolve", "--model", "hipster", "--n", "4", "--grid", "-5", "--checkpoints", "4"],
        ["simulate", "--model", "hipster", "--n", "4", "--pool", "100", "--checkpoints", "4", "--grid", "-5"],
        ["simulate", "--model", "hipster", "--n", "4", "--pool", "100", "--checkpoints", "4", "--seed", "-1"],
        ["simulate", "--model", "hipster", "--n", "4", "--pool", "100", "--checkpoints", "4", "--seed", str(2**64)],
        ["lambda-check", "--model", "hipster", "--n-range", "64:64", "--vgrid", "0"],
        ["lambda-check", "--model", "hipster", "--n-range", "64:64", "--vgrid", "-3"],
        ["serpar", "--p", "0.5", "--n", "-3", "--seeds", "2"],
        ["serpar", "--p", "0.5", "--n", "3", "--seeds", "-1"],
        ["serpar", "--p", "0.5", "--n", "3", "--seeds", "0"],
        # 2^25 edges and more are refused before anything is drawn
        ["serpar", "--p", "0.5", "--n", "25", "--seeds", "1"],
        ["serpar", "--p", "0.5", "--n", "40", "--seeds", "1"],
        # no subcommand takes --tol: every integral has its tolerance fixed beside it
        ["evolve", "--model", "hipster", "--n", "4", "--checkpoints", "4", "--tol", "1e-9"],
        ["simulate", "--model", "hipster", "--n", "4", "--pool", "100", "--checkpoints", "4", "--tol", "1e-9"],
        ["serpar", "--p", "0.5", "--n", "3", "--seeds", "2", "--tol", "1e-9"],
        ["classify", "--model", "hipster", "--tol", "1e-9"],
        ["gamma", "--model", "hipster", "--tol", "1e-9"],
        ["lambda-check", "--model", "hipster", "--n-range", "64:64", "--tol", "1e-9"],
        # --threads is taken only by simulate and serpar
        ["gamma", "--model", "hipster", "--threads", "2"],
        ["classify", "--model", "hipster", "--threads", "2"],
        ["evolve", "--model", "hipster", "--n", "4", "--checkpoints", "4", "--threads", "2"],
        ["lambda-check", "--model", "hipster", "--n-range", "64:64", "--threads", "2"],
        # the scaling flags go all three or none
        ["simulate", "--model", "hipster", "--n", "4", "--pool", "100", "--checkpoints", "4", "--law", "cubic"],
        ["simulate", "--model", "hipster", "--n", "4", "--pool", "100", "--checkpoints", "4",
         "--scale-constant", "2", "--exponent", "0.5"],
        # a thread count is an integer >= 1
        ["simulate", "--model", "hipster", "--n", "4", "--pool", "100", "--checkpoints", "4", "--threads", "-3"],
        ["simulate", "--model", "hipster", "--n", "4", "--pool", "100", "--checkpoints", "4", "--threads", "0"],
        ["serpar", "--p", "0.5", "--n", "3", "--seeds", "2", "--threads", "-3"],
        ["serpar", "--p", "0.5", "--n", "3", "--seeds", "2", "--threads", "x"],
    ],
)
def test_empty_ranges_and_step_lists_exit_64(argv, capsys):
    assert _exit_code(argv) == 64
    err = capsys.readouterr().err
    assert "Traceback" not in err and "usage:" in err


@pytest.mark.parametrize("value", ["abc", "0", "-2", "1.5"])
@pytest.mark.parametrize(
    "argv",
    [
        ["serpar", "--p", "0.5", "--n", "3", "--seeds", "2"],
        ["simulate", "--model", "hipster", "--n", "4", "--pool", "100", "--checkpoints", "4"],
    ],
)
def test_bad_thread_variable_exits_64(argv, value, monkeypatch, capsys):
    monkeypatch.setenv("HOMSYS_THREADS", value)
    assert _exit_code(argv) == 64
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err and "usage:" in captured.err and not captured.out


def test_serpar_takes_up_to_max_rounds():
    args = cli.build_parser().parse_args(["serpar", "--p", "0.5", "--n", "24", "--seeds", "1"])
    assert args.n == 24


def test_serpar_threads_give_the_same_bytes(tmp_path):
    base = ["serpar", "--p", "0.5", "--n", "8", "--seeds", "6", "--check-exact"]
    for threads in (1, 2):
        assert cli.main(base + ["--threads", str(threads), "--out", str(tmp_path / f"t{threads}")]) == 0
    for suffix in (".csv", ".json"):
        assert (tmp_path / f"t1{suffix}").read_bytes() == (tmp_path / f"t2{suffix}").read_bytes()


def test_serpar_threads_give_the_same_bytes_over_several_forests(tmp_path):
    base = ["serpar", "--p", "0.5", "--n", "12", "--seeds", "30", "--check-exact"]
    assert len(list(serpar.forests(12, 0.5, range(30)))) > 1
    for threads in (1, 2):
        assert cli.main(base + ["--threads", str(threads), "--out", str(tmp_path / f"t{threads}")]) == 0
    for suffix in (".csv", ".json"):
        assert (tmp_path / f"t1{suffix}").read_bytes() == (tmp_path / f"t2{suffix}").read_bytes()
    seeds = [line.split(",")[0] for line in (tmp_path / "t2.csv").read_text().splitlines()[1:]]
    assert seeds == [str(s) for s in range(30)]


def test_thread_variable_is_the_default_thread_count(tmp_path, monkeypatch):
    monkeypatch.setenv("HOMSYS_THREADS", "2")
    argv = ["serpar", "--p", "0.5", "--n", "3", "--seeds", "2", "--out", str(tmp_path / "s")]
    assert cli.main(argv) == 0
    assert json.loads((tmp_path / "s.run.json").read_text())["threads"] == 2
    assert cli.main(argv + ["--threads", "3"]) == 0
    assert json.loads((tmp_path / "s.run.json").read_text())["threads"] == 3


@pytest.mark.parametrize(
    "flags",
    [
        ["--law", "cubic", "--scale-constant", "-1", "--exponent", "0.5"],
        ["--law", "cubic", "--scale-constant", "0", "--exponent", "0.5"],
        ["--law", "cubic", "--scale-constant", "nan", "--exponent", "0.5"],
        ["--law", "cubic", "--scale-constant", "2", "--exponent", "0"],
        ["--law", "cubic", "--scale-constant", "2", "--exponent", "inf"],
        # a valid triple whose scale overflows, or underflows to 0, at a checkpoint
        ["--law", "cubic", "--scale-constant", "1", "--exponent", "1e308"],
        ["--law", "cubic", "--scale-constant", "1e-300", "--exponent", "2"],
    ],
)
def test_bad_scaling_exits_1_before_any_output(flags, tmp_path, capsys):
    argv = ["simulate", "--model", "hipster", "--n", "4", "--pool", "100", "--checkpoints", "4", *flags]
    assert _exit_code(argv) == 1
    assert _exit_code(argv + ["--out", str(tmp_path / "s")]) == 1
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err and "validation error" in captured.err and not captured.out
    assert not list(tmp_path.iterdir())


def test_lambda_check_without_a_feasible_schedule_exits_1(tmp_path, capsys):
    # the hipster schedule is infeasible at n = 1, 2 and 4, feasible (and failing) at 8 and 16
    argv = ["lambda-check", "--model", "hipster", "--n-range", "1:4", "--vgrid", "4", "--out", str(tmp_path / "l")]
    assert _exit_code(argv) == 1
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err and "validation error" in captured.err and not captured.out
    assert not list(tmp_path.iterdir())
    argv = ["lambda-check", "--model", "hipster", "--n-range", "4:16", "--vgrid", "4", "--out", str(tmp_path / "l")]
    assert cli.main(argv) == 0
    assert _csv(tmp_path / "l.csv")[:, 0].tolist() == [8, 16]


def test_gamma_summary_reports_the_fixed_tolerance(tmp_path):
    assert cli.main(["gamma", "--model", "hipster", "--out", str(tmp_path / "g.json")]) == 0
    assert json.loads((tmp_path / "g.json").read_text())["tol"] == moments.MOMENT_TOL


@pytest.mark.parametrize("width", ["inf", "0", "-1", "nan", "1e308"])
def test_bad_init_width_exits_1_before_any_output(width, tmp_path, capsys):
    # a RuntimeWarning would fail the test: pytest turns them into errors here
    argv = ["evolve", "--model", "hipster", "--n", "4", "--checkpoints", "4", "--init-width", width]
    assert _exit_code(argv) == 1
    assert _exit_code(argv + ["--out", str(tmp_path / "e")]) == 1
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err and "--init-width" in captured.err and not captured.out
    assert not list(tmp_path.iterdir())


def test_explicit_scaling_equal_to_the_resolved_one_changes_nothing(tmp_path):
    base = ["simulate", "--model", "hipster", "--n", "6", "--pool", "500", "--seed", "3", "--checkpoints", "3,6"]
    law, constant, exponent = resolve_scaling(builtin("hipster"))
    flags = ["--law", law, "--scale-constant", repr(constant), "--exponent", repr(exponent)]
    assert cli.main(base + ["--out", str(tmp_path / "auto")]) == 0
    assert cli.main(base + flags + ["--out", str(tmp_path / "given")]) == 0
    for suffix in (".csv", ".json"):
        assert (tmp_path / f"auto{suffix}").read_bytes() == (tmp_path / f"given{suffix}").read_bytes()
    summary = json.loads((tmp_path / "given.json").read_text())
    assert summary["scaling"] == {"law": law, "constant": constant, "exponent": exponent}


@pytest.mark.parametrize("atoms", [
    [{"weight": 0.5, "family": "min"}, {"weight": 0.5, "family": "hipster+"}],
    [{"weight": 0.5, "family": "hipster+"}, {"weight": 0.25, "family": "min"}, {"weight": 0.25, "family": "min"}],
])
def test_lazy_hipster_in_another_atom_order_gets_its_constant(atoms, tmp_path):
    argv = ["simulate", "--model", json.dumps({"atoms": atoms}), "--n", "3", "--pool", "100", "--checkpoints", "3"]
    assert cli.main(argv + ["--out", str(tmp_path / "s")]) == 0
    summary = json.loads((tmp_path / "s.json").read_text())
    assert summary["scaling"] == {"law": "linear_half", "constant": 2.0, "exponent": 0.5}


def _subprocess_env() -> dict:
    """This process's environment, with the package on PYTHONPATH."""
    src = str(Path(homsys.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def test_importing_the_cli_does_not_load_scipy():
    # only serpar's distance oracle uses scipy (csgraph, which loads scipy.sparse.linalg);
    # it imports it when called, so commands that never call it start without loading it
    env = _subprocess_env()
    code = "import sys, homsys.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120, check=True)
    assert out.stdout.strip() == "[]"


def test_the_resistance_oracle_loads_no_scipy():
    env = _subprocess_env()
    code = ("import sys; from homsys import serpar; r = serpar.resistance_exact(serpar.build(8, 0.5, [0]))[0]; "
            "print(r > 0, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120, check=True)
    assert out.stdout.strip() == "True []"


def _has_mallopt() -> bool:
    try:
        return hasattr(ctypes.CDLL(None), "mallopt")
    except (OSError, TypeError):
        return False


@pytest.mark.skipif(not _has_mallopt(), reason="no glibc mallopt")
def test_a_repeated_serpar_call_reuses_the_memory_of_the_first():
    # main fixes the allocator thresholds once per process, so the transient arrays of a second call
    # come from the memory the first one freed; with glibc's sliding thresholds each call faulted in
    # about 3.5k fresh pages
    pytest.importorskip("resource")
    code = ("import contextlib, io, resource; from homsys import cli\n"
            "argv = ['serpar', '--p', '0.5', '--n', '12', '--seeds', '30', '--check-exact']\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert cli.main(argv) == 0\n"
            "    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "    assert cli.main(argv) == 0\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)")
    env = {**_subprocess_env(), "HOMSYS_THREADS": "1"}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120, check=True)
    assert int(out.stdout) < 100


def test_the_parser_is_built_once_per_process(monkeypatch, tmp_path):
    builds = []
    build_parser = cli.build_parser

    def counted():
        builds.append(1)
        return build_parser()

    monkeypatch.setattr(cli, "build_parser", counted)
    cli._parser.cache_clear()
    try:
        assert cli.main(["classify", "--model", "hipster", "--out", str(tmp_path / "c.json")]) == 0
        assert cli.main(["gamma", "--model", "hipster", "--out", str(tmp_path / "g.json")]) == 0
        assert cli.main(["serpar", "--p", "0.5", "--n", "3", "--seeds", "2", "--out", str(tmp_path / "s")]) == 0
        assert _exit_code(["frobnicate"]) == 64
    finally:
        cli._parser.cache_clear()
    assert len(builds) == 1


def test_a_reused_parser_carries_nothing_from_one_call_to_the_next(tmp_path, monkeypatch, capsys):
    # one process, the variable changing between calls: every output is that of a fresh
    # process run with the same argv and variable, and the run record follows the variable
    serpar_argv = ["serpar", "--p", "0.5", "--n", "4", "--seeds", "3", "--check-exact"]
    simulate_argv = ["simulate", "--model", "hipster", "--n", "6", "--pool", "300", "--seed", "5", "--checkpoints", "3,6"]
    scaling_flags = ["--law", "cubic", "--scale-constant", "3", "--exponent", "0.4"]
    evolve_argv = ["evolve", "--model", "hipster", "--n", "2", "--grid", "256", "--checkpoints", "2"]
    runs = [
        (None, serpar_argv, None),
        ("2", serpar_argv, 2),
        ("2", simulate_argv + scaling_flags, 2),
        ("abc", evolve_argv, None),
        (None, simulate_argv, None),
    ]
    cli._parser.cache_clear()
    for k, (variable, argv, threads) in enumerate(runs):
        if variable is None:
            monkeypatch.delenv("HOMSYS_THREADS", raising=False)
        else:
            monkeypatch.setenv("HOMSYS_THREADS", variable)
        if variable == "abc":
            for bad in (serpar_argv, simulate_argv):
                assert _exit_code(bad + ["--out", str(tmp_path / "bad")]) == 64
                captured = capsys.readouterr()
                assert "usage:" in captured.err and "argument --threads" in captured.err and not captured.out
        assert cli.main(argv + ["--out", str(tmp_path / f"in{k}")]) == 0
        assert json.loads((tmp_path / f"in{k}.run.json").read_text()).get("threads") == threads
        subprocess.run([sys.executable, "-m", "homsys.cli", *argv, "--out", str(tmp_path / f"fresh{k}")],
                       env=_subprocess_env(), timeout=120, check=True)
        for suffix in (".csv", ".json"):
            assert (tmp_path / f"in{k}{suffix}").read_bytes() == (tmp_path / f"fresh{k}{suffix}").read_bytes()
        assert json.loads((tmp_path / f"fresh{k}.run.json").read_text()).get("threads") == threads
    assert not list(tmp_path.glob("bad*"))
    given, resolved = (json.loads((tmp_path / f"in{k}.json").read_text())["scaling"] for k in (2, 4))
    assert given == {"law": "cubic", "constant": 3.0, "exponent": 0.4}
    assert resolved == dict(zip(("law", "constant", "exponent"), resolve_scaling(builtin("hipster"))))


def _history_runs() -> list[tuple[str, list[str], str]]:
    """(name, argv without --out, suffix of --out) of each command on each builtin and two_tables."""
    commands = [
        ("gamma", [], ".json"),
        ("classify", [], ".json"),
        ("lambda-check", ["--n-range", "64:64", "--vgrid", "50"], ""),
        ("evolve", ["--n", "8", "--grid", "512", "--checkpoints", "4,8"], ""),
        ("simulate", ["--n", "4", "--pool", "4096", "--checkpoints", "2,4"], ""),
    ]
    models = ["distance(0.5)", "resistance(0.5)", "hipster", "lazy_hipster", "power_mean(1,-1)", TWO_TABLES]
    return [(f"{k}-{command}", [command, "--model", model, *flags], suffix)
            for k, model in enumerate(models) for command, flags, suffix in commands]


def test_results_do_not_depend_on_the_gammas_computed_before(tmp_path, capsys):
    # one process runs every command twice, its Gammas first computed in one order of the models, then
    # in the reverse; every exit code, error and output equals that of a fresh process
    def outputs(stem: str) -> dict:
        paths = [tmp_path / f"{stem}{suffix}" for suffix in (".csv", ".json")]
        return {path.suffix: path.read_bytes() for path in paths if path.exists()}

    def fresh(run) -> tuple:
        name, argv, suffix = run
        proc = subprocess.run([sys.executable, "-m", "homsys.cli", *argv, "--out", str(tmp_path / f"fresh-{name}{suffix}")],
                              env=_subprocess_env(), capture_output=True, text=True, timeout=120)
        return proc.returncode, proc.stderr, outputs(f"fresh-{name}")

    runs = _history_runs()
    with ThreadPoolExecutor(max_workers=2) as pool:
        expected = dict(zip([name for name, _, _ in runs], pool.map(fresh, runs)))
    assert [code for code, _, _ in expected.values()].count(0) == len(runs) - 2  # two_tables has no scaling
    for order, ordered in (("forward", runs), ("reversed", runs[::-1])):
        moments._gamma.cache_clear()
        for name, argv, suffix in ordered:
            code = _exit_code(argv + ["--out", str(tmp_path / f"{order}-{name}{suffix}")])
            assert (code, capsys.readouterr().err, outputs(f"{order}-{name}")) == expected[name], (order, name)


def _lambda_check(tmp_path, name, *flags):
    """A short hipster scan with the given flags: (summary, CSV rows)."""
    stem = tmp_path / name
    argv = ["lambda-check", "--model", "hipster", "--n-range", "8:16", "--vgrid", "4", *flags, "--out", str(stem)]
    assert cli.main(argv) == 0
    return json.loads(stem.with_suffix(".json").read_text()), _csv(f"{stem}.csv")


def test_lambda_check_scans_with_the_given_c_star(tmp_path):
    derived, derived_rows = _lambda_check(tmp_path, "derived")
    assert derived["c_star"] == moments.c_star(builtin("hipster")) != 2.5
    given, given_rows = _lambda_check(tmp_path, "given", "--c-star", "2.5")
    assert given["c_star"] == 2.5
    at_16 = [rows[rows[:, 0] == 16, 1] for rows in (derived_rows, given_rows)]
    assert at_16[0].size == at_16[1].size == 1 and at_16[0][0] != at_16[1][0]


@pytest.mark.parametrize("flag, value, bad", [("--eta", 0.5, 1.5), ("--delta", 0.6, 1.0), ("--delta1", 0.02, 0.1)])
def test_lambda_check_takes_the_schedule_parameters(flag, value, bad, tmp_path, capsys):
    key = flag[2:]
    summary, _ = _lambda_check(tmp_path, "given", flag, repr(value))
    default = proofcheck.ProofParams(c_star=summary["c_star"])
    params = proofcheck.ProofParams(c_star=summary["c_star"], **{key: value})
    assert summary[key] == value != getattr(default, key)
    assert [summary[k] for k in ("eta", "delta", "delta1", "rho", "rho_tilde", "kappa")] == [
        params.eta, params.delta, params.delta1, params.rho, params.rho_tilde, params.kappa]
    capsys.readouterr()
    argv = ["lambda-check", "--model", "hipster", "--n-range", "8:16", "--vgrid", "4", flag, repr(bad)]
    assert _exit_code(argv) == 1
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err and f"validation error: {key} must lie in" in captured.err


def test_gamma_between_given_exponents(tmp_path):
    # Gamma^(0,1) of either softplus atom of the resistance model is pi^2/6
    argv = ["gamma", "--model", "resistance(0.5)", "--a", "0", "--b", "1", "--out", str(tmp_path / "g.json")]
    assert cli.main(argv) == 0
    gamma_ab = json.loads((tmp_path / "g.json").read_text())["gamma_ab"]
    assert (gamma_ab["a"], gamma_ab["b"]) == (0.0, 1.0)
    assert [atom["label"] for atom in gamma_ab["atoms"]] == ["sum", "parallel"]
    assert all(abs(atom["value"] - math.pi**2 / 6) <= 1e-14 for atom in gamma_ab["atoms"])


@pytest.mark.parametrize("flags", [["--a", "0"], ["--b", "1"]])
def test_a_lone_moment_exponent_exits_64_before_any_output(flags, tmp_path, capsys):
    assert _exit_code(["gamma", "--model", "hipster", *flags, "--out", str(tmp_path / "g.json")]) == 64
    captured = capsys.readouterr()
    assert "usage:" in captured.err and "--a and --b are given both or neither" in captured.err and not captured.out
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("a, b", [("-1", "1"), ("nan", "1"), ("0", "0"), ("0", "nan"), ("inf", "1"), ("1", "inf")])
def test_bad_moment_exponents_exit_1_before_any_output(a, b, tmp_path, capsys):
    assert _exit_code(["gamma", "--model", "hipster", "--a", a, "--b", b, "--out", str(tmp_path / "g.json")]) == 1
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err and "validation error" in captured.err and not captured.out
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("eta", ["5", "0", "-1", "inf", "nan"])
def test_gamma_refuses_an_eta_outside_0_1(eta, tmp_path, capsys):
    assert _exit_code(["gamma", "--model", "hipster", "--eta", eta, "--out", str(tmp_path / "g.json")]) == 1
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err and not captured.out
    assert captured.err == "validation error: eta must lie in (0, 1]\n"
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("c_star", ["inf", "1e308"])
def test_lambda_check_refuses_a_c_star_whose_schedule_is_not_finite(c_star, tmp_path, capsys):
    argv = ["lambda-check", "--model", "hipster", "--n-range", "64:64", "--vgrid", "4", "--c-star", c_star,
            "--out", str(tmp_path / "l")]
    assert _exit_code(argv) == 1
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err and not captured.out
    assert captured.err.startswith("validation error: " + ("c_star must be finite" if c_star == "inf" else "tau = "))
    assert not list(tmp_path.iterdir())


def test_gamma_eta_sets_the_m_eta_moments(tmp_path):
    model = parse_model("resistance(0.5)")
    for eta in (1.0, 0.5):
        argv = ["gamma", "--model", "resistance(0.5)", "--eta", repr(eta), "--out", str(tmp_path / "g.json")]
        assert cli.main(argv) == 0
        summary = json.loads((tmp_path / "g.json").read_text())
        assert summary["eta"] == eta and all(atom["eta"] == eta for atom in summary["atoms"])
        assert [atom["m_eta"] for atom in summary["atoms"]] == [moments.moment_table(f, eta).m_eta for f in model.functions]
    assert summary["atoms"][0]["m_eta"] != moments.moment_table(model.functions[0], 1.0).m_eta


def test_simulate_init_shifts_every_log_value(tmp_path):
    # the recursion is 1-homogeneous: starting at log value 3 adds 3 to every log X_n
    base = ["simulate", "--model", "hipster", "--n", "6", "--pool", "300", "--seed", "5", "--checkpoints", "3,6"]
    for init in ("0", "3"):
        assert cli.main(base + ["--init", init, "--out", str(tmp_path / f"s{init}")]) == 0
    at_0, at_3 = (json.loads((tmp_path / f"s{init}.json").read_text()) for init in ("0", "3"))
    assert (at_0["init"], at_3["init"]) == (0.0, 3.0)
    for cp0, cp3 in zip(at_0["checkpoints"], at_3["checkpoints"], strict=True):
        assert cp0["scale"] == cp3["scale"] and cp0["ks"] != cp3["ks"]
        shifts = [cp3["quantiles"][q] - cp0["quantiles"][q] for q in cp0["quantiles"]]
        assert shifts == pytest.approx([3.0 / cp0["scale"]] * 5, rel=1e-12)


def test_report_runs_the_given_criteria(tmp_path, capsys):
    assert cli.main(["report", "--criteria", "3,1", "--out", str(tmp_path / "r.json")]) == 0
    results = json.loads((tmp_path / "r.json").read_text())["results"]
    assert [r["criterion"] for r in results] == ["1", "3"] and all(r["passed"] for r in results)
    assert capsys.readouterr().out.count("[PASS] criterion") == 2


@pytest.mark.parametrize("name", ["lazy_hipster", "distance(0.5)"])
def test_an_unnamed_copy_of_a_known_model_runs_with_its_scaling(name, tmp_path):
    unnamed = json.dumps({"atoms": model_to_dict(parse_model(name))["atoms"]})
    runs = {"simulate": ["--pool", "500", "--seed", "3"], "evolve": ["--grid", "512"]}
    for command, flags in runs.items():
        got = []
        for tag, model in (("named", name), ("unnamed", unnamed)):
            out = str(tmp_path / f"{command}_{tag}")
            assert cli.main([command, "--model", model, "--n", "4", "--checkpoints", "2,4", *flags, "--out", out]) == 0
            got.append((json.loads(Path(out + ".json").read_text())["scaling"], Path(out + ".csv").read_bytes()))
        assert got[0] == got[1] and got[0][0]["law"] == "linear_half"


def test_a_borrowed_name_gets_no_proved_constant(capsys):
    # a sqrt-regime tent + min model under the name of distance(0.5), whose constant is pi^2/6
    spec = ('{"name":"distance(0.5)","atoms":[{"weight":0.5,"family":"tent","s_plus":1,"s_minus":0.5},'
            '{"weight":0.5,"family":"min"}]}')
    assert cli.main(["simulate", "--model", spec, "--n", "4", "--pool", "200", "--checkpoints", "4"]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err and "validation error: no limit law known" in err


@pytest.mark.parametrize("atoms", ['{"weight":NaN,"family":"sum"}',
                                   '{"weight":NaN,"family":"sum"},{"weight":1.0,"family":"min"}'])
@pytest.mark.parametrize(
    "argv",
    [["gamma"], ["classify"],
     ["simulate", "--law", "cubic", "--scale-constant", "1", "--exponent", "0.5", "--n", "3", "--pool", "100",
      "--checkpoints", "3"]],
    ids=["gamma", "classify", "simulate"],
)
def test_a_nan_weight_exits_1_before_any_output(atoms, argv, tmp_path, capsys):
    model = '{"atoms":[' + atoms + "]}"
    assert _exit_code([argv[0], "--model", model, *argv[1:], "--out", str(tmp_path / "x")]) == 1
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err and "atom weights must be finite and positive" in captured.err
    assert not captured.out and not list(tmp_path.iterdir())


def test_a_gamma_that_overflows_exits_2_without_a_warning(tmp_path, capsys):
    # Gamma^(171,1) = Gamma(172) zeta(173) = 171! exceeds the largest double; Gamma^(150,1) does not
    argv = ["gamma", "--model", "resistance(0.5)", "--a", "171", "--b", "1", "--out", str(tmp_path / "g.json")]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert "numerical error: Gamma^(171.0,1.0) is not finite" in captured.err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize(
    "a, b, code, message",
    [
        ("inf", "1", 1, "validation error: a must be finite and nonnegative"),
        # t^a overflows, and so does the log2 of the peak that would scale it back
        ("1e300", "1", 2, "numerical error: Gamma^(1e+300,1.0) has no scale in double precision"),
        # T^150's rounding is 150 times T's, far above MOMENT_TOL: the rule would split its panels until
        # memory ran out; it stops at level 9, in about 0.1 s
        ("1", "150", 2, "numerical error: the quadrature cannot meet its tolerance"),
    ],
    ids=["infinite_a", "huge_a", "runaway_quadrature"],
)
def test_a_gamma_that_cannot_be_computed_exits_at_once_without_a_traceback(a, b, code, message, tmp_path, capsys):
    argv = ["gamma", "--model", "resistance(0.5)", "--a", a, "--b", b, "--out", str(tmp_path / "g.json")]
    start = time.perf_counter()
    assert _exit_code(argv) == code
    assert time.perf_counter() - start < 2.0
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err and message in captured.err and not captured.out
    assert not list(tmp_path.iterdir())


SUMMARY_RUNS = {
    "gamma": ["gamma", "--model", "hipster"],
    "classify": ["classify", "--model", "hipster"],
    "simulate": ["simulate", "--model", "hipster", "--n", "2", "--pool", "100", "--checkpoints", "2"],
    "evolve": ["evolve", "--model", "hipster", "--n", "2", "--grid", "256", "--checkpoints", "2"],
    "serpar": ["serpar", "--p", "0.5", "--n", "3", "--seeds", "2"],
    "lambda-check": ["lambda-check", "--model", "hipster", "--n-range", "8:8", "--vgrid", "4"],
}


@pytest.mark.parametrize("out", [True, False], ids=["out", "stdout"])
@pytest.mark.parametrize("verb", SUMMARY_RUNS)
def test_main_writes_each_summary_once(verb, out, tmp_path, monkeypatch, capsys):
    written = []
    write_json = cli._write_json

    def spy(path, payload):
        written.append((path, payload))
        write_json(path, payload)

    monkeypatch.setattr(cli, "_write_json", spy)
    stem = str(tmp_path / "x")
    assert cli.main(SUMMARY_RUNS[verb] + (["--out", stem] if out else [])) == 0
    summaries = [(path, payload) for path, payload in written if not (path or "").endswith(".run.json")]
    # --out itself for the verbs that write no CSV, <out>.json beside the CSV for the others
    want = None if not out else stem if verb in ("gamma", "classify") else stem + ".json"
    assert [path for path, _ in summaries] == [want]
    payload = summaries[0][1]
    assert payload["version"] == homsys.__version__ and ("model_spec" in payload) == (verb != "serpar")
    assert len(written) == 1 + out  # and the run record with --out
