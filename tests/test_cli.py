import json

import numpy as np
import pytest

from homsys import cli, limit_cdf


def _csv(path):
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def test_success_records_the_given_argv(tmp_path):
    argv = ["classify", "--model", "hipster", "--out", str(tmp_path / "c.json")]
    assert cli.main(argv) == 0
    summary = json.loads((tmp_path / "c.json").read_text())
    assert summary["regime"] == "cbrt"
    assert summary["argv"] == argv


@pytest.mark.parametrize("model", ["no_such_model", '{"atoms":[{"weight":1}]}', "resistance(2)"])
def test_bad_model_exits_1(model, capsys):
    assert cli.main(["classify", "--model", model]) == 1
    assert "validation error" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["classify"], ["frobnicate"], ["simulate", "--model", "hipster", "--n", "x"]])
def test_usage_error_exits_64(argv):
    with pytest.raises(SystemExit) as info:
        cli.main(argv)
    assert info.value.code == cli.USAGE_EXIT == 64


def test_evolve_csv_uses_the_run_law(tmp_path):
    stem = tmp_path / "lazy"
    argv = ["evolve", "--model", "lazy_hipster", "--n", "4", "--grid", "512", "--checkpoints", "4", "--out", str(stem)]
    assert cli.main(argv) == 0
    rows = _csv(f"{stem}.csv")
    assert np.array_equal(rows[:, 3], limit_cdf("linear_half", rows[:, 1]))
    summary = json.loads(stem.with_suffix(".json").read_text())
    assert summary["argv"] == argv and [cp["n"] for cp in summary["checkpoints"]] == [4]
    diag = summary["diagnostics"]  # the hipster+ atom has cells, the min atom none
    assert diag["t_cells"][0] > 0 and diag["groups"][0] == 1 and diag["t_cells"][1] == diag["groups"][1] == 0
    assert 0.0 <= diag["max_monotonicity_defect"] and 0.0 <= diag["clamp_budget"] <= 1e-6


def test_csv_and_summary_to_stdout(capsys):
    assert cli.main(["serpar", "--p", "0.5", "--n", "3", "--seeds", "2", "--check-exact"]) == 0
    out = capsys.readouterr().out
    header, row0, row1, rest = out.split("\n", 3)
    assert header == "seed,R_reduce,R_exact,D_reduce,D_exact"
    assert row0.startswith("0,") and row1.startswith("1,")
    assert json.loads(rest)["distance_mismatches"] == 0
