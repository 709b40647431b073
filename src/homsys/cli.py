"""Command-line front end.

Every run writes a JSON summary of its results: the package version, the
model name, the full model (`model_spec`, the `model_to_dict` form, which
`parse_model` reads back) and a digest of it, plus the fields the verb owns:
`simulate` adds its seed, `lambda-check` its eta, delta and delta1, `gamma`
the fixed tolerance of the moment integrals, and `evolve` the kernel
diagnostics through its last checkpoint (t-cells, cell groups and FIR taps
per atom, summed clamp budget, largest monotonicity defect).  So a run whose
model came from a JSON file can be repeated from its summary alone.  `main`
writes every summary but `report`'s: it parses `--model`, and adds the shared
fields to those the verb returns; the JSON goes to `--out` for `gamma` and
`classify`, to `<out>.json` beside `<out>.csv` for the others, or to stdout
without `--out`.  `report` writes its own, to `--out` only, and exits 1 when
a criterion fails.  How the run was executed is kept apart, so that results
compare byte for byte: with `--out`, the version and the command line go to
`<stem>.run.json`, stem being `--out` without a trailing `.json`.
`--threads` is taken by `serpar`, which builds its seeds in forests
(`serpar.forests`) and solves the forests on that many worker threads (1 when
it is not given), and by `simulate`, which ignores it: whatever its value,
the pool steps run on the calling thread and their random draws one step
ahead on one helper thread (`mc`).  A thread count that is not an integer
>= 1 is a usage error.

The argument parser is built once per process, on the first `main` call, and
reused by every later one; it holds no per-call state.

The first `main` call of a process also fixes glibc's allocator policy
with `mallopt`: `M_MMAP_THRESHOLD` at 32 MiB, `M_TRIM_THRESHOLD` at
64 MiB and `M_ARENA_MAX` at 1.  By default glibc raises its mmap threshold
as large blocks are freed and trims the heap top as it shrinks, so whether a
later call reuses freed memory or maps and faults in fresh pages depends on
what earlier calls allocated; the large transient arrays of a serpar forest
then page-fault on some runs and not on others.  With fixed thresholds every
call of a process sees one policy.  By default glibc also gives each new
thread its own arena, which keeps what it frees apart from the main heap:
the index arrays that `simulate`'s helper thread draws (see `mc`) would
then grow a second heap beside the one the main thread frees them into.
With one arena every thread, serpar's workers too, allocates from the one
heap.  Where `mallopt` is missing (another libc, another system) nothing
is set.  No output depends on it.

`_checkpoints` alone writes the checkpoint CSV and records of `simulate` and
`evolve`: a grid law on at most 2049 of its nodes, a pool as its empirical
CDF on `--grid` cells with its quantiles.  Both summaries carry the `scaling`
the run used, {law, constant, exponent}: each checkpoint's log X_n is divided
by (constant n)^exponent and compared to the limit law.  It comes from the
classification of the model (`models.resolve_scaling`), unless `simulate` is
given `--law`, `--scale-constant` and `--exponent`: all three or none, a
partial set being a usage error.  A given constant or exponent that is not
finite and > 0 is a validation failure, reported before any output.
Likewise `gamma` takes `--a` and `--b` both or neither; with both, its
summary adds Gamma^(a,b) of each atom as `gamma_ab`.

Exit codes: 0 success, 1 validation failure, 2 numerical failure, 64 usage
error.
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import json
import sys
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import asdict

import numpy as np

from . import __version__, dist, evolve, mc, moments, proofcheck, serpar
from .acceptance import run_criteria
from .errors import DegenerateModelError, DomainError, HomsysError
from .models import classify, model_digest, model_to_dict, parse_model, resolve_scaling

USAGE_EXIT = 64


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        sys.exit(USAGE_EXIT)


def _checkpoint_list(text: str) -> tuple[int, ...]:
    try:
        steps = tuple(int(s) for s in text.split(",") if s)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}") from None
    if not steps:
        raise argparse.ArgumentTypeError(f"expected at least one step count, got {text!r}")
    return steps


def _n_range(text: str) -> tuple[int, int]:
    try:
        lo, hi = (int(s) for s in text.split(":"))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected two integers as a:b, got {text!r}") from None
    if not 1 <= lo <= hi:
        raise argparse.ArgumentTypeError(f"expected 1 <= a <= b, got {text!r}")
    return lo, hi


def _int_in(lo: int, hi: int | None = None):
    """An argparse type: an integer in [lo, hi), or at least lo when hi is None."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
        if value < lo or (hi is not None and value >= hi):
            bound = f"{lo} <= value < {hi}" if hi is not None else f"an integer >= {lo}"
            raise argparse.ArgumentTypeError(f"expected {bound}, got {text!r}")
        return value

    return parse


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _write_json(path: str | None, payload: dict) -> None:
    text = json.dumps(payload, sort_keys=True, indent=1, default=float)
    if path:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


@contextmanager
def _csv_out(args, header: str):
    """The CSV stream of a run, header written: <out>.csv with --out, else stdout."""
    fh = open(args.out + ".csv", "w") if args.out else sys.stdout
    try:
        fh.write(header + "\n")
        yield fh
    finally:
        if args.out:
            fh.close()


def _base_summary(model) -> dict:
    payload = {"version": __version__}
    if model is not None:
        payload["model"] = model.name
        payload["model_spec"] = model_to_dict(model)
        payload["model_digest"] = model_digest(model)
    return payload


def _write_run_record(args, argv: list[str]) -> None:
    """Execution metadata of a run, apart from its results: <stem>.run.json."""
    stem = args.out[: -len(".json")] if args.out.endswith(".json") else args.out
    _write_json(stem + ".run.json", {"version": __version__, "argv": argv})


def _quantiles(values: np.ndarray) -> dict:
    qs = (0.05, 0.25, 0.5, 0.75, 0.95)
    v = np.quantile(values, qs)
    return {f"q{int(100 * q):02d}": float(x) for q, x in zip(qs, v)}


def _emit_checkpoint_csv(fh, n: int, x: np.ndarray, cdf: np.ndarray, law: str) -> None:
    ref = dist.limit_cdf(law, x)
    h = x[1] - x[0]
    dens = np.gradient(cdf, h)
    row = f"{n},%.17g,%.17g,%.17g,%.17g\n"  # %.17g formats a float as _fmt does
    # the whole checkpoint in one format operation, the values row by row
    fh.write((row * len(x)) % tuple(np.column_stack([x, cdf, ref, dens]).ravel().tolist()))


def _checkpoints(args, cps) -> list[dict]:
    records = []
    with _csv_out(args, "n,x,cdf,cdf_limit,density") as fh:
        for cp in cps:
            record = {"n": cp.n, "scale": cp.scale, "ks": cp.ks}
            if isinstance(cp.rescaled, dist.GridCDF):
                g, stride = cp.rescaled, max(1, cp.rescaled.m // 2048)
            else:
                g, stride = dist.from_samples(cp.rescaled, m=args.grid, pad=0.05), 1
                record["quantiles"] = _quantiles(cp.rescaled)
            _emit_checkpoint_csv(fh, cp.n, g.grid()[::stride], g.cdf[::stride], cp.law)
            records.append(record)
    return records


# -- subcommands: each but report takes the arguments and the model (None for serpar) and returns its summary


def _cmd_gamma(args, model) -> dict:
    report = moments.model_moments(model, eta=args.eta)
    if args.a is not None:
        report["gamma_ab"] = {
            "a": args.a,
            "b": args.b,
            "atoms": [
                {"label": f.label or f.g.family, "value": moments.gamma(f, args.a, args.b)}
                for _, f in model.atoms
            ],
        }
    return report


def _cmd_classify(args, model) -> dict:
    return asdict(classify(model))


def _scaling_summary(scaling: tuple[str, float, float]) -> dict:
    return dict(zip(("law", "constant", "exponent"), scaling))


def _cmd_simulate(args, model) -> dict:
    given = (args.law, args.scale_constant, args.exponent)
    scaling = resolve_scaling(model, None if given[0] is None else given)
    cps = mc.simulate(model, args.init, args.n, args.pool, args.seed, args.checkpoints, scaling)
    return {"n": args.n, "pool": args.pool, "seed": args.seed, "init": args.init,
            "checkpoints": _checkpoints(args, cps), "scaling": _scaling_summary(scaling)}


def _cmd_evolve(args, model) -> dict:
    width = args.init_width
    if not 0.0 < 2 * width < np.inf:  # the initial law spans [-width, width]
        raise DomainError("--init-width must be > 0, with 2 * width finite")
    x = np.linspace(-width, width, 257)
    init = dist.GridCDF(-width, width, np.clip((x + width) / (2 * width), 0.0, 1.0))
    scaling = resolve_scaling(model)
    cps = evolve.run(init, model, args.n, args.checkpoints, m=args.grid, scaling=scaling)
    return {"n": args.n, "grid": args.grid, "checkpoints": _checkpoints(args, cps),
            "scaling": _scaling_summary(scaling), "diagnostics": asdict(cps[-1].diagnostics)}


def _cmd_serpar(args, model) -> dict:
    def solve(g: serpar.SPGraph) -> list[tuple]:
        r_red, d_red = serpar.reduce_graph(g)
        if args.check_exact:
            r_ex, d_ex = serpar.resistance_exact(g).tolist(), serpar.distance_exact(g).tolist()
        else:
            r_ex = d_ex = [None] * g.roots
        return list(zip(g.seeds, r_red.tolist(), r_ex, d_red.tolist(), d_ex))

    forests = serpar.forests(args.n, args.p, range(args.seeds))
    workers = args.threads or 1
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as ex:
            rows = [row for forest_rows in ex.map(solve, forests) for row in forest_rows]
    else:
        rows = [row for g in forests for row in solve(g)]

    max_rel_r, dist_mismatch = 0.0, 0
    with _csv_out(args, "seed,R_reduce,R_exact,D_reduce,D_exact") as fh:
        for seed, r_red, r_ex, d_red, d_ex in rows:
            if r_ex is not None:
                max_rel_r = max(max_rel_r, abs(r_ex - r_red) / r_red)
                dist_mismatch += int(d_ex != d_red)
            fh.write(
                f"{seed},{_fmt(r_red)},{'' if r_ex is None else _fmt(r_ex)},"
                f"{_fmt(d_red)},{'' if d_ex is None else _fmt(d_ex)}\n"
            )
    return {"p": args.p, "n": args.n, "seeds": args.seeds, "check_exact": bool(args.check_exact),
            "max_rel_resistance_error": max_rel_r, "distance_mismatches": dist_mismatch}


def _cmd_lambda_check(args, model) -> dict:
    lo, hi = args.n_range
    c = args.c_star if args.c_star is not None else moments.c_star(model)
    params = proofcheck.ProofParams(c_star=c, eta=args.eta, delta=args.delta, delta1=args.delta1)
    n0, history = proofcheck.find_n0(model, params, n_max=hi, n_min=lo, points=args.vgrid)
    with _csv_out(args, "n,min_residual,argmin_v") as fh:
        for rep in history:
            fh.write(f"{rep.n},{_fmt(rep.min_residual)},{_fmt(rep.argmin_v)}\n")
    return {"n_range": [lo, hi], "vgrid": args.vgrid, "c_star": c, "n0_found": n0 is not None, "n0": n0,
            "eta": params.eta, "delta": params.delta, "delta1": params.delta1,
            "rho": params.rho, "rho_tilde": params.rho_tilde, "kappa": params.kappa}


def _cmd_report(args) -> int:
    selected = set(args.criteria.split(",")) if args.criteria else None
    results = run_criteria(selected)
    payload = {
        "version": __version__,
        "results": [
            {"criterion": r.cid, "name": r.name, "passed": r.passed, "seconds": r.seconds, "detail": r.detail}
            for r in results
        ],
    }
    if args.out:
        _write_json(args.out, payload)
    return 0 if all(r.passed for r in results) else 1


def build_parser() -> _Parser:
    p = _Parser(prog="homsys", description="Random 1-homogeneous systems: moments, simulation, verification.")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, model=True, threads=None):
        """The shared options; threads is the help text of --threads, if taken."""
        if model:
            sp.add_argument("--model", required=True, help="builtin name, shorthand, JSON literal, or JSON file")
        sp.add_argument("--out", default=None, help="output path (stem for commands writing .csv/.json pairs)")
        if threads:
            sp.add_argument("--threads", type=_int_in(1), default=None, help=threads)

    # main writes a verb's summary to --out plus its summary_suffix, or to stdout without --out
    sp = sub.add_parser("gamma", help="moment report for a model")
    common(sp)
    sp.add_argument("--a", type=float, default=None)
    sp.add_argument("--b", type=float, default=None)
    sp.add_argument("--eta", type=float, default=1.0)
    sp.set_defaults(fn=_cmd_gamma, summary_suffix="")

    sp = sub.add_parser("classify", help="criticality parameters and growth regime")
    common(sp)
    sp.set_defaults(fn=_cmd_classify, summary_suffix="")

    sp = sub.add_parser("simulate", help="pool Monte Carlo with rescaled-KS checkpoints")
    common(sp, threads="accepted and ignored: the steps run on one thread, their draws one step ahead on one helper")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--pool", type=int, required=True)
    sp.add_argument("--seed", type=_int_in(0, 2**64), default=1)
    sp.add_argument("--checkpoints", type=_checkpoint_list, required=True, help="comma-separated step counts")
    sp.add_argument("--init", type=float, default=0.0, help="initial log value")
    sp.add_argument("--grid", type=_int_in(1), default=512, help="cells of the emitted empirical CDF")
    sp.add_argument("--law", choices=dist.LIMIT_LAWS, default=None, help="with --scale-constant and --exponent")
    sp.add_argument("--scale-constant", dest="scale_constant", type=float, default=None)
    sp.add_argument("--exponent", type=float, default=None)
    sp.set_defaults(fn=_cmd_simulate, summary_suffix=".json")

    sp = sub.add_parser("evolve", help="exact grid evolution with rescaled-KS checkpoints")
    common(sp)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--grid", type=_int_in(1), default=8192)
    sp.add_argument("--checkpoints", type=_checkpoint_list, required=True, help="comma-separated step counts")
    sp.add_argument("--init-width", dest="init_width", type=float, default=0.5, help="half-width of the uniform initial law")
    sp.set_defaults(fn=_cmd_evolve, summary_suffix=".json")

    sp = sub.add_parser("serpar", help="series-parallel growth with dual oracles")
    common(sp, model=False, threads="worker threads over the seeds (default: 1; results are identical regardless)")
    sp.add_argument("--p", type=float, required=True)
    sp.add_argument("--n", type=_int_in(0, serpar.MAX_ROUNDS + 1), required=True)
    sp.add_argument("--seeds", type=_int_in(1), required=True)
    sp.add_argument("--check-exact", dest="check_exact", action="store_true")
    sp.set_defaults(fn=_cmd_serpar, summary_suffix=".json")

    sp = sub.add_parser("lambda-check", help="scan the Lambda-condition residual over n")
    common(sp)
    sp.add_argument("--eta", type=float, default=1.0)
    sp.add_argument("--delta", type=float, default=0.5)
    sp.add_argument("--delta1", type=float, default=0.05)
    sp.add_argument("--n-range", dest="n_range", type=_n_range, required=True, help="a:b")
    sp.add_argument("--vgrid", type=_int_in(1), default=400)
    sp.add_argument("--c-star", dest="c_star", type=float, default=None)
    sp.set_defaults(fn=_cmd_lambda_check, summary_suffix=".json")

    sp = sub.add_parser("report", help="run the acceptance suite")
    sp.add_argument("--criteria", default=None, help="comma-separated criterion ids (default: all)")
    sp.add_argument("--out", default=None)
    sp.set_defaults(fn=_cmd_report, summary_suffix=None)

    return p


@functools.cache
def _parser() -> _Parser:
    return build_parser()


# glibc's mallopt parameters (malloc.h) and the values main fixes them at
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD, _M_ARENA_MAX = -1, -3, -8
_ALLOCATOR_POLICY = ((_M_MMAP_THRESHOLD, 32 << 20), (_M_TRIM_THRESHOLD, 64 << 20), (_M_ARENA_MAX, 1))


@functools.cache
def _pin_allocator() -> bool:
    """Fix glibc's mmap and trim thresholds and its arena count, once per process; False where mallopt is missing."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    return all([mallopt(param, value) == 1 for param, value in _ALLOCATOR_POLICY])  # a list: set all


# options that go together: a partial set is a usage error
_ALL_OR_NONE = (
    (("law", "scale_constant", "exponent"), "--law, --scale-constant and --exponent are given all three or none"),
    (("a", "b"), "--a and --b are given both or neither"),
)


def main(argv: list[str] | None = None) -> int:
    _pin_allocator()
    parser = _parser()
    args = parser.parse_args(argv)
    for keys, message in _ALL_OR_NONE:
        flags = [getattr(args, key, None) for key in keys]
        if None in flags and any(flag is not None for flag in flags):
            parser.error(message)
    try:
        if args.summary_suffix is None:  # report writes its own summary; its exit code is its verdict
            code = args.fn(args)
        else:
            model = parse_model(args.model) if "model" in args else None
            summary = args.fn(args, model)
            summary.update(_base_summary(model))
            _write_json(args.out and args.out + args.summary_suffix, summary)
            code = 0
        if args.out:
            _write_run_record(args, sys.argv[1:] if argv is None else list(argv))
        return code
    except (DomainError, DegenerateModelError) as exc:
        sys.stderr.write(f"validation error: {exc}\n")
        return 1
    except HomsysError as exc:
        sys.stderr.write(f"numerical error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
