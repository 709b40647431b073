"""Command-line front end.

Every run writes a JSON summary carrying the package version, the command
line it was given, the model name and a digest of the model content, the
seed and the tolerances; an `evolve` summary also carries the kernel
diagnostics through its last checkpoint (t-cells and cell groups per atom,
summed clamp budget, largest monotonicity defect).  The model itself is not
embedded: repeating a run whose model came from a JSON file needs that file
too.  Exit codes:
0 success, 1 validation failure, 2 numerical failure, 64 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import asdict

import numpy as np

from . import __version__, dist, evolve, mc, moments, proofcheck, serpar
from .acceptance import run_criteria
from .errors import DegenerateModelError, DomainError, HomsysError
from .models import classify, model_digest, parse_model

USAGE_EXIT = 64


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        sys.exit(USAGE_EXIT)


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


def _threads(args) -> int:
    if args.threads is not None:
        return args.threads
    return int(os.environ.get("HOMSYS_THREADS", "1"))


def _base_summary(args, model=None) -> dict:
    payload = {"version": __version__, "argv": args.argv}
    if model is not None:
        payload["model"] = model.name
        payload["model_digest"] = model_digest(model)
    for key in ("seed", "tol", "eta", "delta", "delta1", "threads"):
        if hasattr(args, key) and getattr(args, key) is not None:
            payload[key] = getattr(args, key)
    return payload


def _quantiles(values: np.ndarray) -> dict:
    qs = (0.05, 0.25, 0.5, 0.75, 0.95)
    v = np.quantile(values, qs)
    return {f"q{int(100 * q):02d}": float(x) for q, x in zip(qs, v)}


def _emit_checkpoint_csv(fh, n: int, x: np.ndarray, cdf: np.ndarray, law: str) -> None:
    ref = dist.limit_cdf(law, x)
    h = x[1] - x[0]
    dens = np.gradient(cdf, h)
    for xi, ci, ri, di in zip(x, cdf, ref, dens):
        fh.write(f"{n},{_fmt(xi)},{_fmt(ci)},{_fmt(ri)},{_fmt(di)}\n")


# -- subcommands ---------------------------------------------------------------


def _cmd_gamma(args) -> int:
    model = parse_model(args.model)
    report = moments.model_moments(model, eta=args.eta, tol=args.tol)
    if args.a is not None and args.b is not None:
        report["gamma_ab"] = {
            "a": args.a,
            "b": args.b,
            "atoms": [
                {"label": f.label or f.g.family, "value": moments.gamma(f, args.a, args.b, args.tol)}
                for _, f in model.atoms
            ],
        }
    report.update(_base_summary(args, model))
    _write_json(args.out, report)
    return 0


def _cmd_classify(args) -> int:
    model = parse_model(args.model)
    rep = classify(model, tol=args.tol)
    payload = rep.to_dict()
    payload.update(_base_summary(args, model))
    _write_json(args.out, payload)
    return 0


def _cmd_simulate(args) -> int:
    model = parse_model(args.model)
    checkpoints = tuple(int(s) for s in args.checkpoints.split(",") if s)
    summaries = mc.simulate(
        model,
        args.init,
        args.n,
        args.pool,
        args.seed,
        checkpoints,
        law=args.law,
        scale_constant=args.scale_constant,
        exponent=args.exponent,
    )
    records = []
    with _csv_out(args, "n,x,cdf,cdf_limit,density") as fh:
        for s in summaries:
            emp = dist.from_samples(s.rescaled, m=args.grid, pad=0.05)
            _emit_checkpoint_csv(fh, s.n, emp.grid(), emp.cdf, s.law)
            records.append({"n": s.n, "scale": s.scale, "ks": s.ks, "quantiles": _quantiles(s.rescaled)})
    payload = _base_summary(args, model)
    payload.update({"n": args.n, "pool": args.pool, "init": args.init, "checkpoints": records})
    _write_json((args.out + ".json") if args.out else None, payload)
    return 0


def _cmd_evolve(args) -> int:
    model = parse_model(args.model)
    checkpoints = tuple(int(s) for s in args.checkpoints.split(",") if s)
    width = args.init_width
    x = np.linspace(-width, width, 257)
    init = dist.GridCDF(-width, width, np.clip((x + width) / (2 * width), 0.0, 1.0))
    cps = evolve.run(init, model, args.n, checkpoints, tol=args.tol, m=args.grid)
    records = []
    with _csv_out(args, "n,x,cdf,cdf_limit,density") as fh:
        for cp in cps:
            g = cp.dist
            stride = max(1, g.m // 2048)
            _emit_checkpoint_csv(fh, cp.n, g.grid()[::stride], g.cdf[::stride], cp.law)
            records.append({"n": cp.n, "scale": cp.scale, "ks": cp.ks})
    payload = _base_summary(args, model)
    payload.update({"n": args.n, "grid": args.grid, "checkpoints": records})
    payload["diagnostics"] = asdict(cps[-1].diagnostics) if cps else None
    _write_json((args.out + ".json") if args.out else None, payload)
    return 0


def _cmd_serpar(args) -> int:
    def one(seed: int):
        g = serpar.build(args.n, args.p, seed)
        r_red, d_red = serpar.reduce_graph(g)
        if args.check_exact:
            return seed, r_red, serpar.resistance_exact(g), d_red, serpar.distance_exact(g)
        return seed, r_red, None, d_red, None

    seeds = range(args.seeds)
    workers = max(1, _threads(args))
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as ex:
            rows = list(ex.map(one, seeds))
    else:
        rows = [one(s) for s in seeds]

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
    payload = _base_summary(args)
    payload.update(
        {"p": args.p, "n": args.n, "seeds": args.seeds, "check_exact": bool(args.check_exact),
         "max_rel_resistance_error": max_rel_r, "distance_mismatches": dist_mismatch}
    )
    _write_json((args.out + ".json") if args.out else None, payload)
    return 0


def _cmd_lambda_check(args) -> int:
    model = parse_model(args.model)
    lo, hi = (int(s) for s in args.n_range.split(":"))
    c = args.c_star if args.c_star is not None else moments.c_star(model, args.tol)
    params = proofcheck.ProofParams(c_star=c, eta=args.eta, delta=args.delta, delta1=args.delta1)
    n0, history = proofcheck.find_n0(model, params, n_max=hi, n_min=lo, points=args.vgrid)
    with _csv_out(args, "n,min_residual,argmin_v") as fh:
        for rep in history:
            fh.write(f"{rep.n},{_fmt(rep.min_residual)},{_fmt(rep.argmin_v)}\n")
    payload = _base_summary(args, model)
    payload.update(
        {"n_range": [lo, hi], "vgrid": args.vgrid, "c_star": c, "n0_found": n0 is not None, "n0": n0,
         "rho": params.rho, "rho_tilde": params.rho_tilde, "kappa": params.kappa}
    )
    _write_json((args.out + ".json") if args.out else None, payload)
    return 0


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

    def common(sp, model=True):
        if model:
            sp.add_argument("--model", required=True, help="builtin name, shorthand, JSON literal, or JSON file")
        sp.add_argument("--tol", type=float, default=1e-9)
        sp.add_argument("--out", default=None, help="output path (stem for commands writing .csv/.json pairs)")
        sp.add_argument("--threads", type=int, default=None, help="worker threads (results are identical regardless)")

    sp = sub.add_parser("gamma", help="moment report for a model")
    common(sp)
    sp.add_argument("--a", type=float, default=None)
    sp.add_argument("--b", type=float, default=None)
    sp.add_argument("--eta", type=float, default=1.0)
    sp.set_defaults(fn=_cmd_gamma)

    sp = sub.add_parser("classify", help="criticality parameters and growth regime")
    common(sp)
    sp.set_defaults(fn=_cmd_classify)

    sp = sub.add_parser("simulate", help="pool Monte Carlo with rescaled-KS checkpoints")
    common(sp)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--pool", type=int, required=True)
    sp.add_argument("--seed", type=int, default=1)
    sp.add_argument("--checkpoints", required=True, help="comma-separated step counts")
    sp.add_argument("--init", type=float, default=0.0, help="initial log value")
    sp.add_argument("--grid", type=int, default=512, help="cells of the emitted empirical CDF")
    sp.add_argument("--law", choices=dist.LIMIT_LAWS, default=None)
    sp.add_argument("--scale-constant", dest="scale_constant", type=float, default=None)
    sp.add_argument("--exponent", type=float, default=None)
    sp.set_defaults(fn=_cmd_simulate)

    sp = sub.add_parser("evolve", help="exact grid evolution with rescaled-KS checkpoints")
    common(sp)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--grid", type=int, default=8192)
    sp.add_argument("--checkpoints", required=True)
    sp.add_argument("--init-width", dest="init_width", type=float, default=0.5, help="half-width of the uniform initial law")
    sp.set_defaults(fn=_cmd_evolve)

    sp = sub.add_parser("serpar", help="series-parallel growth with dual oracles")
    common(sp, model=False)
    sp.add_argument("--p", type=float, required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--seeds", type=int, required=True)
    sp.add_argument("--check-exact", dest="check_exact", action="store_true")
    sp.set_defaults(fn=_cmd_serpar)

    sp = sub.add_parser("lambda-check", help="scan the Lambda-condition residual over n")
    common(sp)
    sp.add_argument("--eta", type=float, default=1.0)
    sp.add_argument("--delta", type=float, default=0.5)
    sp.add_argument("--delta1", type=float, default=0.05)
    sp.add_argument("--n-range", dest="n_range", required=True, help="a:b")
    sp.add_argument("--vgrid", type=int, default=400)
    sp.add_argument("--c-star", dest="c_star", type=float, default=None)
    sp.set_defaults(fn=_cmd_lambda_check)

    sp = sub.add_parser("report", help="run the acceptance suite")
    sp.add_argument("--criteria", default=None, help="comma-separated criterion ids (default: all)")
    sp.add_argument("--out", default=None)
    sp.set_defaults(fn=_cmd_report)

    return p


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    args.argv = sys.argv[1:] if argv is None else list(argv)
    try:
        return args.fn(args)
    except (DomainError, DegenerateModelError) as exc:
        sys.stderr.write(f"validation error: {exc}\n")
        return 1
    except HomsysError as exc:
        sys.stderr.write(f"numerical error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
