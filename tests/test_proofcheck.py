import bisect
import dataclasses
import math

import numpy as np
import pytest

from homsys import DomainError, builtin, evolve, moments, parse_model
from homsys import hfun, proofcheck
from homsys.hfun import t_kinks, t_of, t_support_end

import kink_panel_lambda
import scalar_gauss_kronrod

PARAMS = proofcheck.ProofParams(c_star=4.5)


def test_closed_form_cdf_matches_quadrature():
    row = proofcheck.schedule(PARAMS, 1000)
    vs = np.linspace(-row.sigma_tilde - 1.0, row.sigma + 1.0, 25)
    for v in vs:
        assert proofcheck.psi_n_quadrature(row, float(v)) == pytest.approx(float(proofcheck.Psi_n(row, v)), abs=1e-10)
    assert proofcheck.Psi_n(row, 0.0) == 0.5


@pytest.mark.parametrize("n", [1000, 10**4, 10**5, 10**6])
def test_schedule_ordering_and_normalisation(n):
    r = proofcheck.schedule(PARAMS, n)
    assert r.sigma <= r.sigma_tilde < r.tau_tilde <= r.tau
    assert r.a_tilde * r.tau_tilde**2 == pytest.approx(r.a * r.tau**2, rel=1e-14)
    assert 0.0 < r.q < PARAMS.delta1 and r.beta > 0.0


def test_q_increment_matches_difference():
    n = 5000
    direct = proofcheck.schedule(PARAMS, n + 1).q - proofcheck.schedule(PARAMS, n).q
    assert proofcheck.q_increment(PARAMS, n) == pytest.approx(direct, rel=1e-6)


def test_parameter_intervals_checked():
    with pytest.raises(DomainError):
        proofcheck.ProofParams(c_star=4.5, delta1=0.1)
    with pytest.raises(DomainError):
        proofcheck.ProofParams(c_star=0.0)


@pytest.mark.parametrize("c", [math.inf, math.nan, -math.inf])
def test_a_c_star_that_is_not_finite_is_refused(c):
    with pytest.raises(DomainError, match="^c_star must be finite and positive$"):
        proofcheck.ProofParams(c_star=c)


@pytest.mark.parametrize("c", [1e308, 1e307])
def test_schedule_refuses_a_tau_that_overflows(c):
    # c* n overflows at n = 64 (1e308) or n + 1 = 65 (1e307): the row would hold NaNs
    with pytest.raises(DomainError, match="^tau = "):
        proofcheck.schedule(proofcheck.ProofParams(c_star=c), 64)
    row = proofcheck.schedule(proofcheck.ProofParams(c_star=c / 100), 64)
    assert all(math.isfinite(x) for x in dataclasses.astuple(row))


def test_find_n0_rejects_an_empty_range():
    with pytest.raises(DomainError):
        proofcheck.find_n0(builtin("hipster"), PARAMS, n_max=8, n_min=64)
    # so is a range whose every scanned n (1, 2, 4) has an infeasible schedule
    with pytest.raises(DomainError):
        proofcheck.find_n0(builtin("hipster"), PARAMS, n_max=4, n_min=1)


# -- the per-v scalar loop that the batched lambda_condition replaces -----------


def _scalar_lambda_operator(psi_fn, cdf_fn, f, v, support, psi_breaks):
    """The panel rule of evolve.lambda_operator, one v and one panel at a time."""
    eps = f.eps
    t_zero = t_support_end(f)
    lo, hi = support
    t_psi = (v - lo) if eps == +1 else (hi - v)
    if t_psi <= 0.0:
        return 0.0
    cv = cdf_fn(v)
    swap = f.swap()
    t_cut = t_psi if t_zero is None else min(t_zero, t_psi)
    breaks = sorted({lo, hi, *psi_breaks})
    cuts = {f.r, *t_kinks(f).tolist()}
    for k in breaks:
        tb = (v - k) if eps == +1 else (k - v)
        cuts.add(tb)
        if tb > 0.0:
            cuts.add(t_of(swap, tb))
    if t_zero is None:
        t_sat = t_of(swap, t_psi)
        top = min(f.r, 1.0)
        cuts.update(top * 0.5**j for j in range(1, hfun._MAX_HALVINGS + 1) if top * 0.5**j > t_sat)
    edges = sorted({0.0, t_cut} | {e for e in cuts if 0.0 < e < t_cut})
    spans = [(a, b) for a, b in zip(edges, edges[1:]) if b > a]
    bounds = [-math.inf, *breaks, math.inf]
    total = 0.0
    for a, b in spans:
        j = bisect.bisect_left(breaks, (v - 0.5 * (a + b)) if eps == +1 else (v + 0.5 * (a + b)))
        u_lo, u_hi = math.nextafter(bounds[j], math.inf), math.nextafter(bounds[j + 1], -math.inf)

        def integrand(t):
            tt = t_of(f, t)
            if eps == +1:
                return psi_fn(min(max(v - t, u_lo), u_hi)) * (cv - cdf_fn(v - tt))
            return psi_fn(min(max(v + t, u_lo), u_hi)) * (cdf_fn(v + tt) - cv)

        total += scalar_gauss_kronrod.integrate(integrand, a, b, evolve.LAMBDA_TOL / len(spans))
    return total if eps == +1 else -total


def _scalar_lambda_condition(model, params, n, v_grid):
    row = proofcheck.schedule(params, n)
    row1 = proofcheck.schedule(params, n + 1)
    q0, dq = row.q, proofcheck.q_increment(params, n)
    q1 = q0 + dq
    omq2 = (1.0 - q0) ** 2
    support = (-row.sigma_tilde, row.sigma)
    breaks = (-row.sigma_tilde, 0.0, row.sigma)
    psi_fn = lambda u: float(proofcheck.psi_n(row, u))
    cdf_fn = lambda u: float(proofcheck.Psi_n(row, u))
    res = np.empty_like(v_grid)
    for i, v in enumerate(v_grid):
        el = 0.0
        for w, f in model.atoms:
            el += w * _scalar_lambda_operator(psi_fn, cdf_fn, f, float(v), support, breaks)
        dpsi = float(proofcheck.delta_psi(params, row, row1, v))
        res[i] = el + (1.0 - q1) / omq2 * dpsi + dq / omq2 * (1.0 - float(proofcheck.Psi_n(row, v)))
    i = int(np.argmin(res))
    return proofcheck.LambdaConditionReport(n, float(res[i]), float(v_grid[i]), v_grid, res)


# two table profiles with wing slopes below 1, so T is continuous with a kink at every node level
TWO_TABLES = (
    '{"name":"two_tables","atoms":['
    '{"weight":0.5,"family":"table","eps":1,"grid":[-1,-0.75,-0.5,-0.25,0,0.25,0.5,0.75,1],'
    '"values":[0,0.15,0.35,0.5,0.6,0.45,0.3,0.12,0]},'
    '{"weight":0.5,"family":"table","eps":-1,"grid":[-1,-0.75,-0.5,-0.25,0,0.25,0.5,0.75,1],'
    '"values":[0,0.1,0.3,0.45,0.55,0.4,0.2,0.05,0]}]}'
)
# the eps=+1 atom's left wing has slope 1 on [-0.5, -0.25], inside the support: H is flat at 0.85 there,
# and T jumps down at t = 0.85
TABLE_JUMP = (
    '{"name":"table_jump","atoms":['
    '{"weight":0.5,"family":"table","eps":1,"grid":[-1,-0.75,-0.5,-0.25,0,0.25,0.5,0.75,1],'
    '"values":[0,0.1,0.35,0.6,0.7,0.5,0.3,0.1,0]},'
    '{"weight":0.5,"family":"table","eps":-1,"grid":[-1,-0.75,-0.5,-0.25,0,0.25,0.5,0.75,1],'
    '"values":[0,0.1,0.3,0.45,0.55,0.4,0.2,0.05,0]}]}'
)
SCANS = pytest.mark.parametrize(
    "name, points",
    [("hipster", 48), ("lazy_hipster", 48), ("resistance(0.5)", 6), ("distance(0.5)", 6), ("power_mean(0.3,-0.3)", 6),
     pytest.param(TWO_TABLES, 6, id="two_tables-6"), pytest.param(TABLE_JUMP, 6, id="table_jump-6")],
)


@SCANS
@pytest.mark.parametrize("n", [32, 512])
def test_batched_residuals_match_the_per_v_loop(name, points, n):
    model = parse_model(name)
    grid = proofcheck.default_v_grid(PARAMS, n, points)
    got = proofcheck.lambda_condition(model, PARAMS, n, grid)
    want = _scalar_lambda_condition(model, PARAMS, n, grid)
    # same nodes and accept decisions, so only last-ulp rounding differs (well under the 1e-12
    # quadrature tolerance, so that a changed panel split or tolerance share shows)
    np.testing.assert_allclose(got.residuals, want.residuals, rtol=0.0, atol=1e-15)
    assert got.argmin_v == want.argmin_v


@pytest.mark.parametrize("points, n_max", [(6, 1024), (40, 256)])
def test_find_n0_matches_the_per_v_loop(points, n_max, monkeypatch):
    model = builtin("hipster")
    got = proofcheck.find_n0(model, PARAMS, n_max=n_max, n_min=16, points=points)

    def scalar(model, params, n, v_grid=None, points=400):
        if v_grid is None:
            v_grid = proofcheck.default_v_grid(params, n, points)
        return _scalar_lambda_condition(model, params, n, v_grid)

    monkeypatch.setattr(proofcheck, "lambda_condition", scalar)
    want = proofcheck.find_n0(model, PARAMS, n_max=n_max, n_min=16, points=points)
    assert got[0] == want[0] and len(got[1]) == len(want[1])
    for a, b in zip(got[1], want[1]):
        assert a.n == b.n and a.argmin_v == b.argmin_v
        assert a.min_residual == pytest.approx(b.min_residual, abs=1e-13)


def test_find_n0_makes_one_schedule_row_per_n_it_reads(monkeypatch):
    calls = []
    schedule = proofcheck.schedule

    def counted(params, n):
        calls.append(n)
        return schedule(params, n)

    monkeypatch.setattr(proofcheck, "schedule", counted)
    _, history = proofcheck.find_n0(builtin("hipster"), PARAMS, n_max=1024, n_min=2, points=6)
    scanned = [rep.n for rep in history]
    assert scanned[0] == 8
    # n = 2 and 4 are infeasible at their first row; each scanned n reads rows n and n + 1 once
    assert calls == [2, 4] + [m for n in scanned for m in (n, n + 1)]
    # without a grid, lambda_condition builds the default one from the rows it reads
    calls.clear()
    rep = proofcheck.lambda_condition(builtin("hipster"), PARAMS, 64, points=6)
    assert calls == [64, 65]
    assert np.array_equal(rep.v_grid, proofcheck.default_v_grid(PARAMS, 64, 6))


@SCANS
@pytest.mark.parametrize("n", [32, 512])
def test_residuals_agree_with_the_kink_panel_rule(name, points, n, monkeypatch):
    # crossing edges and one-sided panel ends change how the integrals converge, not their values
    model = parse_model(name)
    grid = proofcheck.default_v_grid(PARAMS, n, points)
    got = proofcheck.lambda_condition(model, PARAMS, n, grid)
    monkeypatch.setattr(proofcheck, "lambda_operator", kink_panel_lambda.lambda_operator)
    want = proofcheck.lambda_condition(model, PARAMS, n, grid)
    np.testing.assert_allclose(got.residuals, want.residuals, rtol=0.0, atol=1e-10)
    assert got.argmin_v == want.argmin_v


@pytest.mark.parametrize(
    "name, n, points",
    [("hipster", 64, 400), ("hipster", 4096, 25), ("lazy_hipster", 64, 400), ("lazy_hipster", 4096, 25),
     ("resistance(0.5)", 4096, 4), ("resistance(0.5)", 64, 400), pytest.param(TWO_TABLES, 64, 60, id="two_tables-64-60"),
     pytest.param(TWO_TABLES, 512, 60, id="two_tables-512-60"), pytest.param(TABLE_JUMP, 64, 60, id="table_jump-64-60"),
     pytest.param(TABLE_JUMP, 512, 60, id="table_jump-512-60")],
)
def test_lambda_quadrature_stays_above_the_depth_limit(name, n, points, monkeypatch):
    # the integrand is called once per level, so a call that refines an interval 48 times (the
    # depth limit) calls it 49 times
    calls = []
    rule = evolve.integrate_intervals

    def counted(f, a, b, tol):
        count = [0]

        def g(t, k):
            count[0] += 1
            return f(t, k)

        out = rule(g, a, b, tol)
        calls.append(count[0])
        return out

    monkeypatch.setattr(evolve, "integrate_intervals", counted)
    model = parse_model(name)
    params = proofcheck.ProofParams(c_star=moments.c_star(model))
    proofcheck.lambda_condition(model, params, n, proofcheck.default_v_grid(params, n, points))
    assert calls and max(calls) - 1 < 48
    # the kinks and jumps of a table's T are panel edges, so its panels converge as fast
    if name in (TWO_TABLES, TABLE_JUMP):
        assert max(calls) <= 8
    # the softplus scan takes a handful of levels per atom (24 integrand calls in all under Simpson)
    if (name, n, points) == ("resistance(0.5)", 64, 400):
        assert sum(calls) <= 12

