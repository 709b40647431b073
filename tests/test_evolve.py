import functools
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from homsys import ClampBudgetExceededError, DomainError, GridCDF, ModelSpec, RegridRequiredError, builtin, parse_model
from homsys import cli, evolve, mc, proofcheck
from homsys.dist import rescale
from homsys.hfun import HFunction, asym_tent, g_softplus, g_table, t_of
from homsys.models import resolve_scaling

import full_grid_step
import per_shift_filters
import signed_shift_step
from test_proofcheck import PARAMS, TWO_TABLES


def _uniform(m=512, width=0.5, pad=4.0):
    x = np.linspace(-width - pad, width + pad, m + 1)
    return GridCDF(x[0], x[-1], np.clip((x + width) / (2 * width), 0.0, 1.0))


@pytest.mark.parametrize("name", ["hipster", "resistance"])
def test_step_returns_valid_cdf(name):
    d = _uniform()
    out, diag = evolve.step_detailed(d, builtin(name))
    c = out.cdf
    assert c.shape == d.cdf.shape
    assert c[0] == 0.0 and c[-1] == 1.0
    assert np.all(np.diff(c) >= 0.0) and np.all((0.0 <= c) & (c <= 1.0))
    assert diag.end_defect < 1e-6 and diag.clamp_budget < 1e-6
    # one step spreads the law: the eps=+1 atoms push mass up, eps=-1 atoms down
    assert out(0.6) < 1.0 and out(-0.6) > 0.0


@pytest.mark.parametrize("name", ["hipster", "lazy_hipster"])
def test_run_and_simulate_resolve_the_same_scaling(name):
    model = builtin(name)
    law, const, expo = resolve_scaling(model)
    x = np.linspace(-0.5, 0.5, 257)
    init = GridCDF(-0.5, 0.5, np.clip(x + 0.5, 0.0, 1.0))
    (grid,) = evolve.run(init, model, 2, (2,), m=512)
    (pool,) = mc.simulate(model, 0.0, 2, 200, 1, (2,))
    assert grid.law == pool.law == law
    assert grid.scale == pool.scale == (const * 2) ** expo


def test_no_known_law_raises():
    model = builtin("distance", p=0.3)
    init = _uniform(m=64)
    with pytest.raises(DomainError):
        evolve.run(init, model, 2, (2,), m=256)
    with pytest.raises(DomainError):
        mc.simulate(model, 0.0, 2, 200, 1, (2,))
    # a malformed triple does not fall back to the cubic law
    with pytest.raises(DomainError):
        evolve.run(init, model, 2, (2,), m=256, scaling=("cubic", 1.0))
    (cp,) = evolve.run(init, model, 2, (2,), m=256, scaling=("cubic", 1.0, 0.5))
    assert cp.law == "cubic" and cp.scale == 2.0**0.5


def test_a_run_of_no_steps_raises():
    model = builtin("hipster")
    with pytest.raises(DomainError, match="need n >= 1, got 0"):
        evolve.run(_uniform(m=64), model, 0, (), m=256)
    with pytest.raises(DomainError, match="need n >= 1, got 0"):
        mc.simulate(model, 0.0, 0, 200, 1, ())


@pytest.mark.parametrize(
    "scaling",
    [
        ("cubic", 1.0),
        ["cubic", 1.0, 0.5],
        ("normal", 1.0, 0.5),
        ("cubic", -1.0, 0.5),
        ("cubic", 0.0, 0.5),
        ("cubic", math.inf, 0.5),
        ("cubic", math.nan, 0.5),
        ("cubic", "2", 0.5),
        ("cubic", 1.0, 0.0),
        ("cubic", 1.0, -0.5),
        ("cubic", 1.0, math.inf),
    ],
)
def test_malformed_scaling_raises(scaling):
    model = builtin("hipster")
    with pytest.raises(DomainError):
        resolve_scaling(model, scaling)
    with pytest.raises(DomainError):
        evolve.run(_uniform(m=64), model, 2, (2,), m=256, scaling=scaling)
    with pytest.raises(DomainError):
        mc.simulate(model, 0.0, 2, 200, 1, (2,), scaling)


@pytest.mark.parametrize("scaling", [("cubic", 1.0, 1e308), ("cubic", 1e-300, 2.0)])
def test_a_scale_that_overflows_or_underflows_raises_before_any_step(scaling, monkeypatch):
    # a valid triple whose (constant n)^exponent is inf, or 0, at n = 4; a step would raise TypeError
    model = builtin("hipster")
    monkeypatch.setattr(evolve, "step_detailed", None)
    monkeypatch.setattr(mc, "pool_step", None)
    with pytest.raises(DomainError):
        evolve.run(_uniform(m=64), model, 4, (4,), m=256, scaling=scaling)
    with pytest.raises(DomainError):
        mc.simulate(model, 0.0, 4, 200, 1, (4,), scaling)


def _unit_density(u):
    return np.where((-0.5 < u) & (u < 0.5), 1.0, 0.0)


def test_lambda_operator_sign_follows_eps():
    d = _uniform(m=256)
    plus, minus = (
        evolve.lambda_operator(_unit_density, d, f, 0.2, (-0.5, 0.5), (-0.5, 0.5))
        for f in builtin("hipster").functions
    )
    assert plus > 0.0 > minus


def test_lambda_operator_takes_an_array_of_v():
    d = _uniform(m=256)
    vs = np.array([-0.7, -0.2, 0.0, 0.3, 0.45])
    for f in builtin("hipster").functions:
        whole = evolve.lambda_operator(_unit_density, d, f, vs, (-0.5, 0.5), (-0.5, 0.5))
        one_by_one = [evolve.lambda_operator(_unit_density, d, f, v, (-0.5, 0.5), (-0.5, 0.5)) for v in vs]
        assert whole.shape == vs.shape
        np.testing.assert_array_equal(whole, np.array(one_by_one))
    # max/min atoms have no crossing correction; v below the support edge has nothing to integrate
    assert np.all(evolve.lambda_operator(_unit_density, d, builtin("distance").functions[1], vs, (-0.5, 0.5)) == 0.0)
    assert evolve.lambda_operator(_unit_density, d, builtin("hipster").functions[0], -0.7, (-0.5, 0.5)) == 0.0


def _panels(monkeypatch, f, v):
    """The integrand and panel ends that lambda_operator hands to integrate_intervals, for one v."""
    got = {}

    def capture(g, a, b, tol):
        got.update(g=g, a=a, b=b)
        return np.zeros_like(a)

    monkeypatch.setattr(evolve, "integrate_intervals", capture)
    unit_cdf = lambda u: np.clip(np.asarray(u, dtype=float) + 0.5, 0.0, 1.0)
    evolve.lambda_operator(_unit_density, unit_cdf, f, v, (-0.5, 0.5), (-0.5, 0.5))
    return got["g"], got["a"], got["b"]


def test_lambda_panel_ends_are_limits_from_inside(monkeypatch):
    # the quadrature never reads t = 0 (t_of rejects it); toward 0 a softplus T diverges, so C(v - T) -> 0,
    # and at the smallest float T = 7.4 puts v - T below the support
    g, a, _ = _panels(monkeypatch, HFunction(+1, g_softplus(0.01)), 0.3)
    tiny = np.nextafter(0.0, 1.0)
    assert a[0] == 0.0 and g(np.array([tiny]), np.array([0]))[0] == pytest.approx(0.8, abs=1e-15)
    # hipster+ at v = 0.3 has the one panel [0, 0.8]; at its end the density is read just inside
    # its jump at -0.5, whichever side 0.3 - 0.8 rounds to
    g, a, b = _panels(monkeypatch, builtin("hipster").functions[0], 0.3)
    assert (a.tolist(), b.tolist()) == ([0.0], [0.3 + 0.5])
    assert g(np.array([tiny, b[0]]), np.array([0, 0])) == pytest.approx([0.8, 0.8], abs=1e-15)


@pytest.mark.parametrize("support", [(-math.inf, math.inf), (-0.5, math.inf), (0.5, -0.5), (math.nan, 0.5)])
def test_lambda_operator_needs_a_finite_support(support):
    psi = lambda u: np.exp(-0.5 * u * u) / math.sqrt(2.0 * math.pi)
    cdf = lambda u: 0.5 * (1.0 + np.vectorize(math.erf)(np.asarray(u) / math.sqrt(2.0)))
    with pytest.raises(DomainError):
        evolve.lambda_operator(psi, cdf, builtin("resistance").functions[0], 0.3, support)


# -- the per-cell product-rule loop that step_detailed's filters replace --------


def _int_shift(arr, k, left, right):
    n = arr.size
    out = np.empty(n)
    if k >= n:
        out[:] = left
    elif k <= -n:
        out[:] = right
    elif k >= 0:
        out[:k] = left
        out[k:] = arr[: n - k]
    else:
        out[n + k :] = right
        out[: n + k] = arr[-k:]
    return out


def _sample_shifted(arr, shift_cells, left, right):
    k = math.floor(shift_cells)
    phi = shift_cells - k
    a = _int_shift(arr, k, left, right)
    if phi == 0.0:
        return a
    b = _int_shift(arr, k + 1, left, right)
    return (1.0 - phi) * a + phi * b


def _per_cell_step(d, model):
    """One step summing the product rule cell by cell, before the monotone clamp."""
    c, h = d.cdf, d.h
    out = np.zeros_like(c)
    for w, f in model.atoms:
        branch = c * c if f.eps == +1 else 2.0 * c - c * c
        edges = evolve._atom_t_cells(f, h, d.hi - d.lo)
        if edges is not None:
            lam = np.zeros_like(c)
            sign = float(f.eps)
            prev = _sample_shifted(c, sign * edges[0] / h, 0.0, 1.0)
            for t0, t1 in zip(edges, edges[1:]):
                nxt = _sample_shifted(c, sign * t1 / h, 0.0, 1.0)
                tt = t_of(f, max(0.5 * (t0 + t1), 1e-12))
                lam += (prev - nxt) * (c - _sample_shifted(c, sign * tt / h, 0.0, 1.0))
                prev = nxt
            branch = branch - sign * lam
        out += w * branch
    return out


_TABLE = g_table(np.linspace(-1.0, 1.0, 5), [0.0, 0.4, 0.7, 0.3, 0.0])
KERNEL_MODELS = {
    "hipster": builtin("hipster"),
    "lazy_hipster": builtin("lazy_hipster"),
    "resistance(0.5)": builtin("resistance", p=0.5),
    "distance(0.5)": builtin("distance", p=0.5),
    "power_mean(0.3,-0.3)": parse_model("power_mean(0.3,-0.3)"),
    "tent(eps=-1)": ModelSpec(((0.5, asym_tent(0.5, 1.0, eps=-1)), (0.5, asym_tent(1.0, 0.25, eps=+1))), "tents"),
    "table": ModelSpec(((0.5, HFunction(-1, _TABLE)), (0.5, HFunction(+1, _TABLE))), "table"),
}


@pytest.mark.parametrize("name", KERNEL_MODELS)
def test_grouped_filters_match_the_per_cell_sum(name):
    model = KERNEL_MODELS[name]
    d = evolve.step_detailed(_uniform(m=1024), model)[0]  # a law with curvature, not a ramp
    new = evolve.step_detailed(d, model)[0].cdf
    old = np.maximum.accumulate(np.clip(_per_cell_step(d, model), 0.0, 1.0))
    old[-1] = 1.0
    old[0] = 0.0 if old[0] < 1e-9 else old[0]
    assert np.max(np.abs(new - old)) <= 1e-12


def _smooth_law(lo, hi, m, left_tail=False, right_tail=False):
    """A smoothstep CDF on [-0.5, 0.5] over [lo, hi]; a tail keeps it 1e-13 off 0 (resp. 1) up to the end row."""
    x = np.linspace(lo, hi, m + 1)
    u = np.clip(x + 0.5, 0.0, 1.0)
    c = u * u * (3.0 - 2.0 * u)
    if left_tail:
        c[1:] = np.maximum(c[1:], 1e-13)
    if right_tail:
        c[:-1] = np.minimum(c[:-1], 1.0 - 1e-13)
    return GridCDF(lo, hi, c)


def _normal_law(half, m):
    """A normal CDF whose end values are 3e-16 off 0 and 1: no row is exactly 0 or 1."""
    x = np.linspace(-half, half, m + 1)
    return GridCDF(-half, half, 0.5 * np.vectorize(math.erfc)(-x / (half / 8.1) / math.sqrt(2.0)))


@functools.cache
def _run_laws(name: str, n: int, m: int) -> tuple[GridCDF, ...]:
    """The laws that run hands to steps 1..n, from the initial law of `homsys evolve`."""
    x = np.linspace(-0.5, 0.5, 257)
    seen = []
    step_detailed = evolve.step_detailed

    def spy(d, model, buffers=None):
        seen.append(d)
        return step_detailed(d, model, buffers)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(evolve, "step_detailed", spy)
        evolve.run(GridCDF(-0.5, 0.5, np.clip(x + 0.5, 0.0, 1.0)), KERNEL_MODELS[name], n, (n,), m=m)
    return tuple(seen)


# the two runs of the grid_evolve benchmark workload
GRID_EVOLVE_RUNS = {
    "hipster n=100 M=4096": ("hipster", 100, 4096),
    "resistance(0.5) n=30 M=2048": ("resistance(0.5)", 30, 2048),
}

WINDOW_LAWS = {
    # positive shifts read past the last row: their windows are clipped at the right end
    "right_tail": lambda: _smooth_law(-1.6, 1.6, 1024, right_tail=True),
    # the negative shifts of the eps = -1 atoms are clipped at row 0
    "left_tail": lambda: _smooth_law(-1.6, 1.6, 1024, left_tail=True),
    # no exact 0/1 tail: every window is the whole grid
    "no_exact_tail": lambda: _normal_law(10.0, 1024),
    # a law run evolves, on run's domain: windows far inside the grid
    "resistance_step_30": lambda: _run_laws("resistance(0.5)", 30, 2048)[29],
}


@pytest.mark.parametrize("law", WINDOW_LAWS)
@pytest.mark.parametrize("name", KERNEL_MODELS)
def test_windowed_step_matches_the_full_grid_loop(name, law):
    model, d = KERNEL_MODELS[name], WINDOW_LAWS[law]()
    filters = evolve.grid_filters(model, d.h, d.hi - d.lo)
    want = full_grid_step.step(d.cdf, model, full_grid_step.dense(filters))
    # with the zero taps kept, the window changes no bit
    got, _ = evolve.step_detailed(d, model, evolve.StepBuffers(model, full_grid_step.dense(filters), d.m + 1))
    assert np.array_equal(got.cdf, want)
    if law == "no_exact_tail":
        assert d.cdf[0] != 0.0 and d.cdf[-1] != 1.0
    # the split sums each shift's filter in pieces
    got, _ = evolve.step_detailed(d, model)
    assert np.max(np.abs(got.cdf - want)) <= 1e-15


@pytest.mark.parametrize(
    "name, law, monotone",
    [("resistance(0.5)", _uniform, False), ("hipster", WINDOW_LAWS["no_exact_tail"], True)],
)
def test_clamp_matches_the_full_grid_loop(name, law, monotone):
    # one step from a ramp decreases somewhere before the clamp; from a smooth law it does not
    model, d = KERNEL_MODELS[name], law()
    filters = full_grid_step.dense(evolve.grid_filters(model, d.h, d.hi - d.lo))
    raw = full_grid_step.raw(d.cdf, model, filters)
    gap = np.maximum.accumulate(raw) - raw
    got, diag = evolve.step_detailed(d, model, evolve.StepBuffers(model, filters, d.m + 1))
    assert np.array_equal(got.cdf, full_grid_step.step(d.cdf, model, filters))
    assert diag.max_monotonicity_defect == float(np.max(gap))
    assert diag.clamp_budget == float(np.sum(gap) * d.h)
    assert (diag.max_monotonicity_defect == 0.0) == monotone
    assert all(type(v) is float for v in (diag.clamp_budget, diag.max_monotonicity_defect, diag.end_defect))


def _domain(key: str) -> tuple[float, float]:
    """Grid spacing h and span of a filter domain: 24 wide with M=2048, or a benchmark run's own."""
    if key == "24/2048":
        return 24.0 / 2048, 24.0
    d = _run_laws(*GRID_EVOLVE_RUNS[key])[0]
    return d.h, d.hi - d.lo


@pytest.mark.parametrize("domain", ["24/2048", *GRID_EVOLVE_RUNS])
@pytest.mark.parametrize("name", KERNEL_MODELS)
def test_one_pass_filters_match_the_per_shift_build(name, domain):
    model = KERNEL_MODELS[name]
    h, span = _domain(domain)
    for fl, (_, f) in zip(evolve.grid_filters(model, h, span), model.atoms):
        want = per_shift_filters.shift_filters(f, h, span)
        if want is None:
            assert fl is None
            continue
        for key in ("t_cells", "groups", "taps", "shifts", "reach"):
            assert getattr(fl, key) == getattr(want, key), key
        assert len(fl.runs) == len(want.runs)
        for got_runs, want_runs in zip(fl.runs, want.runs):
            assert [(lo, hi) for lo, hi, _ in got_runs] == [(lo, hi) for lo, hi, _ in want_runs]
            for (_, _, kernel), (_, _, want_kernel) in zip(got_runs, want_runs):
                assert kernel.flags.c_contiguous and kernel.tobytes() == want_kernel.tobytes()


@pytest.mark.parametrize("name", KERNEL_MODELS)
def test_split_filters_keep_only_the_nonzero_taps(name):
    model = KERNEL_MODELS[name]
    filters = evolve.grid_filters(model, 24.0 / 2048, 24.0)
    for fl, whole in zip(filters, full_grid_step.dense(filters)):
        if fl is None:
            continue
        runs = [t for pieces in fl.runs for _, _, t in pieces]
        assert all(np.all(t != 0.0) for t in runs) and fl.taps == sum(t.size for t in runs)
        assert fl.taps == sum(np.count_nonzero(w) for ((_, _, w),) in whole.runs)
        if name == "hipster":  # T is constant on its one cell group, so the group's edge terms telescope
            assert fl.taps <= 3 * len(fl.shifts) < whole.taps / 20
        if name == "resistance(0.5)":  # a softplus T moves on every cell: no zero taps, one run per shift
            assert fl.taps == whole.taps and all(len(pieces) == 1 for pieces in fl.runs)


def _run_steps(model, n: int, m: int, step) -> None:
    """Run `model` for n steps on an M = m grid from the initial law of `homsys evolve`, with every
    call of evolve.step_detailed going through step(step_detailed, *args)."""
    x = np.linspace(-0.5, 0.5, 257)
    step_detailed = evolve.step_detailed
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(evolve, "step_detailed", lambda *args: step(step_detailed, *args))
        # tents have no known constant; any valid scaling runs their steps
        evolve.run(GridCDF(-0.5, 0.5, np.clip(x + 0.5, 0.0, 1.0)), model, n, (n,), m=m, scaling=("cubic", 1.0, 0.5))


@pytest.mark.parametrize("name", KERNEL_MODELS)
def test_run_steps_in_its_buffers_with_the_bits_of_a_lone_step(name):
    model, seen = KERNEL_MODELS[name], []

    def step(step_detailed, d, *args):
        before = d.cdf.copy()
        new, diag = step_detailed(d, *args)
        assert np.array_equal(d.cdf.view(np.uint64), before.view(np.uint64))  # the caller's law is only read
        assert not any(np.shares_memory(new.cdf, old.cdf) for old in [d, *(law for law, _ in seen)])  # a new array
        seen.append((new, diag))
        lone, lone_diag = step_detailed(d, model)
        assert np.array_equal(new.cdf.view(np.uint64), lone.cdf.view(np.uint64))
        assert diag == lone_diag
        return new, diag

    _run_steps(model, 12, 1024, step)
    assert len(seen) == 12


def test_step_buffers_must_fit_the_grid_and_the_filters():
    model = KERNEL_MODELS["hipster"]
    d = _uniform(m=512)
    filters = evolve.grid_filters(model, d.h, d.hi - d.lo)
    buffers = evolve.StepBuffers(model, filters, d.m + 1)
    assert evolve.step_detailed(d, model, buffers)[0].cdf.tobytes() == evolve.step_detailed(d, model)[0].cdf.tobytes()
    with pytest.raises(DomainError):
        evolve.step_detailed(d, model, evolve.StepBuffers(model, filters, d.m))
    with pytest.raises(DomainError):  # another model lays out other rows
        evolve.step_detailed(d, KERNEL_MODELS["lazy_hipster"], buffers)


@pytest.mark.parametrize("name", KERNEL_MODELS)
def test_run_steps_allocate_little_beyond_the_new_law(name):
    """Peak traced allocation of each step inside run, in units of the 8(M+1) bytes of one grid row.
    The returned law and GridCDF's nondecreasing check on it (np.diff and its boolean row) are two
    rows and an eighth, and the boolean rows of the window searches another eighth; the shift loop
    holds a shift's stacked correlation and the one of its next run, and drops them before the new
    law is made.  Measured: 2.23 to 2.35 rows over these runs.  A step that allocated its padded CDF,
    branches and scratch rows afresh peaked at 9.4 to 11.7 rows, one that wrote its mixture into a
    scratch row and copied it out at 2.4 to 2.8, and one that kept its last stacked correlation
    alive, or made a second law for the clamp, at 2.5 to 3.9."""
    M, peaks = 2048, []

    def step(step_detailed, *args):
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        new = step_detailed(*args)
        peaks.append(tracemalloc.get_traced_memory()[1] - start)
        return new

    tracemalloc.start()
    try:
        _run_steps(KERNEL_MODELS[name], 6, M, step)
    finally:
        tracemalloc.stop()
    assert len(peaks) == 6
    assert max(peaks) <= 2.4 * 8 * (M + 1), [p / (8 * (M + 1)) for p in peaks]


SIGNED_MODELS = {**KERNEL_MODELS, "two_tables": parse_model(TWO_TABLES)}
MINUS_ATOMS = [(name, i) for name, model in SIGNED_MODELS.items() for i, (_, f) in enumerate(model.atoms) if f.eps == -1]


@pytest.mark.parametrize("name, i", MINUS_ATOMS, ids=[f"{name}-{i}" for name, i in MINUS_ATOMS])
def test_an_eps_minus_1_atom_is_its_star_on_the_mirrored_law(name, i):
    """Lambda_F(v; psi, C) = -Lambda_{F*}(-v; psi(-.), 1 - C(-.)) on proofcheck's asymmetric psi_n: the
    sign eps of lambda_operator checked against the mirror image that defines it, not against an
    oracle sharing its sign convention."""
    f = SIGNED_MODELS[name].atoms[i][1]
    row = proofcheck.schedule(PARAMS, 512)
    support, breaks = (-row.sigma_tilde, row.sigma), (-row.sigma_tilde, 0.0, row.sigma)
    vs = proofcheck.default_v_grid(PARAMS, 512, 41)
    got = evolve.lambda_operator(lambda u: proofcheck.psi_n(row, u), lambda u: proofcheck.Psi_n(row, u),
                                 f, vs, support, breaks)
    mirrored = evolve.lambda_operator(lambda u: proofcheck.psi_n(row, -u), lambda u: 1.0 - proofcheck.Psi_n(row, -u),
                                      f.star(), -vs, (-support[1], -support[0]), tuple(-k for k in breaks))
    assert np.max(np.abs(got + mirrored)) <= 1e-13
    # a min atom has no crossing correction; every other eps = -1 atom lowers the law somewhere
    assert np.all(got <= 0.0) and np.any(got < 0.0) == (f.r > 0.0)


@pytest.mark.parametrize("m", [1024, 2048])
@pytest.mark.parametrize("name", SIGNED_MODELS)
def test_star_filters_match_the_signed_shift_step(name, m):
    """Each of 10 steps from the uniform start of `homsys evolve` against the step whose eps = -1 atoms
    filter the CDF itself with negative shifts: the reversed row sums those atoms' shifts in the
    other order, and moves nothing else."""
    model, worst = SIGNED_MODELS[name], []

    def step(step_detailed, d, *args):
        new, diag = step_detailed(d, *args)
        want = signed_shift_step.step(d, model)
        if name in ("hipster", "lazy_hipster", "distance(0.5)"):
            assert np.array_equal(new.cdf.view(np.uint64), want.view(np.uint64))
        worst.append(float(np.max(np.abs(new.cdf - want))))
        return new, diag

    _run_steps(model, 10, m, step)
    assert len(worst) == 10 and max(worst) <= 1e-15, worst


@pytest.mark.parametrize("name", SIGNED_MODELS)
def test_filters_have_positive_shifts_and_mirror_atoms_share_one_set(name):
    model = SIGNED_MODELS[name]
    filters = evolve.grid_filters(model, 24.0 / 2048, 24.0)
    for fl in filters:
        if fl is not None:
            assert min(fl.shifts) > 0 and list(fl.shifts) == sorted(fl.shifts)
            assert min(lo for pieces in fl.runs for lo, _, _ in pieces) >= 0  # no tap reads past its row
    stars = [f.star() for _, f in model.atoms]
    for i, j in itertools.combinations(range(len(filters)), 2):
        assert (filters[i] is filters[j]) == (stars[i] == stars[j] and filters[i] is not None)
    mirrored = name in ("hipster", "resistance(0.5)", "power_mean(0.3,-0.3)")
    assert (filters[0] is filters[1]) == mirrored
    buffers = evolve.StepBuffers(model, filters, 2049)
    assert len(buffers.sets) == (1 if mirrored else len({id(fl) for fl in filters if fl is not None}))
    assert [s.stacked for s in buffers.sets] == ([True] if mirrored else [False] * len(buffers.sets))


def test_run_with_prebuilt_filters_equals_repeated_steps():
    model = builtin("resistance", p=0.5)
    init = _uniform(m=512, pad=20.0)  # wider than run's domain, so run keeps this grid
    (cp,) = evolve.run(init, model, 3, (3,), m=512)
    d, budget = init, 0.0
    for _ in range(3):
        d, diag = evolve.step_detailed(d, model)
        budget += diag.clamp_budget
    stepped = rescale(d, cp.scale)
    assert (stepped.lo, stepped.hi) == (cp.rescaled.lo, cp.rescaled.hi)
    assert np.array_equal(stepped.cdf, cp.rescaled.cdf)
    filters = evolve.grid_filters(model, d.h, d.hi - d.lo)
    assert cp.diagnostics.t_cells == tuple(f.t_cells for f in filters)
    assert cp.diagnostics.groups == tuple(f.groups for f in filters)
    assert cp.diagnostics.taps == tuple(f.taps for f in filters)
    assert cp.diagnostics.clamp_budget == budget


def test_a_law_that_fills_its_grid_must_be_regridded():
    # a ramp over all of [-1, 1]: resistance(0.5)'s margins of log 2 on each side leave the grid
    x = np.linspace(-1.0, 1.0, 257)
    with pytest.raises(RegridRequiredError, match="exceeds the allocated domain"):
        evolve.step_detailed(GridCDF(-1.0, 1.0, (x + 1.0) / 2.0), builtin("resistance", p=0.5))


@pytest.mark.parametrize("name, r", [("hipster", 1.0), ("resistance", math.log(2.0))])
def test_a_point_mass_steps_to_its_two_branches(name, r):
    # a 0/1 step law has no row strictly inside (0, 1), so its support is the row of its jump; from X = 1
    # the eps = +1 atoms give e^r and the eps = -1 atoms e^-r, each with probability 1/2
    model = builtin(name)
    x = np.linspace(-12.0, 12.0, 2049)
    d = GridCDF(-12.0, 12.0, (x >= 0.0).astype(float))
    new, diag = evolve.step_detailed(d, model)
    dense = full_grid_step.dense(evolve.grid_filters(model, d.h, d.hi - d.lo))
    assert np.array_equal(new.cdf, full_grid_step.step(d.cdf, model, dense))
    assert new(-r - 0.1) == 0.0 and new(r + 0.1) == 1.0
    assert all(abs(new(v) - 0.5) <= 1e-15 for v in (-r + 0.1, 0.0, r - 0.1))
    assert diag.end_defect == 0.0 and diag.clamp_budget < 1e-15


def test_a_run_past_its_clamp_budget_stops_and_the_cli_exits_2(monkeypatch, capsys):
    # one step of resistance(0.5) from a ramp decreases somewhere before the clamp: a budget of 0 is spent
    monkeypatch.setattr(evolve, "CLAMP_ABORT_BUDGET", 0.0)
    with pytest.raises(ClampBudgetExceededError, match="accumulated clamp budget"):
        evolve.run(_uniform(m=512), builtin("resistance", p=0.5), 2, (2,), m=512)
    argv = ["evolve", "--model", "resistance(0.5)", "--n", "2", "--grid", "512", "--checkpoints", "2"]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert "numerical error: accumulated clamp budget" in captured.err and not captured.out
