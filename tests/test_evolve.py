import math

import numpy as np
import pytest

from homsys import DomainError, GridCDF, ModelSpec, builtin, parse_model
from homsys import evolve, mc
from homsys.dist import rescale
from homsys.hfun import asym_tent, from_g, g_table, t_of
from homsys.models import resolve_scaling


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
    # a partial override does not fall back to the cubic law
    with pytest.raises(DomainError):
        evolve.run(init, model, 2, (2,), m=256, law="cubic", scale_constant=1.0)
    (cp,) = evolve.run(init, model, 2, (2,), m=256, law="cubic", scale_constant=1.0, exponent=0.5)
    assert cp.law == "cubic" and cp.scale == 2.0**0.5


def _unit_density(u):
    return 1.0 if -0.5 < u < 0.5 else 0.0


def test_lambda_operator_sign_follows_eps():
    d = _uniform(m=256)
    plus, minus = (
        evolve.lambda_operator(_unit_density, d, f, 0.2, 1e-9, (-0.5, 0.5), (-0.5, 0.5))
        for f in builtin("hipster").functions
    )
    assert plus > 0.0 > minus


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


def _per_cell_step(d, model, tol=1e-9):
    """One step summing the product rule cell by cell, before the monotone clamp."""
    c, h = d.cdf, d.h
    root_tol = min(1e-12, tol / 100.0)
    out = np.zeros_like(c)
    for w, f in model.atoms:
        branch = c * c if f.eps == +1 else 2.0 * c - c * c
        edges = evolve._atom_t_cells(f, h, d.hi - d.lo, root_tol)
        if edges is not None:
            lam = np.zeros_like(c)
            sign = float(f.eps)
            prev = _sample_shifted(c, sign * edges[0] / h, 0.0, 1.0)
            for t0, t1 in zip(edges, edges[1:]):
                nxt = _sample_shifted(c, sign * t1 / h, 0.0, 1.0)
                tt = t_of(f, max(0.5 * (t0 + t1), 1e-12), root_tol)
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
    "table": ModelSpec(((0.5, from_g(_TABLE, -1)), (0.5, from_g(_TABLE, +1))), "table"),
}


@pytest.mark.parametrize("name", KERNEL_MODELS)
def test_grouped_filters_match_the_per_cell_sum(name):
    model = KERNEL_MODELS[name]
    d = evolve.step(_uniform(m=1024), model)  # a law with curvature, not a ramp
    new = evolve.step_detailed(d, model)[0].cdf
    old = np.maximum.accumulate(np.clip(_per_cell_step(d, model), 0.0, 1.0))
    old[-1] = 1.0
    old[0] = 0.0 if old[0] < 1e-9 else old[0]
    assert np.max(np.abs(new - old)) <= 1e-12


def test_run_with_prebuilt_filters_equals_repeated_steps():
    model = builtin("resistance", p=0.5)
    init = _uniform(m=512, pad=20.0)  # wider than run's domain, so run keeps this grid
    (cp,) = evolve.run(init, model, 3, (3,), m=512)
    d, budget = init, 0.0
    for _ in range(3):
        d, diag = evolve.step_detailed(d, model)
        budget += diag.clamp_budget
    stepped = rescale(d, cp.scale)
    assert (stepped.lo, stepped.hi) == (cp.dist.lo, cp.dist.hi)
    assert np.array_equal(stepped.cdf, cp.dist.cdf)
    filters = evolve.grid_filters(model, d.h, d.hi - d.lo)
    assert cp.diagnostics.t_cells == tuple(f.t_cells for f in filters)
    assert cp.diagnostics.groups == tuple(f.groups for f in filters)
    assert cp.diagnostics.clamp_budget == budget
