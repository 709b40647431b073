import numpy as np
import pytest

from homsys import DomainError, GridCDF, builtin
from homsys import evolve, mc
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
