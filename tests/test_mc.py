import numpy as np
import pytest

from homsys import DomainError, builtin
from homsys import mc
from homsys.models import apply_mixture, sample_indices


def _pool_after(model, seed, steps=4):
    pool = mc.new_pool(model, 0.0, 2000, seed)
    for _ in range(steps):
        pool = mc.pool_step(pool)
    return pool.values


@pytest.mark.parametrize("name", ["hipster", "resistance", "lazy_hipster"])
def test_same_seed_same_pool(name):
    model = builtin(name)
    assert np.array_equal(_pool_after(model, 5), _pool_after(model, 5))
    assert not np.array_equal(_pool_after(model, 5), _pool_after(model, 6))


@pytest.mark.parametrize("name", ["resistance", "distance", "hipster", "lazy_hipster", "power_mean"])
def test_mixture_matches_per_sample_loop(name):
    model = builtin(name)
    rng = np.random.default_rng(3)
    a, b = rng.normal(0.0, 2.0, 500), rng.normal(0.0, 2.0, 500)
    got = apply_mixture(model, np.random.default_rng(9), a, b)
    which = sample_indices(model, np.random.default_rng(9), a.size)
    want = np.array([model.functions[k].log_eval(x, y) for k, x, y in zip(which, a, b)])
    assert np.array_equal(got, want)


def test_pool_step_draws_parents_then_atoms():
    model = builtin("resistance")
    pool = mc.new_pool(model, 0.0, 1000, seed=2)
    pool.values[:] = np.linspace(-1.0, 1.0, 1000)
    rng = mc._gen(2, mc._STREAM_STEP, 1)
    idx = rng.integers(0, 1000, 2000)
    want = apply_mixture(model, rng, pool.values[idx[:1000]], pool.values[idx[1000:]])
    assert np.array_equal(mc.pool_step(pool).values, want)


def test_simulate_checkpoints_and_guards():
    out = mc.simulate(builtin("hipster"), 0.0, 4, 500, 1, (2, 4))
    assert [s.n for s in out] == [2, 4]
    assert all(s.law == "cubic" and 0.0 <= s.ks <= 1.0 for s in out)
    with pytest.raises(DomainError):
        mc.simulate(builtin("hipster"), 0.0, 4, 500, 1, (8,))
    with pytest.raises(DomainError):
        mc.new_pool(builtin("hipster"), 0.0, 1, 1)


@pytest.mark.parametrize("kind", ["symmetric", "lazy"])
def test_direct_walk_deterministic(kind):
    a = mc.hipster_direct(kind, 20, 1000, 4)
    assert np.array_equal(a, mc.hipster_direct(kind, 20, 1000, 4))
    if kind == "lazy":
        assert a.min() >= 0
