import numpy as np
import pytest

from homsys import DomainError, ModelSpec, builtin, ks, mc
from homsys.hfun import F_MIN, F_SUM
from homsys.models import apply_mixture


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


def _model(name):
    if name == "distance(1)":  # a single atom
        return builtin("distance", p=1.0)
    if name == "weight_above_1":  # valid: the weights sum to 1 within ModelSpec's tolerance
        return ModelSpec(((1.0 + 4e-13, F_SUM), (4e-13, F_MIN)), name)
    return builtin(name)


@pytest.mark.parametrize(
    "name", ["resistance", "distance", "hipster", "lazy_hipster", "power_mean", "distance(1)", "weight_above_1"]
)
def test_mixture_matches_per_sample_loop(name):
    model = _model(name)
    rng = np.random.default_rng(3)
    a, b = rng.normal(0.0, 2.0, 500), rng.normal(0.0, 2.0, 500)
    got = apply_mixture(model, np.random.default_rng(9), a, b)
    counts = np.random.default_rng(9).multinomial(a.size, model.weights / model.weights.sum())
    assert counts.sum() == a.size
    which = np.repeat(np.arange(len(model.atoms)), counts)
    want = np.array([model.functions[k].log_eval(x, y) for k, x, y in zip(which, a, b)])
    assert np.array_equal(got, want)


def _per_element_mixture(model, rng, a, b):
    """Reference sampler: an independent atom drawn per element."""
    cum = np.cumsum(model.weights)
    cum[-1] = 1.0
    which = np.searchsorted(cum, rng.random(a.size), side="right")
    out = np.empty(a.size)
    for k, f in enumerate(model.functions):
        mask = which == k
        out[mask] = f.log_eval_finite(a[mask], b[mask])
    return out


@pytest.mark.parametrize("name", ["hipster", "resistance"])
def test_block_counts_keep_the_law_of_a_pool_step(name):
    N = 100_000
    model = builtin(name)
    pool = mc.new_pool(model, 0.0, N, seed=4)
    pool.values[:] = np.random.default_rng(5).normal(0.0, 1.5, N)
    new = mc.pool_step(pool).values
    rng = np.random.default_rng(6)
    idx = rng.integers(0, N, 2 * N)
    old = _per_element_mixture(model, rng, pool.values[idx[:N]], pool.values[idx[N:]])
    assert ks(new, old) <= 3.0 * np.sqrt(2.0 / N)


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
        mc.simulate(builtin("hipster"), 0.0, 4, 500, 1, (0, 2))
    with pytest.raises(DomainError):
        mc.new_pool(builtin("hipster"), 0.0, 1, 1)


def test_direct_walk_deterministic():
    a = mc.hipster_direct(20, 1000, 4)
    assert np.array_equal(a, mc.hipster_direct(20, 1000, 4))
