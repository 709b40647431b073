import tracemalloc

import numpy as np
import pytest

from homsys import DomainError, ModelSpec, builtin, ks, mc
from homsys.hfun import F_MIN, F_SUM
from homsys.models import apply_mixture

import fresh_array_pool_step

BUILTINS = ["hipster", "resistance", "distance", "lazy_hipster", "power_mean"]


def _pool_after(model, seed, steps=4):
    pool = mc.new_pool(0.0, 2000)
    for n in range(1, steps + 1):
        pool = mc.pool_step(model, pool, seed, n)
    return pool


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
    pool = np.random.default_rng(5).normal(0.0, 1.5, N)
    new = mc.pool_step(model, pool, 4, 1)
    rng = np.random.default_rng(6)
    idx = rng.integers(0, N, 2 * N)
    old = _per_element_mixture(model, rng, pool[idx[:N]], pool[idx[N:]])
    assert ks(new, old) <= 3.0 * np.sqrt(2.0 / N)


def test_pool_step_draws_parents_then_atoms():
    model = builtin("resistance")
    pool = np.linspace(-1.0, 1.0, 1000)
    rng = mc._gen(2, mc._STREAM_STEP, 1)
    idx = rng.integers(0, 1000, 2000)
    want = apply_mixture(model, rng, pool[idx[:1000]], pool[idx[1000:]])
    assert np.array_equal(mc.pool_step(model, pool, 2, 1), want)


def test_simulate_checkpoints_and_guards():
    out = mc.simulate(builtin("hipster"), 0.0, 4, 500, 1, (2, 4))
    assert [s.n for s in out] == [2, 4]
    assert all(s.law == "cubic" and 0.0 <= s.ks <= 1.0 for s in out)
    with pytest.raises(DomainError):
        mc.simulate(builtin("hipster"), 0.0, 4, 500, 1, (8,))
    with pytest.raises(DomainError):
        mc.simulate(builtin("hipster"), 0.0, 4, 500, 1, (0, 2))
    with pytest.raises(DomainError):
        mc.simulate(builtin("hipster"), 0.0, 4, 1, 1, (2,))
    for init, N in ((0.0, 1), (np.nan, 500), (np.inf, 500)):
        with pytest.raises(DomainError):
            mc.new_pool(init, N)


def test_direct_walk_deterministic():
    a = mc.hipster_direct(20, 1000, 4)
    assert np.array_equal(a, mc.hipster_direct(20, 1000, 4))


@pytest.mark.parametrize("N", [1000, 4097])
@pytest.mark.parametrize("name", BUILTINS)
def test_simulate_gives_the_bits_of_the_fresh_array_step(name, N, monkeypatch):
    model, seed = builtin(name), 7
    pools = []
    step = mc.pool_step

    def recording(*args):
        new = step(*args)
        pools.append(new.copy())
        return new

    monkeypatch.setattr(mc, "pool_step", recording)
    out = mc.simulate(model, 0.0, 12, N, seed, (3, 8, 12))
    want = [np.zeros(N)]
    for n in range(12):
        want.append(fresh_array_pool_step.pool_step(want[-1], n, seed, model))
    assert len(pools) == 12
    for got, ref in zip(pools, want[1:]):
        assert np.array_equal(got.view(np.uint64), ref.view(np.uint64))
    # each checkpoint keeps its own sorted copy: later steps, which reuse the pool arrays, leave it be
    for s in out:
        assert np.all(np.diff(s.rescaled) >= 0.0)
        assert np.array_equal(s.rescaled.view(np.uint64), (np.sort(want[s.n]) / s.scale).view(np.uint64))


@pytest.mark.parametrize("name", BUILTINS)
def test_pool_step_reads_its_pool_and_writes_only_its_buffers(name):
    N = 3000
    model = builtin(name)
    pool = np.random.default_rng(8).normal(0.0, 2.0, N)
    before = pool.copy()
    fresh = mc.pool_step(model, pool, 3, 1)
    out, parents = np.full(N, np.nan), np.full(2 * N, np.nan)
    buffered = mc.pool_step(model, pool, 3, 1, out, parents)
    assert np.array_equal(pool, before)
    assert buffered is out and fresh is not pool
    assert np.array_equal(buffered.view(np.uint64), fresh.view(np.uint64))
    assert np.array_equal(fresh, fresh_array_pool_step.pool_step(before, 0, 3, model))


@pytest.mark.parametrize("name", BUILTINS)
def test_simulate_steps_allocate_little_beyond_the_parent_draw(name, monkeypatch):
    """Peak traced allocation of each step inside simulate: the 2N index array of the parent draw
    (2 x 8N bytes) is the one large allocation, since the pool, the parents and each atom's result
    are written into buffers (a step that allocated them afresh peaked at 7 x 8N)."""
    N = 10_000
    peaks = []
    step = mc.pool_step

    def measured(*args):
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        new = step(*args)
        peaks.append(tracemalloc.get_traced_memory()[1] - start)
        return new

    monkeypatch.setattr(mc, "pool_step", measured)
    tracemalloc.start()
    try:
        mc.simulate(builtin(name), 0.0, 6, N, 2, (3, 6))
    finally:
        tracemalloc.stop()
    assert len(peaks) == 6
    assert max(peaks[1:]) <= 2.1 * 8 * N, [p / (8 * N) for p in peaks]


@pytest.mark.parametrize("N", [1000, 4097])
def test_direct_walk_gives_the_bits_of_the_fresh_array_walk(N):
    for seed in (4, 9):
        got = mc.hipster_direct(30, N, seed)
        assert got.dtype == np.int64
        assert np.array_equal(got, fresh_array_pool_step.hipster_direct(30, N, seed))
