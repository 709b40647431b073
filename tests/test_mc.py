import importlib
import inspect
import pkgutil
import threading
import tracemalloc

import numpy as np
import pytest

import homsys
from homsys import DomainError, HFunction, ModelSpec, builtin, ks, mc, models
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
def test_a_pool_step_given_its_draws_allocates_only_the_atoms_temporaries(name):
    """Peak traced allocation of a buffered pool_step handed its draws: the pool, the parents and each
    atom's result are written into buffers, so what is left is the atoms' block-sized max/min temporary
    (about N/2 floats for two even atoms; a step that allocated afresh peaked at 7 x 8N)."""
    N, model = 10_000, builtin(name)
    pool = np.random.default_rng(8).normal(0.0, 2.0, N)
    out, parents = np.empty(N), np.empty(2 * N)
    peaks = []
    tracemalloc.start()
    try:
        for n in range(1, 7):
            draws = mc._step_draws(model, 2, n, N)
            start = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            mc.pool_step(model, pool, 2, n, out, parents, draws)
            peaks.append(tracemalloc.get_traced_memory()[1] - start)
    finally:
        tracemalloc.stop()
    assert max(peaks) <= 0.6 * 8 * N, [p / (8 * N) for p in peaks]


@pytest.mark.parametrize("name", BUILTINS)
def test_simulate_holds_its_buffers_two_index_arrays_and_one_atom_temporary(name, monkeypatch):
    """Traced memory of a simulate run at its peak in each step, from before the call: the two pool
    arrays and the 2N parent buffer (4 x 8N), step k's 2N indices and step k + 1's, drawn meanwhile on
    the helper (2 x 2 x 8N), and one atom temporary; the last step draws nothing ahead, so it peaks
    one index array lower.  Checkpoints come after the last step, so no sorted copy is held; 16 KiB
    cover what does not grow with N (the helper thread, its executor and the Philox generators)."""
    N, model = 10_000, builtin(name)
    mc.simulate(model, 0.0, 6, N, 2, (6,))  # the scaling's moments are computed once, before tracing
    peaks = []
    step = mc.pool_step

    def measured(*args):
        tracemalloc.reset_peak()
        new = step(*args)
        peaks.append(tracemalloc.get_traced_memory()[1] - base)
        return new

    monkeypatch.setattr(mc, "pool_step", measured)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        mc.simulate(model, 0.0, 6, N, 2, (6,))
    finally:
        tracemalloc.stop()
    assert len(peaks) == 6
    ratios = [(p - (16 << 10)) / (8 * N) for p in peaks]
    assert max(ratios) <= 4 + 2 * 2 + 0.6, ratios
    assert ratios[-1] <= 4 + 2 + 0.6, ratios


def _public_functions():
    """Every public function defined in a homsys module, with the (owner, attribute) pairs that hold it."""
    modules = [homsys] + [importlib.import_module(f"homsys.{m.name}") for m in pkgutil.iter_modules(homsys.__path__)]
    out = {}
    for mod in modules:
        for name, fn in vars(mod).items():
            if not name.startswith("_") and inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                out[f"{mod.__name__}.{name}"] = [(m, a) for m in modules for a, v in vars(m).items() if v is fn]
    return out


def test_every_public_call_of_a_run_stays_on_the_calling_thread(monkeypatch):
    """simulate and hipster_direct make their draws on a helper thread, and nothing else there: every
    public homsys function (pool_step, the atoms' log_eval_finite, ks, ...) runs on the calling thread."""
    threads = {}

    def recorded(name, fn):
        def call(*args, **kwargs):
            threads.setdefault(name, set()).add(threading.get_ident())
            return fn(*args, **kwargs)
        return call

    for name, holders in _public_functions().items():
        wrapper = recorded(name, getattr(*holders[0]))
        for owner, attr in holders:
            monkeypatch.setattr(owner, attr, wrapper)
    monkeypatch.setattr(HFunction, "log_eval_finite", recorded("log_eval_finite", HFunction.log_eval_finite))
    for name in ("_step_draws", "_walk_draws"):
        monkeypatch.setattr(mc, name, recorded(name, getattr(mc, name)))
    mc.simulate(builtin("resistance"), 0.0, 5, 1000, 3, (2, 5))
    mc.hipster_direct(5, 1000, 3)
    main = threading.get_ident()
    drawn = threads.pop("_step_draws") | threads.pop("_walk_draws")
    assert main not in drawn
    assert {"homsys.mc.pool_step", "log_eval_finite", "homsys.dist.ks"} <= set(threads)
    assert all(idents == {main} for idents in threads.values()), threads


def test_a_run_leaves_no_thread_behind(monkeypatch):
    before = threading.active_count()
    mc.simulate(builtin("hipster"), 0.0, 4, 1000, 1, (4,))
    mc.hipster_direct(4, 1000, 1)
    assert threading.active_count() == before
    step = mc.pool_step

    def failing(*args):
        if args[3] == 3:
            raise RuntimeError("step 3")
        return step(*args)

    monkeypatch.setattr(mc, "pool_step", failing)
    with pytest.raises(RuntimeError, match="step 3"):
        mc.simulate(builtin("hipster"), 0.0, 6, 1000, 1, (6,))
    assert threading.active_count() == before


def test_a_failing_checkpoint_leaves_no_thread_behind(monkeypatch):
    # step 3's draws are on the helper when the checkpoint at step 2 fails: the run closes its steps
    before = threading.active_count()

    def failing(*args):
        raise RuntimeError("checkpoint")

    monkeypatch.setattr(models, "ks", failing)
    with pytest.raises(RuntimeError, match="checkpoint") as failed:
        mc.simulate(builtin("hipster"), 0.0, 6, 1000, 1, (2, 6))
    # the kept traceback holds the run's frames and so its steps: only closing them ends the helper
    assert failed.value.__traceback__ is not None and threading.active_count() == before


@pytest.mark.parametrize("N", [1000, 4097])
def test_direct_walk_gives_the_bits_of_the_fresh_array_walk(N):
    for seed in (4, 9):
        got = mc.hipster_direct(30, N, seed)
        assert got.dtype == np.int64
        assert np.array_equal(got, fresh_array_pool_step.hipster_direct(30, N, seed))
