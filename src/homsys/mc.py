"""Pool Monte Carlo for the distributional recursion, plus the literal
integer-lattice walks used for cross-validation.

A pool step draws 2N parents uniformly from the pool, then the atom counts
of the mixture as one multinomial draw, and applies atom k to the k-th
contiguous block of parent pairs.  The pool is exchangeable (every step
resamples it uniformly), so only the multiset of children matters, and it
has the law it would have with an independent atom drawn per child.

Reproducibility contract: every random draw comes from a Philox generator
keyed by (seed, stream, step), and each step's draws are made in one fixed
vectorized sequence: a pool step's 2N parent indices, then its atom counts
(`_step_draws`); a walk step's 2N indices, then its N tie bits
(`_walk_draws`).  No draw depends on the pool, so `simulate` and
`hipster_direct` make step k + 1's draws on one helper thread while the
calling thread runs step k (numpy fills the arrays without the GIL).  Which
thread makes a draw, and when, cannot change a stream, and identical (seed,
model, n, N) produce bit-identical pools.  The helper (`_Ahead`, a bare
`threading.Thread`) lives for one call, and calls only the private draw
helpers and numpy; every public function, `pool_step` and the atoms
included, runs on the calling thread.  A draw that raises re-raises on the
calling thread when its step asks for it.

Buffers: a pool is a plain float array, checked (size, finite point value)
once per run by `new_pool`.  `simulate`'s steps, a generator that
`models.run_checkpoints` drives and closes on every exit (which ends the
helper), own and recycle the two pool arrays they step between, and one 2N
parent buffer: each step gathers its parents into the parent buffer and
writes the new pool into the spare array, and the array it replaced becomes
the next spare.  A step thus allocates only the atoms' temporaries, while
the helper allocates the next step's index array, so at most two 2N index
arrays are alive at once.  The draws and the arithmetic are those of
`pool_step` on new arrays, so the reproducibility contract is unchanged, and
no caller's array is ever written; a checkpoint's rescaled pool is its own
sorted copy (`dist.rescale`).
"""

from __future__ import annotations

import math
import threading

import numpy as np

from .errors import DomainError
from .models import Checkpoint, ModelSpec, _atom_counts, apply_mixture, run_checkpoints

__all__ = ["new_pool", "pool_step", "simulate", "hipster_direct"]

_STREAM_STEP = 1
_STREAM_WALK = 2


def _gen(seed: int, stream: int, step: int) -> np.random.Generator:
    key = np.array([np.uint64(seed), np.uint64((stream << 48) + step)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def new_pool(init: float, N: int) -> np.ndarray:
    """The pool at step 0: N >= 2 copies of the finite point value init (log scale); draws nothing."""
    if N < 2 or not math.isfinite(init):
        raise DomainError(f"a pool needs N >= 2 samples of a finite value, got N={N}, init={init!r}")
    return np.full(N, float(init))


def _step_draws(model: ModelSpec, seed: int, n: int, N: int) -> tuple[np.ndarray, np.ndarray]:
    """Step n's draws from its (seed, step n) stream, in stream order: the 2N parent indices, then
    the atom counts.  Only private helpers and numpy run here, so it may run on a helper thread."""
    rng = _gen(seed, _STREAM_STEP, n)
    return rng.integers(0, N, 2 * N), _atom_counts(model, rng, N)


def pool_step(
    model: ModelSpec, pool: np.ndarray, seed: int, n: int,
    out: np.ndarray | None = None, parents: np.ndarray | None = None,
    draws: tuple[np.ndarray, np.ndarray] | None = None,
) -> np.ndarray:
    """The pool after step n of the run keyed by seed: each slot is log F applied to two uniform picks
    from ``pool``, the pool after step n - 1, which is only read.

    ``out`` (N floats) receives the new pool and ``parents`` (2N floats) the
    gathered parent pairs; either may be None for a new array, and neither may overlap ``pool``.
    ``draws`` is step n's draws made ahead, ``_step_draws(model, seed, n, N)``; None draws them here.
    """
    N = pool.size
    idx, counts = _step_draws(model, seed, n, N) if draws is None else draws
    # the indices are in range, and unlike the default "raise", "wrap" gathers without buffering
    parents = pool.take(idx, out=parents, mode="wrap")
    del idx, draws  # drawn here, the indices are freed before the atoms allocate
    return apply_mixture(model, None, parents[:N], parents[N:], out=out, counts=counts)


def simulate(
    model: ModelSpec,
    init: float,
    n: int,
    N: int,
    seed: int,
    checkpoints: tuple[int, ...],
    scaling: tuple[str, float, float] | None = None,
) -> list[Checkpoint]:
    """Pool simulation of n steps from the point value init under models.run_checkpoints."""
    return run_checkpoints(model, lambda reach: _pools(model, init, n, N, seed), n, checkpoints, scaling)


class _Ahead:
    """draw(1), ..., draw(n), made in order on one helper thread, one step ahead of the caller.

    ``take`` returns the next draw, waiting for it, and lets the helper start the one after: the
    helper holds at most one draw that the caller has not taken, so with the caller's own at most
    two are alive.  A draw that raises re-raises in ``take``.  Leaving the ``with`` block stops the
    helper after the draw it is making and joins it.
    """

    def __init__(self, draw, n: int):
        self._next = self._error = None  # the handoff: the helper's last draw, or what it raised
        self._ready = threading.Semaphore(0)  # released by the helper when the handoff is filled
        self._wanted = threading.Semaphore(0)  # released by the caller when it has emptied it
        self._stop = False
        # a daemon, so that a run left unclosed cannot hold the interpreter open at exit
        self._thread = threading.Thread(target=self._run, args=(draw, n), daemon=True)

    def _run(self, draw, n: int) -> None:
        try:
            for k in range(1, n + 1):
                self._next = draw(k)
                self._ready.release()
                self._wanted.acquire()
                if self._stop:
                    return
        except BaseException as exc:
            self._error = exc
            self._ready.release()

    def take(self):
        self._ready.acquire()
        if self._error is not None:
            raise self._error
        out, self._next = self._next, None
        self._wanted.release()  # the helper starts the next draw while the caller uses this one
        return out

    def __enter__(self) -> "_Ahead":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop = True
        self._wanted.release()
        self._thread.join()


def _pools(model: ModelSpec, init: float, n: int, N: int, seed: int):
    """The pool after each of the steps 1..n, with no diagnostics, in the two arrays the run recycles."""
    pool = new_pool(init, N)
    spare, parents = np.empty(N), np.empty(2 * N)
    with _Ahead(lambda k: _step_draws(model, seed, k, N), n) as ahead:
        for k in range(1, n + 1):
            draws = ahead.take()  # step k + 1's draws run on the helper while this thread runs step k
            pool, spare = pool_step(model, pool, seed, k, spare, parents, draws), pool
            del draws  # step k's indices, freed before a checkpoint sorts
            yield pool, None


def _walk_draws(seed: int, step: int, N: int) -> tuple[np.ndarray, np.ndarray]:
    """The walk's draws at step from its (seed, step) stream, in stream order: the 2N parent
    indices, then N two-bit words (bit 0 picks the copy, bit 1 the tie's sign)."""
    rng = _gen(seed, _STREAM_WALK, step)
    return rng.integers(0, N, 2 * N), rng.integers(0, 4, N)


def hipster_direct(n: int, N: int, seed: int) -> np.ndarray:
    """Literal integer walk of the hipster model by the pool method, started
    from 0: pick one of two independent copies uniformly and add +-1 (fair)
    on ties."""
    vals = np.zeros(N, dtype=np.int64)
    pair = np.empty(2 * N, dtype=np.int64)
    pick = np.empty(N, dtype=np.int64)
    tie = np.empty(N, dtype=bool)
    a, b = pair[:N], pair[N:]
    with _Ahead(lambda step: _walk_draws(seed, step, N), n) as ahead:
        for _ in range(n):
            idx, bits = ahead.take()  # the next step's draws run on the helper while this thread runs this one
            vals.take(idx, out=pair, mode="wrap")
            # vals = (a if bit 0 else b) + (+-1 by bit 1 on ties), in exact integer steps
            np.subtract(a, b, out=vals)
            np.bitwise_and(bits, 1, out=pick)
            vals *= pick
            vals += b
            np.equal(a, b, out=tie)
            np.right_shift(bits, 1, out=pick)
            pick *= 2
            pick -= 1
            pick *= tie
            vals += pick
            del idx, bits  # this step's draws, freed before the next take lets the helper draw again
    return vals
