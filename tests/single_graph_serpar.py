"""Test oracle: the series-parallel graph and both oracles as they were when
each seed was its own graph, before `homsys.serpar` grew a forest of seeds
together.  `build(n, p, seed)` draws round k as its own `rng.random(2**k)`;
the node labels, the Laplacian, the round-by-round elimination and the
breadth-first search are those of one graph.  The forest must give every
root the bits this module gives its seed, for the fold and both oracles.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate

import numpy as np

from homsys.errors import DomainError, HomsysError

MAX_ROUNDS = 24  # 2^24 edges: one build and its fold peak at 0.27 GB resident (ru_maxrss)
MAX_ORACLE_ROUNDS = 16  # the oracles' Laplacian is derived up to 2^16 edges
_RESIDUAL_TOL = 1e-9  # largest Laplacian solve residual accepted, relative to max(1, |rhs|)


@dataclass(frozen=True)
class SPGraph:
    """Series-parallel replacement history after n growth rounds (2^n edges)."""

    history: tuple[np.ndarray, ...]

    @property
    def rounds(self) -> int:
        return len(self.history)

    @property
    def n_edges(self) -> int:
        return 2**self.rounds

    def __post_init__(self):
        for k, h in enumerate(self.history):
            if h.dtype != np.bool_ or h.shape != (2**k,):
                raise DomainError(f"round {k} must hold 2^{k} boolean choices")

    @cached_property
    def laplacian(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The graph Laplacian as sorted CSC arrays: (data, row indices, indptr).

        Nodes carry reverse creation labels with a and z last (a = n_nodes - 2,
        z = n_nodes - 1); each column holds its rows in increasing order, once
        each: minus the edge multiplicity off the diagonal, the degree on it.
        The matrix is symmetric, so the same arrays are also its CSR form.
        Derived from `history` on first use and kept, read-only."""
        return self._oracle_arrays[0]

    @cached_property
    def split_ends(self) -> np.ndarray:
        """Row j < a: the ends (u, v) of the edge that midpoint j split, in reverse
        creation labels and in the edge's a-to-z orientation; row a: (z, z).

        The nodes older than j that j meets are among u and v, so they are the
        only entries below the diagonal of the Laplacian's column j.  Derived
        with `laplacian`, in the same pass over `history`, and kept, read-only."""
        return self._oracle_arrays[1]

    @cached_property
    def _oracle_arrays(self):
        """(`laplacian`, `split_ends`), derived in one pass over `history`."""
        if self.rounds > MAX_ORACLE_ROUNDS:
            raise DomainError(f"oracle graphs are capped at {MAX_ORACLE_ROUNDS} rounds")
        ends, split, n = _leaf_ends(self.history)
        # one key col * n + row per entry: both ends of every edge and the diagonal;
        # sorted, the keys run column by column and parallel edges repeat a key
        key_dtype = np.int32 if n * n < 2**31 else np.int64  # int32 keys sort faster
        e = ends.size // 2
        u, v = ends[0::2], ends[1::2]
        keys = np.empty(2 * e + n, dtype=key_dtype)
        uv, vu = keys[:e], keys[e : 2 * e]
        np.multiply(u, n, out=uv, dtype=key_dtype)
        uv += v
        np.multiply(v, n, out=vu, dtype=key_dtype)
        vu += u
        keys[2 * e :] = np.arange(0, n * n, n + 1)
        keys.sort()
        first = np.empty(keys.size + 1, dtype=bool)
        first[0] = first[-1] = True
        np.not_equal(keys[1:], keys[:-1], out=first[1:-1])
        starts = np.flatnonzero(first)  # where each distinct key starts, then keys.size
        distinct = keys[starts[:-1]]
        col = distinct // n
        rows = np.subtract(distinct, col * n, dtype=np.int32)
        indptr = np.zeros(n + 1, dtype=np.int32)
        np.cumsum(np.bincount(col, minlength=n), out=indptr[1:])
        data = np.multiply(np.diff(starts), -1.0)  # minus the multiplicity; the degree on the diagonal
        data[rows == col] = np.bincount(ends, minlength=n)
        for arr in (data, rows, indptr, split):
            arr.flags.writeable = False
        return (data, rows, indptr), split


def _leaf_ends(history: tuple[np.ndarray, ...]) -> tuple[np.ndarray, np.ndarray, int]:
    """The leaf edges' ends (u0, v0, u1, v1, ...) and the split ends (`SPGraph.split_ends`),
    both in reverse creation labels, and the node count.

    Each series midpoint's creation number c is 1 + the midpoints made up to it, so its label
    n - 1 - c is n - 2 - that count, below a = n - 2 and z = n - 1.  Round by round, edge (u, v)
    makes (u, v), (u, v) in parallel and (u, mid), (mid, v) in series, and row mid of the split
    ends is (u, v)."""
    choices = np.concatenate(history) if history else np.zeros(0, dtype=bool)
    mid = np.cumsum(choices, dtype=np.int32)
    n = 2 + (int(mid[-1]) if mid.size else 0)
    np.subtract(n - 2, mid, out=mid)
    ends = np.array([n - 2, n - 1], dtype=np.int32)
    edges = [ends]  # each round's edges, then the leaf edges
    lo = 0
    for series in history:
        label = mid[lo : lo + series.size]
        lo += series.size
        ends = np.repeat(ends.reshape(-1, 2), 2, axis=0).ravel()
        np.copyto(ends[1::4], label, where=series)
        np.copyto(ends[2::4], label, where=series)
        edges.append(ends)
    split = np.empty((n - 1, 2), dtype=np.int32)
    split[n - 2] = n - 1
    if history:
        # the series choices pick the split edges in creation order; each (u, v) is viewed
        # as one int64, so that the mask keeps both ends
        made = np.concatenate(edges[:-1]).view(np.int64)[choices]
        split[: n - 2].view(np.int64)[:, 0] = made[::-1]
    return ends, split, n


def build(n: int, p: float, seed: int) -> SPGraph:
    """n rounds of replacing each edge by a series pair (prob p) or a parallel pair (prob 1-p)."""
    if not 0 <= n <= MAX_ROUNDS:
        raise DomainError(f"n must lie in [0, {MAX_ROUNDS}]")
    if not 0.0 <= p <= 1.0:
        raise DomainError("p must lie in [0, 1]")
    rng = np.random.Generator(np.random.Philox(key=np.array([seed, 0], dtype=np.uint64)))
    return SPGraph(tuple(rng.random(2**k) < p for k in range(n)))


def reduce_graph(g: SPGraph) -> tuple[float, float]:
    """(effective resistance, distance) by folding the replacement tree.

    Series adds resistances and lengths; parallel harmonic-sums resistances
    and takes the shorter length.  Leaves are unit edges, so the last round
    makes pairs of resistance 2 or 1/2 and length 2 or 1.  Each earlier round
    folds into the front of the arrays the round before it read, so the fold
    holds the last round's two arrays and three of half their size.
    """
    if not g.history:
        return 1.0, 1.0
    r = np.where(g.history[-1], 2.0, 0.5)
    d = np.where(g.history[-1], 2.0, 1.0)
    free_r, free_d, total = (np.empty(r.size // 2) for _ in range(3))
    for h in reversed(g.history[:-1]):
        m = h.size
        r0, r1, d0, d1 = r[0::2], r[1::2], d[0::2], d[1::2]
        new_r, new_d, s = free_r[:m], free_d[:m], total[:m]
        np.add(r0, r1, out=s)
        np.divide(np.multiply(r0, r1, out=new_r), s, out=new_r)
        np.copyto(new_r, s, where=h)
        np.minimum(d0, d1, out=new_d)
        np.add(d0, d1, out=new_d, where=h)
        free_r, free_d, r, d = r, d, new_r, new_d
    return float(r[0]), float(d[0])


def resistance_exact(g: SPGraph) -> float:
    """Effective resistance between the terminals via the graph Laplacian.

    Unit current is injected at terminal a with terminal z grounded.  The
    Laplacian (`SPGraph.laplacian`) is eliminated as L D L^T in its own order,
    the perfect elimination order of the module docstring, one round of
    midpoints per step, the last round first; z is never a pivot, which
    grounds it.  When its round comes, a midpoint meets only the two ends of
    the edge it split (`SPGraph.split_ends`), so its column below the diagonal
    has two fixed slots, and an entry outside them raises `HomsysError`.
    Back-substitution walks the rounds in reverse.  The potentials are then
    certified by the residual of the grounded system on the Laplacian arrays,
    however they were computed; nothing of the fold is read.
    """
    data, rows, indptr = g.laplacian
    rows = rows.astype(np.intp)  # index arrays are intp, which numpy gathers fastest
    split = g.split_ends.astype(np.intp)
    n = indptr.size - 1
    a, z = n - 2, n - 1
    cols = np.repeat(np.arange(n), np.diff(indptr))
    # an entry (row, col) below the diagonal belongs in slot 2 * col + 1 if row is col's
    # second split end, and otherwise in slot 2 * col, whose split end it must then be
    below = np.flatnonzero(rows > cols)
    col, row = cols[below], rows[below]
    slot_row = split.ravel()
    slot = 2 * col
    slot += row == slot_row[slot + 1]
    diag = data[np.flatnonzero(rows == cols)]
    if diag.size != n or not np.array_equal(slot_row[slot], row):
        raise HomsysError("Laplacian entry off the diagonal and the split-end slots of its column")
    off = np.zeros(2 * (n - 1))
    off[slot] = data[below]
    # eliminating midpoint j fills (u, v) = split[j] in the column of its younger end c,
    # at c's second slot if c is u (edge (c, v) descends from c's second edge), else its first
    u, v = split[:a, 0], split[:a, 1]
    fill_slot = 2 * np.minimum(u, v)
    fill_slot += u < v
    # the last round's midpoints hold the lowest labels, then the round before it, and so on
    bounds = [0, *accumulate(np.count_nonzero(h) for h in reversed(g.history))]
    rounds = [(lo, hi) for lo, hi in zip(bounds, bounds[1:]) if lo < hi]

    off_pairs = off.reshape(-1, 2)
    factor = np.empty((a, 2))  # the two entries of L below each midpoint's unit diagonal
    for lo, hi in rounds:
        w = off_pairs[lo:hi]
        f = np.divide(w, diag[lo:hi, None], out=factor[lo:hi])
        lost = np.bincount(split[lo:hi].ravel(), weights=(w * f).ravel())
        diag[: lost.size] -= lost
        fill = np.bincount(fill_slot[lo:hi], weights=w[:, 0] * f[:, 1])
        off[: fill.size] -= fill
    # L D L^T x = e_a: e_a is zero on every midpoint, so the forward sweep leaves it as it is,
    # and L^T x = e_a / D_a remains, with z grounded at 0
    x = np.zeros(n)
    x[a] = 1.0 / diag[a]
    for lo, hi in reversed(rounds):
        terms = x[split[lo:hi]]
        terms *= factor[lo:hi]
        np.add(terms[:, 0], terms[:, 1], out=x[lo:hi])
        np.negative(x[lo:hi], out=x[lo:hi])
    lx = np.bincount(rows, weights=data * x[cols], minlength=n)
    lx[a] -= 1.0
    residual = float(np.linalg.norm(lx[:z]))  # of the grounded system, whose right side has norm 1
    if not residual <= _RESIDUAL_TOL:
        raise HomsysError(f"Laplacian solve residual {residual:.3g} too large")
    r = float(x[a])
    if not np.isfinite(r) or r <= 0:
        raise HomsysError("singular Laplacian system; graph disconnected?")
    return r


def distance_exact(g: SPGraph) -> float:
    """Terminal-to-terminal hop distance (all edges have unit length).

    A breadth-first search from a over the graph's sorted Laplacian pattern
    (`SPGraph.laplacian`), which is symmetric and so read as directed; the
    hops are counted along its predecessor tree from z back to a.
    """
    # imported here so that commands which never call an oracle start without scipy
    import scipy.sparse as sp
    import scipy.sparse.csgraph as csgraph

    data, rows, indptr = g.laplacian
    n = indptr.size - 1
    a, z = n - 2, n - 1
    adj = sp.csr_matrix((data, rows, indptr), shape=(n, n))
    _, pred = csgraph.breadth_first_order(adj, a, directed=True, return_predecessors=True)
    hops, node = 0, z
    while node != a:
        node = pred[node]
        if node < 0:
            raise HomsysError("terminals are disconnected")
        hops += 1
    return float(hops)
