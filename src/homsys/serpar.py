"""Random series-parallel graphs with independent resistance/distance oracles.

The primary structure is the replacement history: round k holds one boolean
per edge present at that round (True = the edge was replaced by two edges in
series, False = by two parallel edges), children of edge e being 2e and 2e+1.
Reduction is a vectorized bottom-up fold over the history; the graph's
nodes and edges are derived only to feed the Laplacian and breadth-first
search oracles, which never read the fold.

Nodes are numbered in creation order (a = 0, z = 1, then each round's series
midpoints).  Reverse creation order is a perfect elimination order: a node
made on edge (u, v) is only ever adjacent to u, v and nodes made after it, so
once those are eliminated its neighbours are at most u and v, and eliminating
it adds at most the fill edge u-v.  The Laplacian oracle factors in that
order, so its factors hold O(nodes) entries and need no fill-reducing
ordering.

Each graph derives its Laplacian once, in that order with a and z last, as
sorted CSC arrays (`SPGraph.laplacian`), straight from the history: the
midpoints get their labels from one running count over all rounds, the
leaf edges' ends are expanded round by round, and one sort of their keys
gives the entries column by column.  No edge list is kept.  Both oracles
read the Laplacian: the resistance oracle factors its grounded block, and
the distance oracle searches its symmetric pattern as a directed graph, so
neither builds a matrix of its own.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DomainError, HomsysError

__all__ = ["SPGraph", "single_edge", "build", "reduce_graph", "resistance_exact", "distance_exact"]

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
        if self.rounds > MAX_ORACLE_ROUNDS:
            raise DomainError(f"oracle graphs are capped at {MAX_ORACLE_ROUNDS} rounds")
        ends, n = _leaf_ends(self.history)
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
        for arr in (data, rows, indptr):
            arr.flags.writeable = False
        return data, rows, indptr


def _leaf_ends(history: tuple[np.ndarray, ...]) -> tuple[np.ndarray, int]:
    """The leaf edges' ends (u0, v0, u1, v1, ...) in reverse creation labels, and the node count.

    Each series midpoint's creation number c is 1 + the midpoints made up to it, so its label
    n - 1 - c is n - 2 - that count, below a = n - 2 and z = n - 1.  Round by round, edge (u, v)
    makes (u, v), (u, v) in parallel and (u, mid), (mid, v) in series."""
    choices = np.concatenate(history) if history else np.zeros(0, dtype=bool)
    mid = np.cumsum(choices, dtype=np.int32)
    n = 2 + (int(mid[-1]) if mid.size else 0)
    np.subtract(n - 2, mid, out=mid)
    ends = np.array([n - 2, n - 1], dtype=np.int32)
    lo = 0
    for series in history:
        label = mid[lo : lo + series.size]
        lo += series.size
        ends = np.repeat(ends.reshape(-1, 2), 2, axis=0).ravel()
        np.copyto(ends[1::4], label, where=series)
        np.copyto(ends[2::4], label, where=series)
    return ends, n


def single_edge() -> SPGraph:
    return SPGraph(())


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
    grounded block is the graph's sorted Laplacian (`SPGraph.laplacian`,
    reverse creation order with a and z last: the perfect elimination order
    of the module docstring) without z's row and column, and it is factored
    by sparse LU in that natural order with diagonal pivots: each
    elimination adds at most one fill entry, and an SPD matrix needs no
    pivoting.
    """
    # imported here so that commands which never call an oracle start without scipy
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla

    data, rows, indptr = g.laplacian
    # z has the last label m, so it is the last row of each column it meets: dropping
    # those entries and z's column grounds it
    m = indptr.size - 2
    last = indptr[1 : m + 1] - 1
    meets_z = rows[last] == m
    keep = np.ones(indptr[m], dtype=bool)
    keep[last[meets_z]] = False
    kept_indptr = indptr[: m + 1].copy()
    kept_indptr[1:] -= np.cumsum(meets_z, dtype=np.int32)
    Lr = sp.csc_matrix((data[: indptr[m]][keep], rows[: indptr[m]][keep], kept_indptr), shape=(m, m))
    rhs = np.zeros(m)
    a_r = m - 1
    rhs[a_r] = 1.0
    lu = spla.splu(Lr, permc_spec="NATURAL", diag_pivot_thresh=0.0, options={"SymmetricMode": True}, panel_size=1, relax=1)
    x = lu.solve(rhs)
    residual = float(np.linalg.norm(Lr @ x - rhs))
    if residual > _RESIDUAL_TOL * max(1.0, float(np.linalg.norm(rhs))):
        raise HomsysError(f"Laplacian solve residual {residual:.3g} too large")
    r = float(x[a_r])
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
