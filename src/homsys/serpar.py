"""Random series-parallel graphs with independent resistance/distance oracles.

The primary structure is the replacement history: round k holds one boolean
per edge present at that round (True = the edge was replaced by two edges in
series, False = by two parallel edges), children of edge e being 2e and 2e+1.
Reduction is a vectorized bottom-up fold over the history; the explicit
node/edge graph is derived only to feed the Laplacian and breadth-first
search oracles, which never read the fold.

Nodes are numbered in creation order (a = 0, z = 1, then each round's series
midpoints).  Reverse creation order is a perfect elimination order: a node
made on edge (u, v) is only ever adjacent to u, v and nodes made after it, so
once those are eliminated its neighbours are at most u and v, and eliminating
it adds at most the fill edge u-v.  The Laplacian oracle factors in that
order, so its factors hold O(nodes) entries and need no fill-reducing
ordering.

Each graph derives its Laplacian once, in that order with a and z last, as
sorted CSC arrays (`SPGraph.laplacian`).  Both oracles read it: the
resistance oracle factors its grounded block, and the distance oracle
searches its symmetric pattern as a directed graph, so neither builds a
matrix of its own from the edge list.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DomainError, HomsysError

__all__ = ["SPGraph", "single_edge", "build", "reduce_graph", "resistance_exact", "distance_exact"]

MAX_ROUNDS = 24  # 2^24 edges: one build and its fold peak at 0.27 GB resident (ru_maxrss)
MAX_EXPLICIT_ROUNDS = 16
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
    def explicit(self) -> tuple[np.ndarray, int, int, int]:
        """The node/edge graph: (edges array [E, 2], n_nodes, a, z).

        Derived on first use and kept; the edges array is read-only."""
        if self.rounds > MAX_EXPLICIT_ROUNDS:
            raise DomainError(f"explicit builds are capped at {MAX_EXPLICIT_ROUNDS} rounds")
        edges = np.array([[0, 1]], dtype=np.int64)
        n_nodes = 2
        for series in self.history:
            mids = n_nodes + np.cumsum(series) - 1
            u, v = edges[:, 0], edges[:, 1]
            out = np.empty((2 * len(edges), 2), dtype=np.int64)
            out[0::2, 0] = u
            out[0::2, 1] = np.where(series, mids, v)
            out[1::2, 0] = np.where(series, mids, u)
            out[1::2, 1] = v
            edges = out
            n_nodes += int(series.sum())
        edges.flags.writeable = False
        return edges, n_nodes, 0, 1

    @cached_property
    def laplacian(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The graph Laplacian as sorted CSC arrays: (data, row indices, indptr).

        Nodes carry reverse creation labels with a and z last (a = n_nodes - 2,
        z = n_nodes - 1); each column holds its rows in increasing order, once
        each: minus the edge multiplicity off the diagonal, the degree on it.
        The matrix is symmetric, so the same arrays are also its CSR form.
        Derived from `explicit` on first use and kept, read-only."""
        edges, n, a, z = self.explicit
        label = np.arange(n - 1, -1, -1)
        label[a], label[z] = n - 2, n - 1
        u, v = label[edges[:, 0]], label[edges[:, 1]]
        # one key col * n + row per entry, sorted; parallel edges repeat a key
        keys, mult = np.unique(np.concatenate([u * n + v, v * n + u, np.arange(0, n * n, n + 1)]), return_counts=True)
        col, row = np.divmod(keys, n)
        indptr = np.searchsorted(keys, np.arange(0, n * n + 1, n)).astype(np.int32)
        rows = row.astype(np.int32)
        data = -mult.astype(np.float64)
        # every column holds its diagonal key once; its other run lengths sum to the degree
        data[row == col] = np.add.reduceat(mult, indptr[:-1]) - 1
        for arr in (data, rows, indptr):
            arr.flags.writeable = False
        return data, rows, indptr


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
    # z has the last label m: dropping its column and its (last) row entries grounds it
    m = indptr.size - 2
    end = indptr[m]
    keep = rows[:end] < m
    kept = np.concatenate([[0], np.cumsum(keep, dtype=np.int32)])
    Lr = sp.csc_matrix((data[:end][keep], rows[:end][keep], kept[indptr[: m + 1]]), shape=(m, m))
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
