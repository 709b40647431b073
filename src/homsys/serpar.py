"""Random series-parallel graphs with independent resistance/distance oracles.

The primary structure is the replacement history: round k holds one boolean
per edge present at that round (True = the edge was replaced by two edges in
series, False = by two parallel edges), children of edge e being 2e and 2e+1.
Reduction is a vectorized bottom-up fold over the history; the explicit
node/edge graph is derived only to feed the Laplacian and breadth-first
search oracles.

Nodes are numbered in creation order (a = 0, z = 1, then each round's series
midpoints).  Reverse creation order is a perfect elimination order: a node
made on edge (u, v) is only ever adjacent to u, v and nodes made after it, so
once those are eliminated its neighbours are at most u and v, and eliminating
it adds at most the fill edge u-v.  The Laplacian oracle factors in that
order, so its factors hold O(nodes) entries and need no fill-reducing
ordering.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DomainError, HomsysError

__all__ = ["SPGraph", "single_edge", "grow", "build", "reduce_graph", "resistance_exact", "distance_exact"]

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

        Derived on first use and kept, so the oracles share one derivation;
        the edges array is read-only."""
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


def single_edge() -> SPGraph:
    return SPGraph(())


def grow(g: SPGraph, p: float, rng: np.random.Generator) -> SPGraph:
    """Replace each edge by a series pair (prob p) or a parallel pair (prob 1-p)."""
    if not 0.0 <= p <= 1.0:
        raise DomainError("p must lie in [0, 1]")
    choices = rng.random(g.n_edges) < p
    return SPGraph(g.history + (choices,))


def build(n: int, p: float, seed: int) -> SPGraph:
    rng = np.random.Generator(np.random.Philox(key=np.array([seed, 0], dtype=np.uint64)))
    g = single_edge()
    for _ in range(n):
        g = grow(g, p, rng)
    return g


def reduce_graph(g: SPGraph) -> tuple[float, float]:
    """(effective resistance, distance) by folding the replacement tree.

    Series adds resistances and lengths; parallel harmonic-sums resistances
    and takes the shorter length.  Leaves are unit edges.
    """
    r = np.ones(g.n_edges)
    d = np.ones(g.n_edges)
    for h in reversed(g.history):
        r0, r1 = r[0::2], r[1::2]
        d0, d1 = d[0::2], d[1::2]
        r = np.where(h, r0 + r1, r0 * r1 / (r0 + r1))
        d = np.where(h, d0 + d1, np.minimum(d0, d1))
    return float(r[0]), float(d[0])


def resistance_exact(g: SPGraph) -> float:
    """Effective resistance between the terminals via the graph Laplacian.

    Unit current is injected at terminal a with terminal z grounded.  Nodes
    are relabelled in reverse creation order with a and z last (the perfect
    elimination order of the module docstring), and the reduced SPD system is
    factored by sparse LU in that natural order with diagonal pivots: each
    elimination adds at most one fill entry, and an SPD matrix needs no
    pivoting.
    """
    # imported here so that commands which never call an oracle start without scipy
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla

    edges, n_nodes, a, z = g.explicit
    m = n_nodes - 1
    label = np.arange(m, -1, -1)
    label[a], label[z] = m - 1, m
    u, v = label[edges[:, 0]], label[edges[:, 1]]
    # z has the last label m: dropping its row and column grounds it
    keep_u, keep_v = u < m, v < m
    inner = keep_u & keep_v
    rows = np.concatenate([u[keep_u], v[keep_v], u[inner], v[inner]])
    cols = np.concatenate([u[keep_u], v[keep_v], v[inner], u[inner]])
    vals = np.concatenate([np.ones(keep_u.sum() + keep_v.sum()), np.full(2 * inner.sum(), -1.0)])
    Lr = sp.csc_matrix((vals, (rows, cols)), shape=(m, m))
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

    A breadth-first search from a; the hops are counted along its
    predecessor tree from z back to a.
    """
    # imported here so that commands which never call an oracle start without scipy
    import scipy.sparse as sp
    import scipy.sparse.csgraph as csgraph

    edges, n_nodes, a, z = g.explicit
    adj = sp.csr_matrix((np.ones(len(edges)), (edges[:, 0], edges[:, 1])), shape=(n_nodes, n_nodes))
    _, pred = csgraph.breadth_first_order(adj, a, directed=False, return_predecessors=True)
    hops, node = 0, z
    while node != a:
        node = pred[node]
        if node < 0:
            raise HomsysError("terminals are disconnected")
        hops += 1
    return float(hops)
