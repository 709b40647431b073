"""Random series-parallel graphs with independent resistance/distance oracles.

The primary structure is the replacement history: round k holds one boolean
per edge present at that round (True = the edge was replaced by two edges in
series, False = by two parallel edges), children of edge e being 2e and 2e+1.
Reduction is a vectorized bottom-up fold over the history; the explicit
node/edge graph is derived only to feed the Laplacian and shortest-path
oracles.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.csgraph as csgraph
import scipy.sparse.linalg as spla

from .errors import DomainError, HomsysError

__all__ = ["SPGraph", "single_edge", "grow", "build", "reduce_graph", "explicit_graph", "resistance_exact", "distance_exact"]

MAX_EXPLICIT_ROUNDS = 16


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


def explicit_graph(g: SPGraph) -> tuple[np.ndarray, int, int, int]:
    """Derive the node/edge graph: (edges array [E, 2], n_nodes, a, z)."""
    if g.rounds > MAX_EXPLICIT_ROUNDS:
        raise DomainError(f"explicit builds are capped at {MAX_EXPLICIT_ROUNDS} rounds")
    edges = np.array([[0, 1]], dtype=np.int64)
    n_nodes = 2
    for series in g.history:
        mids = n_nodes + np.cumsum(series) - 1
        u, v = edges[:, 0], edges[:, 1]
        out = np.empty((2 * len(edges), 2), dtype=np.int64)
        out[0::2, 0] = u
        out[0::2, 1] = np.where(series, mids, v)
        out[1::2, 0] = np.where(series, mids, u)
        out[1::2, 1] = v
        edges = out
        n_nodes += int(series.sum())
    return edges, n_nodes, 0, 1


def _laplacian(edges: np.ndarray, n_nodes: int) -> sp.csr_matrix:
    u, v = edges[:, 0], edges[:, 1]
    w = np.ones(len(edges))
    rows = np.concatenate([u, v, u, v])
    cols = np.concatenate([v, u, u, v])
    vals = np.concatenate([-w, -w, w, w])
    return sp.coo_matrix((vals, (rows, cols)), shape=(n_nodes, n_nodes)).tocsr()


def resistance_exact(g: SPGraph, tol: float = 1e-12) -> float:
    """Effective resistance between the terminals via the graph Laplacian.

    Unit current is injected at terminal a with terminal z grounded; the
    reduced SPD system is solved by sparse LU (iterative solvers converge too
    slowly on path-like graphs at the required 1e-12 residual).
    """
    edges, n_nodes, a, z = explicit_graph(g)
    L = _laplacian(edges, n_nodes)
    keep = np.arange(n_nodes) != z
    Lr = L[keep][:, keep]
    rhs = np.zeros(n_nodes - 1)
    a_r = a if a < z else a - 1
    rhs[a_r] = 1.0
    x = spla.splu(Lr.tocsc()).solve(rhs)
    residual = float(np.linalg.norm(Lr @ x - rhs))
    if residual > tol * max(1.0, float(np.linalg.norm(rhs))) * 1e3:
        raise HomsysError(f"Laplacian solve residual {residual:.3g} too large")
    v = float(x[a_r])
    if not np.isfinite(v) or v <= 0:
        raise HomsysError("singular Laplacian system; graph disconnected?")
    return v


def distance_exact(g: SPGraph) -> float:
    """Terminal-to-terminal hop distance (all edges have unit length)."""
    edges, n_nodes, a, z = explicit_graph(g)
    u, v = edges[:, 0], edges[:, 1]
    adj = sp.coo_matrix((np.ones(len(edges)), (u, v)), shape=(n_nodes, n_nodes)).tocsr()
    d = csgraph.shortest_path(adj, method="D", directed=False, unweighted=True, indices=a)
    out = float(d[z])
    if not np.isfinite(out):
        raise HomsysError("terminals are disconnected")
    return out
