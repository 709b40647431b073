"""Test oracle: the serpar resistance and distance oracles built the COO way.

`explicit` derives the node/edge graph from the replacement history edge by
edge, in creation labels, independently of `SPGraph._layout`, and
`split_edges` the edge each midpoint split on the way.
`resistance_exact` assembles the grounded Laplacian from (row, col, value)
triplets, one per edge end, lets scipy sort them and sum the duplicates
from parallel edges, and factors it with SuperLU; `distance_exact` searches a
one-direction adjacency of the creation-order node labels as undirected.
homsys.serpar derives one leaf edge list per forest and both oracles read it;
the Laplacian its degrees and slot counts make equals the canonical grounded
one built here entry for entry.  So the distances must be the same bits; the
resistances agree to the rounding of two different factorisations, since
serpar eliminates the Laplacian round by round without SuperLU.
"""

import numpy as np
import scipy.sparse as sp
import scipy.sparse.csgraph as csgraph
import scipy.sparse.linalg as spla


def explicit(g):
    """The node/edge graph: (edges array [E, 2], n_nodes, a, z), nodes in creation order."""
    edges, n_nodes, _ = _expand(g)
    return edges, n_nodes, 0, 1


def split_edges(g):
    """[n_nodes - 2, 2]: row w - 2 is the edge (u, v) that midpoint w split, in creation labels."""
    return _expand(g)[2]


def _expand(g):
    """Round by round, edge (u, v) becomes (u, v), (u, v) in parallel or (u, w), (w, v) in
    series, w being the next new node."""
    edges = np.array([[0, 1]], dtype=np.int64)
    n_nodes = 2
    split = [np.zeros((0, 2), dtype=np.int64)]
    for series in g.history:
        mids = n_nodes + np.cumsum(series) - 1
        split.append(edges[series])
        u, v = edges[:, 0], edges[:, 1]
        out = np.empty((2 * len(edges), 2), dtype=np.int64)
        out[0::2, 0] = u
        out[0::2, 1] = np.where(series, mids, v)
        out[1::2, 0] = np.where(series, mids, u)
        out[1::2, 1] = v
        edges = out
        n_nodes += int(series.sum())
    return edges, n_nodes, np.concatenate(split)


def grounded_laplacian(g):
    """The Laplacian without z's row and column, reverse creation labels, a last."""
    edges, n_nodes, a, z = explicit(g)
    m = n_nodes - 1
    label = np.arange(m, -1, -1)
    label[a], label[z] = m - 1, m
    u, v = label[edges[:, 0]], label[edges[:, 1]]
    keep_u, keep_v = u < m, v < m
    inner = keep_u & keep_v
    rows = np.concatenate([u[keep_u], v[keep_v], u[inner], v[inner]])
    cols = np.concatenate([u[keep_u], v[keep_v], v[inner], u[inner]])
    vals = np.concatenate([np.ones(keep_u.sum() + keep_v.sum()), np.full(2 * inner.sum(), -1.0)])
    return sp.csc_matrix((vals, (rows, cols)), shape=(m, m))


def resistance_exact(g):
    Lr = grounded_laplacian(g)
    m = Lr.shape[0]
    rhs = np.zeros(m)
    rhs[m - 1] = 1.0
    lu = spla.splu(Lr, permc_spec="NATURAL", diag_pivot_thresh=0.0, options={"SymmetricMode": True}, panel_size=1, relax=1)
    return float(lu.solve(rhs)[m - 1])


def distance_exact(g):
    edges, n_nodes, a, z = explicit(g)
    adj = sp.csr_matrix((np.ones(len(edges)), (edges[:, 0], edges[:, 1])), shape=(n_nodes, n_nodes))
    _, pred = csgraph.breadth_first_order(adj, a, directed=False, return_predecessors=True)
    hops, node = 0, z
    while node != a:
        node = pred[node]
        hops += 1
    return float(hops)
