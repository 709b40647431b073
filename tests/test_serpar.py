import numpy as np
import pytest

from homsys import DomainError
from homsys import serpar


@pytest.mark.parametrize("seed", range(10))
def test_reduce_matches_exact_oracles(seed):
    g = serpar.build(8, 0.5, seed)
    r_red, d_red = serpar.reduce_graph(g)
    assert serpar.resistance_exact(g) == pytest.approx(r_red, rel=1e-9)
    assert serpar.distance_exact(g) == d_red


def test_build_is_deterministic_and_sized():
    a, b = serpar.build(6, 0.3, 4), serpar.build(6, 0.3, 4)
    assert all(np.array_equal(x, y) for x, y in zip(a.history, b.history))
    assert a.n_edges == 64
    edges, n_nodes, _, _ = a.explicit
    assert len(edges) == 64 and n_nodes == 2 + sum(int(h.sum()) for h in a.history)


def test_the_explicit_graph_is_derived_once_and_read_only():
    g = serpar.build(6, 0.5, 1)
    r, d = serpar.resistance_exact(g), serpar.distance_exact(g)
    edges = g.explicit[0]
    assert g.explicit[0] is edges and not edges.flags.writeable
    assert (serpar.resistance_exact(g), serpar.distance_exact(g)) == (r, d)
    with pytest.raises(DomainError):
        serpar.build(17, 0.5, 1).explicit


def test_all_series_and_all_parallel():
    n = 5
    series = serpar.SPGraph(tuple(np.ones(2**k, dtype=bool) for k in range(n)))
    parallel = serpar.SPGraph(tuple(np.zeros(2**k, dtype=bool) for k in range(n)))
    assert serpar.reduce_graph(series) == (32.0, 32.0)
    assert serpar.reduce_graph(parallel) == (1.0 / 32.0, 1.0)


def test_bad_history_rejected():
    with pytest.raises(DomainError):
        serpar.SPGraph((np.ones(2, dtype=bool),))


def test_exact_resistance_of_the_smallest_and_extreme_graphs():
    assert serpar.resistance_exact(serpar.single_edge()) == pytest.approx(1.0, rel=1e-12)
    n = 5
    series = serpar.SPGraph(tuple(np.ones(2**k, dtype=bool) for k in range(n)))
    parallel = serpar.SPGraph(tuple(np.zeros(2**k, dtype=bool) for k in range(n)))
    assert serpar.resistance_exact(series) == pytest.approx(32.0, rel=1e-12)
    assert serpar.resistance_exact(parallel) == pytest.approx(1.0 / 32.0, rel=1e-12)


@pytest.mark.parametrize("p", [0.3, 0.5, 0.7])
@pytest.mark.parametrize("seed", range(3))
def test_exact_oracles_at_the_criterion_5_size(p, seed):
    g = serpar.build(12, p, seed)
    r_red, d_red = serpar.reduce_graph(g)
    assert serpar.resistance_exact(g) == pytest.approx(r_red, rel=1e-10)
    assert serpar.distance_exact(g) == d_red


def test_exact_oracles_of_the_n12_extremes():
    n = 12
    series = serpar.SPGraph(tuple(np.ones(2**k, dtype=bool) for k in range(n)))
    parallel = serpar.SPGraph(tuple(np.zeros(2**k, dtype=bool) for k in range(n)))
    assert serpar.resistance_exact(series) == pytest.approx(4096.0, rel=1e-12)
    assert serpar.distance_exact(series) == 4096.0
    assert serpar.resistance_exact(parallel) == pytest.approx(2.0**-12, rel=1e-12)
    assert serpar.distance_exact(parallel) == 1.0
