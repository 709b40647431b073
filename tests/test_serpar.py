import json

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.csgraph as csgraph

from homsys import DomainError, HomsysError
from homsys import cli, serpar

import coo_laplacian_oracles
import full_array_fold
import single_graph_serpar


@pytest.mark.parametrize("seed", range(10))
def test_reduce_matches_exact_oracles(seed):
    g = serpar.build(8, 0.5, [seed])
    r_red, d_red = serpar.reduce_graph(g)
    assert serpar.resistance_exact(g) == pytest.approx(r_red, rel=1e-9)
    assert serpar.distance_exact(g) == d_red


@pytest.mark.parametrize("p", [0.0, 0.3, 0.5, 1.0])
def test_the_buffered_fold_gives_the_bits_of_the_full_array_fold(p):
    for n in range(15):
        for seed in range(3):
            g = serpar.build(n, p, [seed])
            got, want = [x[0] for x in serpar.reduce_graph(g)], full_array_fold.reduce_graph(g)
            assert [x.hex() for x in got] == [x.hex() for x in want], (n, seed)


def test_build_is_deterministic_and_sized():
    a, b = serpar.build(6, 0.3, [4]), serpar.build(6, 0.3, [4])
    assert all(np.array_equal(x, y) for x, y in zip(a.history, b.history))
    assert a.n_edges == 64
    layout = a._layout
    n_nodes = layout.owner.size
    degree = np.bincount(layout.u, minlength=n_nodes) + np.bincount(layout.v, minlength=n_nodes)
    assert degree.sum() == 2 * 64 and n_nodes == 2 + sum(int(h.sum()) for h in a.history)


def test_the_laplacian_is_derived_once_and_read_only():
    g = serpar.build(6, 0.5, [1])
    r, d = serpar.resistance_exact(g), serpar.distance_exact(g)
    layout = g._layout
    assert not any(x.flags.writeable for x in layout[:-1])  # the leaf edges and slots both oracles read
    assert (serpar.resistance_exact(g), serpar.distance_exact(g)) == (r, d)
    assert g._layout is layout
    too_big = serpar.build(serpar.MAX_ORACLE_ROUNDS + 1, 0.5, [1])
    for derive in (lambda g: g._layout, serpar.resistance_exact, serpar.distance_exact):
        with pytest.raises(DomainError):
            derive(too_big)


@pytest.mark.parametrize("n, p, seed", [(0, 0.5, 0), (1, 0.5, 3), (7, 0.3, 4), (12, 0.5, 2), (5, 0.0, 1), (5, 1.0, 1)])
def test_build_draws_every_round_from_one_stream(n, p, seed):
    rng = np.random.Generator(np.random.Philox(key=np.array([seed, 0], dtype=np.uint64)))
    expected = [rng.random(2**k) < p for k in range(n)]
    history = serpar.build(n, p, [seed]).history
    assert len(history) == n and all(np.array_equal(h, e) for h, e in zip(history, expected))


@pytest.mark.parametrize("n, p", [(3, -0.1), (3, 1.5), (0, float("nan")), (-1, 0.5), (serpar.MAX_ROUNDS + 1, 0.5)])
def test_build_rejects_bad_rounds_and_probabilities(n, p):
    with pytest.raises(DomainError):
        serpar.build(n, p, [0])


@pytest.mark.parametrize(
    "g",
    [serpar.build(12, p, [seed]) for p in (0.0, 0.3, 0.5, 0.7, 1.0) for seed in range(3)]
    + [serpar.SPGraph(()), serpar.build(16, 0.5, [0])],
)
def test_oracles_give_the_bits_of_the_coo_path(g):
    # the distance is the same bits; the resistance comes from another factorisation than
    # SuperLU's, so it agrees to criterion 5's bound, which is also the residual tolerance
    assert serpar.resistance_exact(g) == pytest.approx(coo_laplacian_oracles.resistance_exact(g), rel=1e-9)
    assert serpar.distance_exact(g) == coo_laplacian_oracles.distance_exact(g)


@pytest.mark.parametrize("p", [0.1, 0.5, 0.9])
@pytest.mark.parametrize("n", [1, 6, 12])
def test_the_distances_of_a_forest_are_the_breadth_first_searches_of_its_graphs(n, p):
    seeds = [5, 0, 7, 1, 6, 2, 4, 3]
    want = [coo_laplacian_oracles.distance_exact(serpar.build(n, p, [seed])) for seed in seeds]
    assert serpar.distance_exact(serpar.build(n, p, seeds)).tolist() == want


@pytest.mark.parametrize("root", [0, 1])
def test_a_failed_hop_certificate_names_the_seed(root):
    # one series round: the midpoint j of root 0 is m - 1 and that of root 1 is m - 2, each
    # splitting its root's (a, z); with j's a-slot moved onto its z-slot, j and z are unreached,
    # so j's hops exceed its a-neighbour's by more than 1
    g = serpar.build(1, 1.0, [4, 9])
    assert serpar.distance_exact(g).tolist() == [2.0, 2.0]
    g = serpar.build(1, 1.0, [4, 9])
    layout = g._layout
    m = layout.owner.size - 4
    j = m - 1 - root
    assert layout.split[j].tolist() == [m + 2 * root, m + 2 * root + 1]
    slot = layout.slot.copy()
    slot[slot == 2 * j] = 2 * j + 1
    g.__dict__["_layout"] = layout._replace(slot=slot)
    with pytest.raises(HomsysError, match=f"^seed {[4, 9][root]}: hop distances fail their certificate"):
        serpar.distance_exact(g)


@pytest.mark.parametrize("root", [0, 1])
def test_hops_that_an_edge_skips_fail_the_certificate(root):
    # a parallel pair, then a series split of the first copy: z is one hop from a by the second
    # copy; with that edge's slot moved off a's a-z slot, z gets the 2 hops through the midpoint,
    # every node still has a neighbour one hop lower, but the a-z edge changes the hops by 2
    history = (np.zeros(2, dtype=bool), np.array([True, False, True, False]))
    assert serpar.distance_exact(serpar.SPGraph(history, seeds=(4, 9))).tolist() == [1.0, 1.0]
    g = serpar.SPGraph(history, seeds=(4, 9))
    layout = g._layout
    a = layout.owner.size - 4 + 2 * root
    slot = layout.slot.copy()
    slot[slot == 2 * a + 1] = 2 * a
    g.__dict__["_layout"] = layout._replace(slot=slot)
    with pytest.raises(HomsysError, match=f"^seed {[4, 9][root]}: hop distances fail their certificate"):
        serpar.distance_exact(g)


@pytest.mark.parametrize("p", [0.0, 0.3, 0.5, 1.0])
@pytest.mark.parametrize("n", [0, 1, 2, 7, 12, 16])
def test_the_split_ends_are_the_edges_the_midpoints_split(n, p):
    g = serpar.build(n, p, [0])
    split = coo_laplacian_oracles.split_edges(g)
    n_nodes = 2 + len(split)
    label = np.arange(n_nodes - 1, -1, -1)  # reverse creation labels, a and z last
    label[0], label[1] = n_nodes - 2, n_nodes - 1
    want = np.empty((n_nodes - 1, 2), dtype=np.int64)
    want[label[2:]] = label[split]
    want[n_nodes - 2] = n_nodes - 1
    got = g._layout.split
    assert got.dtype == np.intp and not got.flags.writeable
    assert np.array_equal(got, want)


def test_a_laplacian_entry_outside_the_split_end_slots_is_rejected(monkeypatch):
    leaf_ends = serpar._leaf_ends

    def moved(history, roots):
        # the leaf edge at the youngest midpoint, its older end moved to another older node
        ends, split, owner = leaf_ends(history, roots)
        edges = ends.reshape(-1, 2).copy()
        e = edges.min(axis=1).argmin()
        young = edges[e].min()
        edges[e, edges[e].argmax()] = next(w for w in range(young + 1, owner.size) if w not in split[young])
        return edges.ravel(), split, owner

    serpar.resistance_exact(serpar.build(6, 0.5, [1]))
    monkeypatch.setattr(serpar, "_leaf_ends", moved)
    g = serpar.build(6, 0.5, [1])
    # both oracles read the layout, whose derivation rejects the edge each time
    for oracle in (serpar.resistance_exact, serpar.distance_exact):
        with pytest.raises(HomsysError, match="split-end slots"):
            oracle(g)


@pytest.mark.xfail(raises=AssertionError, strict=True, reason=(
    "on long series chains the elimination loses digits while both certificates pass; ROADMAP direction 13's "
    "one step of iterative refinement mends it, and moves R_exact's last digits and the serpar golden digests"))
def test_long_series_chains_meet_criterion_5s_resistance_bound(tmp_path):
    # a failed certificate exits without a summary, which fails this test instead of meeting the xfail
    cli.main(["serpar", "--p", "0.9", "--n", "16", "--seeds", "2", "--check-exact", "--out", str(tmp_path / "s")])
    summary = json.loads((tmp_path / "s.json").read_text())
    assert summary["max_rel_resistance_error"] < 1e-9


def test_a_residual_above_the_tolerance_is_rejected(monkeypatch):
    g = serpar.build(8, 0.5, [0])
    serpar.resistance_exact(g)
    monkeypatch.setattr(serpar, "_RESIDUAL_TOL", 0.0)
    with pytest.raises(HomsysError, match="residual .* too large"):
        serpar.resistance_exact(g)


@pytest.mark.parametrize(
    "g", [serpar.SPGraph(()), serpar.build(6, 0.5, [1]), serpar.build(12, 0.3, [2]),
          serpar.SPGraph(tuple(np.ones(2**k, dtype=bool) for k in range(16)))]
    + [serpar.build(16, p, [3]) for p in (0.0, 1.0)] + [serpar.build(n, p, [0]) for n in (0, 1) for p in (0.0, 1.0)]
)
def test_the_leaf_edges_are_the_graphs_edges_and_give_its_laplacian(g):
    layout = g._layout
    edges, n, a, z = coo_laplacian_oracles.explicit(g)
    assert layout.owner.size == n and layout.u.dtype == layout.v.dtype == layout.slot.dtype == np.intp
    label = np.arange(n - 1, -1, -1)
    label[a], label[z] = n - 2, n - 1
    # relabelled, the explicit graph's edges, parallel copies included
    got = np.stack([layout.u, layout.v], axis=1)
    assert sorted(map(tuple, got.tolist())) == sorted(map(tuple, label[edges].tolist()))
    # the degrees the resistance oracle's diagonal starts from
    degree = np.zeros(n, dtype=np.intp)
    degree[label] = np.bincount(edges.ravel(), minlength=n)
    assert np.array_equal(np.bincount(layout.u, minlength=n) + np.bincount(layout.v, minlength=n), degree)
    # each edge takes its older end's slot among its younger end's two, so the slots' edge
    # counts and the degrees are the very Laplacian scipy makes from the edge triplets
    young, old = np.minimum(layout.u, layout.v), np.maximum(layout.u, layout.v)
    assert np.array_equal(layout.slot // 2, young) and np.array_equal(layout.split.ravel()[layout.slot], old)
    count = np.bincount(layout.slot, minlength=2 * (n - 1))
    slot = np.flatnonzero(count)
    below, col = layout.split.ravel()[slot], slot // 2
    nodes = np.arange(n)
    L = sp.csc_matrix((np.concatenate([degree, -count[slot], -count[slot]]),
                       (np.concatenate([nodes, below, col]), np.concatenate([nodes, col, below]))), shape=(n, n))
    grounded = L[: n - 1, : n - 1]
    ref = coo_laplacian_oracles.grounded_laplacian(g)
    for got, want in [(grounded.data, ref.data), (grounded.indices, ref.indices), (grounded.indptr, ref.indptr)]:
        assert np.array_equal(got, want)


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
    assert serpar.resistance_exact(serpar.SPGraph(())) == pytest.approx(1.0, rel=1e-12)
    assert serpar.distance_exact(serpar.SPGraph(())) == 1.0
    n = 5
    series = serpar.SPGraph(tuple(np.ones(2**k, dtype=bool) for k in range(n)))
    parallel = serpar.SPGraph(tuple(np.zeros(2**k, dtype=bool) for k in range(n)))
    assert serpar.resistance_exact(series) == pytest.approx(32.0, rel=1e-12)
    assert serpar.resistance_exact(parallel) == pytest.approx(1.0 / 32.0, rel=1e-12)


@pytest.mark.parametrize("p", [0.3, 0.5, 0.7])
@pytest.mark.parametrize("seed", range(3))
def test_exact_oracles_at_the_criterion_5_size(p, seed):
    g = serpar.build(12, p, [seed])
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


def _single_graph_bits(n, p, seed):
    """(R_reduce, R_exact, D_reduce, D_exact) of the seed's graph built and solved on its own, as hex."""
    g = single_graph_serpar.build(n, p, seed)
    r, d = single_graph_serpar.reduce_graph(g)
    return [x.hex() for x in (r, single_graph_serpar.resistance_exact(g), d, single_graph_serpar.distance_exact(g))]


def _forest_bits(g, oracles=True):
    r, d = serpar.reduce_graph(g)
    if not oracles:
        return [[x.hex(), None, y.hex(), None] for x, y in zip(r.tolist(), d.tolist())]
    values = zip(r.tolist(), serpar.resistance_exact(g).tolist(), d.tolist(), serpar.distance_exact(g).tolist())
    return [[x.hex() for x in root] for root in values]


def test_criterion_5_forests_give_every_seed_the_bits_of_its_own_graph():
    forests = list(serpar.forests(12, 0.5, range(200)))
    assert [g.roots for g in forests] == [8] * 25
    assert [s for g in forests for s in g.seeds] == list(range(200))
    got = [bits for g in forests for bits in _forest_bits(g)]
    assert got == [_single_graph_bits(12, 0.5, seed) for seed in range(200)]


@pytest.mark.parametrize("p", [0.0, 0.3, 0.5, 1.0])
def test_forests_of_1_3_and_8_roots_give_every_root_the_bits_of_its_own_graph(p):
    for n in range(15):
        want = {seed: _single_graph_bits(n, p, seed) for seed in range(8)}
        for seeds in ([0], [1], [2], [2, 0, 1], [5, 0, 7, 1, 6, 2, 4, 3]):
            g = serpar.build(n, p, seeds)
            alone = [serpar.build(n, p, [seed]).history for seed in seeds]
            for k, h in enumerate(g.history):
                assert np.array_equal(h, np.concatenate([history[k] for history in alone])), (n, seeds, k)
            within_cap = g.n_edges <= 2**serpar.MAX_ORACLE_ROUNDS
            got = _forest_bits(g, oracles=within_cap)
            for seed, bits in zip(seeds, got):
                assert bits == (want[seed] if within_cap else [want[seed][0], None, want[seed][2], None]), (n, seed)


def test_forests_chunk_the_seeds_in_order_up_to_the_edge_cap():
    assert [g.seeds for g in serpar.forests(12, 0.5, range(3, 23))] == [tuple(range(3, 11)), tuple(range(11, 19)),
                                                                        tuple(range(19, 23))]
    assert [g.roots for g in serpar.forests(10, 0.5, range(33))] == [32, 1]
    assert [g.seeds for g in serpar.forests(16, 0.5, [4, 2])] == [(4,), (2,)]
    for n in range(17):
        assert all(g.n_edges <= max(serpar.FOREST_EDGES, 2**n) for g in serpar.forests(n, 0.5, range(3)))
    assert list(serpar.forests(3, 0.5, [])) == []
    with pytest.raises(DomainError):
        next(serpar.forests(-1, 0.5, range(3)))


def test_a_forest_over_the_oracle_cap_is_rejected_by_both_oracles():
    at_cap = serpar.build(15, 0.5, [0, 1])
    assert at_cap.n_edges == 2**serpar.MAX_ORACLE_ROUNDS
    assert serpar.resistance_exact(at_cap).shape == serpar.distance_exact(at_cap).shape == (2,)
    over = serpar.build(14, 0.5, range(5))
    for oracle in (serpar.resistance_exact, serpar.distance_exact):
        with pytest.raises(DomainError, match="capped"):
            oracle(over)


def test_distance_counts_a_chain_of_65536_hops_and_a_single_hop():
    assert serpar.distance_exact(serpar.build(16, 1.0, [0])).tolist() == [65536.0]
    assert serpar.distance_exact(serpar.build(16, 0.0, [0])).tolist() == [1.0]


def test_a_failed_residual_names_the_seed(monkeypatch):
    g = serpar.build(6, 0.5, [4, 9])
    monkeypatch.setattr(serpar, "_RESIDUAL_TOL", 0.0)
    with pytest.raises(HomsysError, match="^seed 4: Laplacian solve residual"):
        serpar.resistance_exact(g)
    with pytest.raises(HomsysError, match="^seed 4: Laplacian solve residual"):
        serpar.resistance_exact(serpar.SPGraph(g.history, seeds=(4, 9)))
    # a history given without seeds is one root, seed 0
    with pytest.raises(HomsysError, match="^seed 0: Laplacian solve residual"):
        serpar.resistance_exact(serpar.SPGraph(serpar.build(6, 0.5, [9]).history))


@pytest.mark.parametrize("roots, seeds", [(0, ()), (2, (1,))])
def test_bad_roots_or_seeds_rejected(roots, seeds):
    # a history grown from `roots` root edges needs exactly that many seeds, and at least one
    history = tuple(np.zeros(roots * 2**k, dtype=bool) for k in range(3))
    with pytest.raises(DomainError):
        serpar.SPGraph(history, seeds=seeds)


def test_a_forest_needs_one_seed_per_root():
    with pytest.raises(DomainError, match="^a forest needs at least one seed$"):
        serpar.SPGraph((), seeds=())
    two_roots = serpar.build(3, 0.5, [1, 2]).history
    for seeds in ((1,), (0,), (1, 2, 3)):
        with pytest.raises(DomainError, match="^round 0 must hold"):
            serpar.SPGraph(two_roots, seeds=seeds)
    with pytest.raises(DomainError, match="^round 0 must hold"):
        serpar.SPGraph(two_roots)


def test_build_rejects_an_empty_seed_list():
    with pytest.raises(DomainError, match="^a forest needs at least one seed$"):
        serpar.build(3, 0.5, [])


@pytest.mark.parametrize("p", [0.0, 0.3, 0.5, 1.0])
@pytest.mark.parametrize("seeds", [[3], [2, 0, 1], [5, 0, 7, 1, 6, 2, 4, 3]], ids=["1", "3", "8"])
def test_the_root_of_each_node_is_its_connected_component(seeds, p):
    # the root the derivation pass records for each node is the one whose terminals share its component
    for n in (0, 1, 2, 5, 10, 12):
        g = serpar.build(n, p, seeds)
        layout = g._layout
        size = layout.owner.size
        adjacency = sp.coo_matrix((np.ones(layout.u.size), (layout.u, layout.v)), shape=(size, size))
        count, component = csgraph.connected_components(adjacency, directed=False)
        owner = layout.owner
        assert count == g.roots and owner.size == size and not owner.flags.writeable
        terminals = component[size - 2 * g.roots :]
        assert np.array_equal(terminals[0::2], terminals[1::2])
        root_of = np.empty(count, dtype=int)
        root_of[terminals[0::2]] = np.arange(g.roots)
        assert np.array_equal(owner, root_of[component]), (n, seeds)
