"""Random series-parallel graphs with independent resistance/distance oracles.

A graph here is a forest: G >= 1 root edges, one per seed, grown together.
The primary structure is the replacement history: round k holds one boolean
per edge present at that round (True = the edge was replaced by two edges in
series, False = by two parallel edges), root-major, so root g's round-k
edges are [g 2^k, (g+1) 2^k); the children of edge e are 2e and 2e+1, so
they stay within their root.  Reduction is a vectorized bottom-up fold over
the history that stops at the G roots; the forest's nodes and edges are
derived only to feed the two Laplacian oracles, resistance and distance,
which never read the fold.  A single graph is a forest with one root, and
every root gets the bits it would get alone.  The seeds name the roots; a history
given without seeds is one root, seed 0.

Nodes are numbered in creation order over the whole forest (each round's
series midpoints, the rounds concatenated, so round-major and root-major
within a round) and labelled in reverse, with the terminals last: root g's
a and z are m + 2g and m + 2g + 1, m being the number of midpoints.  Within
one root this is the order the root has alone.  Reverse creation order is a
perfect elimination order: a node made on edge (u, v) is only ever adjacent
to u, v and nodes made after it, so once those are eliminated its neighbours
are exactly u and v, and eliminating it adds at most the fill edge u-v.
Midpoints of one round are never adjacent to each other, so the oracles
eliminate a whole round of every root at once, the last round first: for
resistance a pivot, two diagonal updates and one fill per midpoint, for
distance one fill per midpoint, in a few array operations and with no sparse
factorisation.  A round's midpoints hold one contiguous label range [lo, hi),
and the ends of the edges they split are older, so their labels are >= hi:
the round's updates are binned from hi on and cost the labels they reach, not
those below.

Each forest derives, once, the one structure both oracles read
(`SPGraph._layout`), straight from the history: the midpoints take consecutive
labels down from the terminals, round by round, and the leaf edges' ends are
expanded round by round into the forest's edge list, with the edge each
midpoint split and the root of each node, read off each round's series
positions.  A node's older neighbours are among the two ends of the edge it
split, so every leaf edge takes one of two slots of its younger end: the slots
below the diagonal of the Laplacian's column, which the elimination fills.  The
oracles run one elimination in two semirings: the resistance oracle in (+, *)
from the degrees and each slot's edge multiplicity, certified by each root's
residual, L x taken edge by edge, and the distance oracle in (min, +) over the
occupied slots (Carré, IMA J. Appl. Math. 7, 1971), certified by a one-hop check
of every edge; neither builds a matrix, and numpy is all they need.  `forests`
groups seeds into forests of at most FOREST_EDGES edges: one seed per call
leaves most of the time in numpy's per-call overhead, and larger forests ran no
faster but hold more memory.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from typing import NamedTuple

import numpy as np

from .errors import DomainError, HomsysError

__all__ = ["SPGraph", "build", "forests", "reduce_graph", "resistance_exact", "distance_exact"]

MAX_ROUNDS = 24  # 2^24 edges: one build and its fold peak at 0.27 GB resident (ru_maxrss)
MAX_ORACLE_ROUNDS = 16  # the oracles' layout is derived for forests of up to 2^16 edges
FOREST_EDGES = 2**15  # `forests` makes forests of at most this many edges: 8 seeds at n = 12
_RESIDUAL_TOL = 1e-9  # largest Laplacian solve residual accepted, relative to max(1, |rhs|)


class _Layout(NamedTuple):
    """The leaf edges and the elimination layout both oracles read (`SPGraph._layout`), as
    read-only index arrays, nodes in reverse creation labels.

    Node j < n - 1 has two slots, 2 j and 2 j + 1, for the two ends of the edge it split
    (`split`): the nodes older than j that j meets are among those two ends, so they are the
    only entries below the diagonal of the Laplacian's column j."""

    u: np.ndarray  # each leaf edge's ends, in its a-to-z orientation
    v: np.ndarray
    slot: np.ndarray  # the slot each leaf edge takes: its older end's, in its younger end's pair
    split: np.ndarray  # row j < m: the ends of the edge midpoint j split, a to z; a terminal's row: its root's (z, z)
    owner: np.ndarray  # the root of each node
    fill_slot: np.ndarray  # row j < m: the slot that eliminating midpoint j fills
    rounds: tuple[tuple[int, int], ...]  # each round's midpoint labels [lo, hi), in elimination order


@dataclass(frozen=True)
class SPGraph:
    """Series-parallel forest: one root edge per seed of `seeds`, grown n rounds by the
    replacement `history` (roots * 2^n edges), root-major within each round.  The seeds
    name the roots in error messages and output: the seed each root was drawn from
    (`build`); a history given without seeds is one root, seed 0."""

    history: tuple[np.ndarray, ...]
    seeds: tuple[int, ...] = (0,)

    @property
    def roots(self) -> int:
        return len(self.seeds)

    @property
    def rounds(self) -> int:
        return len(self.history)

    @property
    def n_edges(self) -> int:
        return self.roots * 2**self.rounds

    def __post_init__(self):
        if not self.seeds:
            raise DomainError("a forest needs at least one seed")
        for k, h in enumerate(self.history):
            if h.dtype != np.bool_ or h.shape != (self.roots * 2**k,):
                raise DomainError(f"round {k} must hold roots * 2^{k} boolean choices")

    @cached_property
    def _layout(self) -> _Layout:
        """The oracles' layout (`_Layout`), derived from `history` on first use and kept,
        read-only; a leaf edge whose older end is not a split end of its younger end raises
        `HomsysError`."""
        if self.n_edges > 2**MAX_ORACLE_ROUNDS:
            raise DomainError(f"oracle forests are capped at 2^{MAX_ORACLE_ROUNDS} edges")
        ends, split, owner = _leaf_ends(self.history, self.roots)
        # index arrays are intp, which numpy gathers fastest
        u, v = ends[0::2].astype(np.intp), ends[1::2].astype(np.intp)
        split = split.astype(np.intp)
        young, old = np.minimum(u, v), np.maximum(u, v)
        slot = 2 * young
        slot += old == split[young, 1]
        if not np.array_equal(split.ravel()[slot], old):
            raise HomsysError("leaf edge off the split-end slots of its younger end")
        # eliminating midpoint j fills (s, t) = split[j] in the slots of its younger end c,
        # at c's second slot if c is s (edge (c, t) descends from c's second edge), else its first
        m = owner.size - 2 * self.roots
        s, t = split[:m, 0], split[:m, 1]
        fill_slot = 2 * np.minimum(s, t)
        fill_slot += s < t
        # the last round's midpoints hold the lowest labels, then the round before it, and so on
        bounds = [0, *accumulate(np.count_nonzero(h) for h in reversed(self.history))]
        rounds = tuple((lo, hi) for lo, hi in zip(bounds, bounds[1:]) if lo < hi)
        layout = _Layout(u, v, slot, split, owner, fill_slot, rounds)
        for arr in layout[:-1]:
            arr.flags.writeable = False
        return layout


def _leaf_ends(history: tuple[np.ndarray, ...], roots: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The leaf edges' ends (u0, v0, u1, v1, ...) and the split ends (`_Layout.split`),
    both in reverse creation labels, and the root of each node, by label.

    The c-th midpoint made (from 1) gets label m - c, below the terminals m, ..., m + 2 roots - 1,
    so each round's midpoints take the next labels down.  Round by round, edge (u, v) makes
    (u, v), (u, v) in parallel and (u, mid), (mid, v) in series, and row mid of the split ends is
    (u, v); each edge is viewed as one int64, so that one copy moves both ends.  Root g holds
    positions [g 2^k, (g+1) 2^k) of round k, so the midpoint made at position i belongs to root
    i >> k, and the terminals m + 2g and m + 2g + 1 to root g."""
    series_at = [np.flatnonzero(h) for h in history]
    m = sum(at.size for at in series_at)
    n = m + 2 * roots
    owner = np.arange(-m, n - m, dtype=np.int32)
    owner >>= 1  # the terminals' roots; each round sets its midpoints'
    ends = np.arange(m, n, dtype=np.int32)  # the root edges (a_g, z_g)
    split = np.empty((n - 1, 2), dtype=np.int32)
    split[m:] = (m + (np.arange(n - 1 - m, dtype=np.int32) | 1))[:, None]  # a terminal's row: its root's z, twice
    split_edge = split[:m].view(np.int64)[:, 0]
    hi = m
    for k, at in enumerate(series_at):
        lo = hi - at.size
        edge = ends.view(np.int64)
        split_edge[lo:hi] = edge[at][::-1]
        owner[lo:hi] = (at >> k)[::-1]
        ends = np.repeat(edge, 2).view(np.int32)
        label = np.arange(hi - 1, lo - 1, -1, dtype=np.int32)
        children = ends.reshape(-1, 4)  # row e: the ends of edges 2e and 2e + 1
        children[at, 1] = label
        children[at, 2] = label
        hi = lo
    return ends, split, owner


def _check_growth(n: int, p: float) -> None:
    if not 0 <= n <= MAX_ROUNDS:
        raise DomainError(f"n must lie in [0, {MAX_ROUNDS}]")
    if not 0.0 <= p <= 1.0:
        raise DomainError("p must lie in [0, 1]")


def build(n: int, p: float, seeds: Iterable[int]) -> SPGraph:
    """A forest of one root edge per seed, grown n rounds by replacing each edge by a series
    pair (prob p) or a parallel pair (prob 1-p).

    Each seed draws its 2^n - 1 uniforms at once from its own Philox stream, round k taking
    [2^k - 1, 2^(k+1) - 1): the numbers a draw per round would give."""
    _check_growth(n, p)
    seeds = tuple(seeds)
    uniforms = np.empty((len(seeds), 2**n - 1))
    for row, seed in zip(uniforms, seeds):
        np.random.Generator(np.random.Philox(key=np.array([seed, 0], dtype=np.uint64))).random(out=row)
    series = uniforms < p
    history = tuple(series[:, 2**k - 1 : 2 ** (k + 1) - 1].ravel() for k in range(n))
    return SPGraph(history, seeds)


def forests(n: int, p: float, seeds: Iterable[int]) -> Iterator[SPGraph]:
    """`build(n, p, ...)` over `seeds` in order, in forests of at most FOREST_EDGES edges
    (one seed each once n >= 15)."""
    _check_growth(n, p)
    seeds = list(seeds)
    per = max(1, FOREST_EDGES >> n)
    for lo in range(0, len(seeds), per):
        yield build(n, p, seeds[lo : lo + per])


def reduce_graph(g: SPGraph) -> tuple[np.ndarray, np.ndarray]:
    """(effective resistance, distance) of each root, by folding the replacement trees.

    Series adds resistances and lengths; parallel harmonic-sums resistances
    and takes the shorter length.  Leaves are unit edges, so the last round
    makes pairs of resistance 2 or 1/2 and length 2 or 1.  Each earlier round
    folds into the front of the arrays the round before it read, so the fold
    holds the last round's two arrays and three of half their size.
    """
    if not g.history:
        return np.ones(g.roots), np.ones(g.roots)
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
    return r.copy(), d.copy()  # copies, so that the fold's buffers go


def resistance_exact(g: SPGraph) -> np.ndarray:
    """Effective resistance between each root's terminals via the forest's Laplacian.

    Unit current is injected at every a with every z grounded.  The Laplacian,
    the degrees on its diagonal and minus each slot's edge multiplicity below
    it (`SPGraph._layout`), is eliminated as L D L^T in its own order, the
    perfect elimination order of the module docstring, one round of midpoints
    per step, the last round first; no z is a pivot, which grounds it.  When
    its round comes, a midpoint meets only the two ends of the edge it split,
    its two slots.  Back-substitution walks the rounds in reverse.  The
    potentials are then certified root by root by the residual of the grounded
    system, L x taken edge by edge, however they were computed; nothing of the
    fold is read.
    """
    s = g._layout
    n = s.owner.size
    m = n - 2 * g.roots  # the midpoints; the a's are m, m + 2, ... and the z's follow each
    diag = np.add(np.bincount(s.u, minlength=n), np.bincount(s.v, minlength=n), dtype=float)
    off = np.negative(np.bincount(s.slot, minlength=2 * (n - 1)), dtype=float)
    off_pairs = off.reshape(-1, 2)
    factor = np.empty((m, 2))  # the two entries of L below each midpoint's unit diagonal
    for lo, hi in s.rounds:
        w = off_pairs[lo:hi]
        f = np.divide(w, diag[lo:hi, None], out=factor[lo:hi])
        lost = np.bincount(s.split[lo:hi].ravel() - hi, weights=(w * f).ravel())
        diag[hi : hi + lost.size] -= lost
        fill = np.bincount(s.fill_slot[lo:hi] - 2 * hi, weights=w[:, 0] * f[:, 1])
        off[2 * hi : 2 * hi + fill.size] -= fill
    # L D L^T x = e_a: e_a is zero on every midpoint, so the forward sweep leaves it as it is,
    # and L^T x = e_a / D_a remains, with every z grounded at 0
    x = np.zeros(n)
    np.divide(1.0, diag[m::2], out=x[m::2])
    for lo, hi in reversed(s.rounds):
        terms = x[s.split[lo:hi]]
        terms *= factor[lo:hi]
        np.add(terms[:, 0], terms[:, 1], out=x[lo:hi])
        np.negative(x[lo:hi], out=x[lo:hi])
    current = x[s.u] - x[s.v]  # each edge's, from u to v
    lx = np.bincount(s.u, weights=current, minlength=n)
    lx -= np.bincount(s.v, weights=current, minlength=n)
    lx[m::2] -= 1.0
    lx[m + 1 :: 2] = 0.0  # a z's row is not in the grounded system
    # each root's residual, whose right side has norm 1
    residual = np.sqrt(np.bincount(s.owner, weights=lx * lx, minlength=g.roots))
    bad = np.flatnonzero(~(residual <= _RESIDUAL_TOL))
    if bad.size:
        raise HomsysError(f"seed {g.seeds[bad[0]]}: Laplacian solve residual {residual[bad[0]]:.3g} too large")
    r = x[m::2].copy()
    bad = np.flatnonzero(~(np.isfinite(r) & (r > 0)))
    if bad.size:
        raise HomsysError(f"seed {g.seeds[bad[0]]}: singular Laplacian system; graph disconnected?")
    return r


def distance_exact(g: SPGraph) -> np.ndarray:
    """Terminal-to-terminal hop distance of each root (all edges have unit length).

    The resistance oracle's elimination in the (min, +) semiring (Carré's path
    algebra): each slot of `SPGraph._layout` starts at 1 hop where a leaf edge
    takes it and unreached where none does; eliminating a midpoint offers its
    split ends the path through it, the sum of its two slots, and after the
    last round each a's a-z slot holds its root's distance.  Back-substitution
    walks the rounds in reverse, from every a at 0: a midpoint's hops are the
    smaller of its split ends' hops plus its slots.  The hops pi are then
    certified on the leaf edges, however they were computed: each a has pi = 0,
    no edge changes pi by more than 1, and every other node has a neighbour
    with pi one lower, so pi is the hop distance from the a.  A failed
    certificate raises `HomsysError` naming the seed.
    """
    s = g._layout
    n = s.owner.size
    m = n - 2 * g.roots
    unreached = n + 1  # above every hop count, and two of them add up within int32
    hop = np.full(2 * (n - 1), unreached, dtype=np.int32)
    hop[s.slot] = 1
    hop_pairs = hop.reshape(-1, 2)
    for lo, hi in s.rounds:
        # midpoints splitting parallel copies of one edge fill one slot: reduce, don't assign
        np.minimum.at(hop, s.fill_slot[lo:hi], np.add(hop_pairs[lo:hi, 0], hop_pairs[lo:hi, 1]))
    pi = np.empty(n, dtype=np.int32)
    pi[m::2] = 0
    pi[m + 1 :: 2] = hop[2 * m + 1 :: 4]  # an a's split ends are (z, z), so its a-z slot is 2 a + 1
    for lo, hi in reversed(s.rounds):
        via = pi[s.split[lo:hi]]
        via += hop_pairs[lo:hi]
        np.minimum(via[:, 0], via[:, 1], out=pi[lo:hi])
    step = pi[s.u] - pi[s.v]
    bad = np.ones(n, dtype=bool)  # until a neighbour one hop lower is found
    bad[s.u[step == 1]] = False
    bad[s.v[step == -1]] = False
    bad[m::2] = pi[m::2] != 0
    bad[s.u[np.abs(step) > 1]] = True
    bad = np.flatnonzero(bad)
    if bad.size:
        seed = g.seeds[s.owner[bad].min()]
        raise HomsysError(f"seed {seed}: hop distances fail their certificate on the leaf edges")
    return pi[m + 1 :: 2].astype(float)
