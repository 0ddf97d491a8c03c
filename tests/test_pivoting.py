from __future__ import annotations

import os
import random
import subprocess
import sys
from fractions import Fraction
from math import comb
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clusterdel import (
    Clustering,
    Graph,
    InvariantError,
    PivotStrategy,
    clustering_lines,
    er_graph,
    pivot,
)
from clusterdel import pivoting
from clusterdel.pivoting import _RatioSelector, adjacency_lists, pivot_lists
from helpers import (cut_deletions, draw_live_candidate, planted_clusters,
                     pivot_by_residual_graph)
from oracles import _RandomSelector


def test_strategy_validation():
    with pytest.raises(ValueError):
        PivotStrategy("random")
    with pytest.raises(ValueError):
        PivotStrategy("degree", seed=3)
    with pytest.raises(ValueError):
        PivotStrategy("nope")
    assert PivotStrategy.degree().kind == "degree"
    assert PivotStrategy.ratio().seed is None
    assert PivotStrategy.random(7).seed == 7
    assert PivotStrategy.random(0).seed == 0


@pytest.mark.parametrize("seed", [-1, -3, -2**40])
def test_negative_seed_is_rejected(seed):
    # random.Random(-s) is seeded as Random(s), so -3 would replay 3
    with pytest.raises(ValueError, match="must not be negative"):
        PivotStrategy.random(seed)
    with pytest.raises(ValueError, match="must not be negative"):
        PivotStrategy("random", seed)


def test_path_ratio_prefers_middle():
    # v1 closes over the whole path: no boundary, one internal non-edge.
    # the endpoints leave a boundary edge with no non-edge, ratio infinity.
    g = Graph.from_edges(3, [(0, 1), (1, 2)])
    clustering, audit = pivot(g, PivotStrategy.ratio())
    assert clustering.clusters == [[0, 1, 2]]
    assert audit.per_iteration == [(1, 0, 1)]
    assert (audit.boundary_edges, audit.internal_nonedges) == (0, 1)


def test_path_degree_picks_middle():
    g = Graph.from_edges(3, [(0, 1), (1, 2)])
    clustering, audit = pivot(g, PivotStrategy.degree())
    assert clustering.clusters == [[0, 1, 2]]
    assert (audit.boundary_edges, audit.internal_nonedges) == (0, 1)


def test_star_degree_takes_hub():
    g = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
    clustering, audit = pivot(g, PivotStrategy.degree())
    assert clustering.clusters == [[0, 1, 2, 3]]
    assert (audit.boundary_edges, audit.internal_nonedges) == (0, 3)


def test_degree_breaks_ties_by_lowest_id():
    g = Graph.from_edges(4, [(0, 1), (2, 3)])
    clustering, _ = pivot(g, PivotStrategy.degree())
    assert clustering.clusters == [[0, 1], [2, 3]]
    assert clustering.assignment == [0, 0, 1, 1]


def test_ratio_zero_beats_infinity():
    # isolated node 2 and the edge nodes all have ratio 0; id 0 wins
    g = Graph.from_edges(3, [(0, 1)])
    clustering, _ = pivot(g, PivotStrategy.ratio())
    assert clustering.clusters == [[0, 1], [2]]


def test_degree_tracks_removals():
    # after the 0-cluster leaves, node 4 has the top live degree
    g = Graph.from_edges(7, [(0, 1), (0, 2), (0, 3), (4, 5), (4, 6), (5, 6)])
    clustering, _ = pivot(g, PivotStrategy.degree())
    assert clustering.clusters == [[0, 1, 2, 3], [4, 5, 6]]


def test_random_is_deterministic_per_seed():
    g = er_graph(25, 0.3, seed=4)
    c1, a1 = pivot(g, PivotStrategy.random(11))
    c2, a2 = pivot(g, PivotStrategy.random(11))
    assert c1.clusters == c2.clusters
    assert a1.per_iteration == a2.per_iteration


# sizes around every power of two up to 2^20 + 1, where the draw's bit
# count and rejection rate change
DRAW_SIZES = list(range(1, 71)) + [n for k in range(7, 21)
                                   for n in (2**k - 1, 2**k, 2**k + 1)]


@pytest.mark.parametrize("seed", [0, 1, 61, 2**40 + 3])
def test_random_draws_match_randrange(seed):
    # with every node live, each pop is one randrange(n) of the seed's
    # generator, so the selector must pick what randrange picks
    for n in DRAW_SIZES:
        selector = _RandomSelector(bytearray(b"\x01") * n, seed)
        rng = random.Random(seed)
        assert ([selector.pop() for _ in range(25)]
                == [rng.randrange(n) for _ in range(25)]), n


# sizes either side of each power of two up to 2^10
DEAD_DRAW_SIZES = sorted({n for k in range(1, 11)
                          for n in (2**k - 1, 2**k, 2**k + 1)})


@pytest.mark.parametrize("seed", [0, 1, 61, 2**40 + 3])
def test_random_draws_match_randrange_after_dead_hits(seed):
    # a script kills nodes between pops, and each popped node dies, as
    # its cluster would; the selector keeps its candidate count and bit
    # length from pop to pop, and must still draw what randrange over a
    # shrinking candidate list draws, also where a dead hit takes the
    # count below a power of two in the middle of a pop
    script = random.Random(seed + 1)
    pops = crossings = 0
    for n in DEAD_DRAW_SIZES:
        alive = bytearray(b"\x01") * n
        selector = _RandomSelector(alive, seed)
        rng = random.Random(seed)
        candidates = list(range(n))
        live = set(range(n))
        while live:
            if script.random() < 0.25:
                for v in script.sample(sorted(live), (len(live) - 1) // 4):
                    alive[v] = 0
                    live.discard(v)
            bits = len(candidates).bit_length()
            expected = draw_live_candidate(rng, candidates, alive)
            assert selector.pop() == expected, (n, pops)
            crossings += len(candidates).bit_length() < bits
            pops += 1
            alive[expected] = 0
            live.discard(expected)
    assert pops > 600 and crossings > 40



def ratio_selector(delta: int, extra: int) -> _RatioSelector:
    """The ratio selector of a star with delta leaves (nodes 0..delta)
    and a path on extra more nodes: top degree delta, and
    delta + extra - 1 edges for extra >= 1."""
    edges = [(0, leaf) for leaf in range(1, delta + 1)]
    edges += [(v, v + 1) for v in range(delta + 1, delta + extra)]
    g = Graph.from_edges(delta + 1 + extra, edges)
    adj = adjacency_lists(g, np.ones(g.m, dtype=bool))
    return _RatioSelector(adj, bytearray(b"\x01") * g.n, list(map(len, adj)))


def exact_ratio_key(b: int, nn: int, v: int) -> tuple[int, Fraction, int]:
    """(class, |B|/|N|, id): class 1 is +inf (|N| = 0 < |B|), and a node
    with |B| = |N| = 0 has ratio 0."""
    if nn:
        return 0, Fraction(b, nn), v
    return (1 if b else 0), Fraction(0), v


@pytest.mark.parametrize("delta", [2, 3, 4, 5, 6])
def test_ratio_int_keys_order_as_exact_keys(delta):
    # every (|B|, |N|) a node can have, |B| <= m and |N| <= C(delta, 2),
    # at the lowest, a middle and the highest id; sorted by exact key,
    # consecutive int keys must rise where the exact keys rise and be
    # equal where they are equal, which orders every pair as they do
    sel = ratio_selector(delta, 6)
    m = delta + 5
    ids = (0, sel.n // 2, sel.n - 1)
    items = sorted((exact_ratio_key(b, nn, v), sel.key_of(b, nn, v))
                   for b in range(m + 1)
                   for nn in range(comb(delta, 2) + 1) for v in ids)
    for (exact_a, int_a), (exact_b, int_b) in zip(items, items[1:]):
        assert (int_a < int_b) if exact_a < exact_b else (int_a == int_b)


def test_ratio_int_keys_split_the_closest_ratios():
    # a hub of degree 40: |N| <= C(40, 2) = 780, and 1/780 and 1/779
    # differ by exactly 1 / (780 * 779), the smallest gap two ratios with
    # such |N| can have
    sel = ratio_selector(40, 3)
    assert sel.scale == 780 ** 2
    low, high = sel.key_of(1, 780, 41), sel.key_of(1, 779, 0)
    assert low < high
    # 388/779 < 389/780 with 389 * 779 - 388 * 780 = 1
    assert sel.key_of(388, 779, 42) < sel.key_of(389, 780, 1)


def test_ratio_int_keys_tie_equal_ratios_by_id():
    sel = ratio_selector(4, 2)
    assert sel.key_of(1, 2, 3) < sel.key_of(3, 6, 5)
    assert sel.key_of(3, 6, 3) < sel.key_of(1, 2, 5)
    assert sel.key_of(1, 2, 3) // sel.n == sel.key_of(3, 6, 5) // sel.n


def test_ratio_int_keys_put_infinity_above_every_finite_ratio():
    sel = ratio_selector(5, 4)
    m = 8
    top_finite = sel.key_of(m, 1, sel.n - 1)
    assert sel.key_of(1, 0, 0) > top_finite
    assert sel.key_of(m, 0, 0) > top_finite
    assert sel.key_of(1, 0, 0) // sel.n == sel.inf


def test_ratio_int_keys_zero_ratio_with_and_without_nonedges():
    # 0/5 and |B| = |N| = 0 are both ratio 0, so the lower id comes first
    sel = ratio_selector(5, 4)
    assert sel.key_of(0, 5, 2) < sel.key_of(0, 0, 3)
    assert sel.key_of(0, 0, 2) < sel.key_of(0, 5, 3)
    assert sel.key_of(0, 5, 2) < sel.key_of(1, 10, 0)


@pytest.mark.parametrize("seed", range(8))
def test_ratio_start_up_keys_are_the_live_scores(seed):
    # the start-up keys come from degrees and the edges among each
    # node's neighbours; with every node live they must be _score's
    rng = random.Random(seed)
    g = er_graph(rng.randrange(1, 40), rng.choice((0.05, 0.2, 0.5, 0.9)),
                 seed=seed)
    adj = adjacency_lists(g, np.ones(g.m, dtype=bool))
    sel = _RatioSelector(adj, bytearray(b"\x01") * g.n, list(map(len, adj)))
    assert sel.key == [sel._score(v) for v in range(g.n)]


def test_isolated_nodes_start_at_ratio_zero():
    g = Graph.from_edges(5, [(1, 2), (2, 3)])
    adj = adjacency_lists(g, np.ones(g.m, dtype=bool))
    sel = _RatioSelector(adj, bytearray(b"\x01") * g.n, list(map(len, adj)))
    assert sel.key[0] == 0 and sel.key[4] == 4
    assert sel.pop() == 0


@pytest.mark.parametrize("kind", ["degree", "ratio"])
@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6), st.integers(40, 55), st.integers(3, 12),
       st.sampled_from([0.02, 0.05, 0.1]))
def test_pivot_with_a_hub_matches_residual_scan(kind, seed, hub_degree,
                                                isolated, p):
    # a hub of degree >= 40 makes the ratio key scale at least 780^2;
    # isolated nodes sit between connected ones by id, and the degree heap
    # leaves them, and every node whose live degree drops to 0, to its
    # cursor
    rng = random.Random(seed)
    n = hub_degree + isolated + rng.randint(1, 15)
    hub = rng.randrange(1, n - 1)
    lonely = set(rng.sample([v for v in range(1, n - 1) if v != hub],
                            isolated))
    connected = [v for v in range(n) if v not in lonely]
    edges = [(hub, v) for v in rng.sample([v for v in connected if v != hub],
                                          hub_degree)]
    edges += [(a, b) for i, a in enumerate(connected)
              for b in connected[i + 1:] if rng.random() < p]
    g = Graph.from_edges(n, edges)
    assert max(g.degree(v) for v in range(n)) >= 40
    clustering, audit = pivot_lists(
        adjacency_lists(g, np.ones(g.m, dtype=bool)), PivotStrategy(kind))
    assignment, clusters, per_iteration = pivot_by_residual_graph(g, kind)
    assert clustering.assignment == assignment
    assert clustering.clusters == clusters
    assert audit.per_iteration == per_iteration


def stripped_lists(seed: int) -> list[list[int]]:
    """Adjacency lists of a planted graph with a random third of its
    edges left out, as the pipelines strip weak edges."""
    g = planted_clusters([2, 3, 4, 5, 6] * 4, 0.2, 40, seed)
    keep = np.random.default_rng(seed).random(g.m) >= 1 / 3
    return adjacency_lists(g, keep)


@pytest.mark.parametrize("strategy", [PivotStrategy.degree(),
                                      PivotStrategy.ratio(),
                                      PivotStrategy.random(5)])
@pytest.mark.parametrize("seed", range(4))
def test_pivot_lists_leaves_the_lists_unchanged(strategy, seed):
    # a pivot with no dead neighbour takes its own row as its member
    # list, which neither the pivot nor its caller may then change
    adj = stripped_lists(seed)
    rows = list(adj)
    contents = [list(row) for row in adj]
    clustering, _ = pivot_lists(adj, strategy)
    assert adj == contents
    assert all(a is b for a, b in zip(adj, rows))
    row_ids = set(map(id, rows))
    assert not any(id(c) in row_ids for c in clustering.clusters)


def score_by_filter(sel: _RatioSelector, k: int) -> int:
    """The key of pivoting at k with k's members always filtered from its
    row, by a loop over the live graph."""
    members = [u for u in sel.adj[k] if sel.alive[u]]
    boundary = twice = 0
    for u in members:
        for w in sel.adj[u]:
            if sel.alive[w] and w != k:
                if w in members:
                    twice += 1
                else:
                    boundary += 1
    d = len(members)
    return sel.key_of(boundary, d * (d - 1) // 2 - twice // 2, k)


@pytest.mark.parametrize("seed", range(6))
def test_ratio_rescores_equal_filtered_scores_mid_run(seed, monkeypatch):
    # after every round, each live node's key, re-scored or not, is the
    # score its live rows give, and the live degree _score trusts to
    # skip the filter is the number of live neighbours
    real = _RatioSelector.degrees_changed
    rows = {"whole": 0, "filtered": 0}

    def checked(self, touched):
        real(self, touched)
        for v in range(self.n):
            if self.alive[v]:
                live = sum(self.alive[u] for u in self.adj[v])
                assert self.live_deg[v] == live
                rows["whole" if live == len(self.adj[v])
                     else "filtered"] += 1
                assert self.key[v] == score_by_filter(self, v), v

    monkeypatch.setattr(_RatioSelector, "degrees_changed", checked)
    adj = stripped_lists(seed)
    clustering, audit = pivot_lists(adj, PivotStrategy.ratio())
    assert rows["whole"] > 100 and rows["filtered"] > 20
    assert len(audit.rounds) // 3 == clustering.num_clusters


def test_empty_graph():
    g = Graph.from_edges(0, [])
    clustering, audit = pivot(g, PivotStrategy.degree())
    assert clustering.clusters == []
    assert audit.per_iteration == []


def test_audit_rounds_are_built_anew_on_each_read():
    g = Graph.from_edges(5, [(0, 1), (1, 2), (3, 4)])
    _, audit = pivot(g, PivotStrategy.degree())
    rounds = audit.per_iteration
    assert rounds == [(1, 0, 1), (3, 0, 0)]
    rounds[0] = (0, 9, 9)
    rounds.append((4, 0, 0))
    assert audit.per_iteration == [(1, 0, 1), (3, 0, 0)]
    assert audit.per_iteration is not audit.per_iteration


def assignment_recount(g, clustering):
    boundary = cut_deletions(g, clustering.assignment)
    internal = 0
    for members in clustering.clusters:
        for a in range(len(members)):
            for b in range(a + 1, len(members)):
                if not g.has_edge(members[a], members[b]):
                    internal += 1
    return boundary, internal


@pytest.mark.parametrize("kind", ["degree", "ratio", "random"])
@pytest.mark.parametrize("trial", range(10))
def test_audit_totals_match_clustering(kind, trial):
    g = er_graph(4 + 3 * (trial % 5), 0.4, seed=trial)
    strategy = (PivotStrategy.random(trial) if kind == "random"
                else PivotStrategy(kind))
    clustering, audit = pivot(g, strategy)
    boundary, internal = assignment_recount(g, clustering)
    assert audit.boundary_edges == boundary
    assert audit.internal_nonedges == internal
    assert audit.boundary_edges == sum(b for _, b, _ in audit.per_iteration)
    assert audit.internal_nonedges == sum(x for _, _, x in audit.per_iteration)


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 20), st.sampled_from([0.2, 0.5, 0.8]),
       st.integers(0, 10**6))
def test_clusters_partition_the_nodes(n, p, seed):
    g = er_graph(n, p, seed=seed)
    for strategy in (PivotStrategy.degree(), PivotStrategy.ratio(),
                     PivotStrategy.random(seed)):
        clustering, audit = pivot(g, strategy)
        seen = sorted(v for c in clustering.clusters for v in c)
        assert seen == list(range(n))
        for cid, members in enumerate(clustering.clusters):
            assert members == sorted(members)
            for v in members:
                assert clustering.assignment[v] == cid
        # every pivot's cluster is its live closed neighborhood
        for k, _, _ in audit.per_iteration:
            cid = clustering.assignment[k]
            assert k in clustering.clusters[cid]


@pytest.mark.parametrize("trial", range(8))
def test_deterministic_audits_obey_two_to_one(trial):
    # the guarantee behind both deterministic strategies, per iteration
    g = er_graph(18, 0.35, seed=trial)
    for strategy in (PivotStrategy.degree(), PivotStrategy.ratio()):
        _, audit = pivot(g, strategy)
        assert audit.boundary_edges <= 2 * audit.internal_nonedges
    _, ratio_audit = pivot(g, PivotStrategy.ratio())
    for _, b, nn in ratio_audit.per_iteration:
        assert b <= 2 * nn


def test_clustering_lines_use_labels():
    from clusterdel import parse_edge_list

    g = parse_edge_list("10 20\n20 30\n")
    clustering, _ = pivot(g, PivotStrategy.degree())
    assert clustering_lines(clustering, g) == ["10 0", "20 0", "30 0"]


def test_num_clusters():
    c = Clustering([0, 0, 1], [[0, 1], [2]])
    assert c.num_clusters == 2


class HandsOut:
    """A selector stub that hands out the given nodes in turn, live or
    not."""

    def __init__(self, nodes: list[int]):
        self.nodes = iter(nodes)

    def pop(self) -> int:
        return next(self.nodes)

    def degrees_changed(self, touched: list[int]) -> None:
        pass


# (n, edges, the nodes handed out): node 0 again while 2 and 3 are still
# live, which uses up the count of nodes left; and node 0 again before one
# cluster takes every node left, which overdraws it
CLUSTERED_AGAIN = [(4, [(0, 1)], [0, 0]), (3, [(1, 2)], [0, 0, 1])]


@pytest.mark.parametrize("n, edges, nodes", CLUSTERED_AGAIN)
def test_pivot_on_a_clustered_node_raises(monkeypatch, n, edges, nodes):
    monkeypatch.setattr(pivoting, "_DegreeSelector",
                        lambda alive, live_deg: HandsOut(nodes))
    with pytest.raises(InvariantError, match="already clustered"):
        pivot(Graph.from_edges(n, edges), PivotStrategy.degree())


def test_pivot_on_a_clustered_node_raises_under_python_O():
    # the check is no assert, which -O would strip
    code = """
import clusterdel
from clusterdel import pivoting
from test_pivoting import CLUSTERED_AGAIN, HandsOut
for n, edges, nodes in CLUSTERED_AGAIN:
    pivoting._DegreeSelector = lambda a, d, nodes=nodes: HandsOut(nodes)
    try:
        clusterdel.pivot(clusterdel.Graph.from_edges(n, edges),
                         clusterdel.PivotStrategy.degree())
    except clusterdel.InvariantError:
        print("raised")
"""
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), str(root / "tests"),
                    env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-O", "-c", code],
                          capture_output=True, text=True, env=env,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["raised"] * len(CLUSTERED_AGAIN)
