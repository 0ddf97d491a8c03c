from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clusterdel import (
    Clustering,
    Graph,
    PivotStrategy,
    clustering_lines,
    er_graph,
    pivot,
)
from clusterdel.pivoting import _RandomSelector
from helpers import cut_deletions


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
