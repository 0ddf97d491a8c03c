from __future__ import annotations

import pytest

from clusterdel import Graph, er_graph
from helpers import (
    brute_force_cluster_deletion,
    clusters_are_cliques,
    cut_deletions,
    small_graph,
)
from oracles import (
    exact_cluster_deletion,
    exact_min_stc,
    exact_stc_lp,
    gallai_graph,
    min_vertex_cover,
)

P3 = Graph.from_edges(3, [(0, 1), (1, 2)])
P4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
TRIANGLE = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
STAR = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
C4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
C5 = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])


def petersen() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, 5 + i) for i in range(5)]
    return Graph.from_edges(10, outer + inner + spokes)


@pytest.mark.parametrize("g,expected", [
    (P3, 1), (P4, 1), (TRIANGLE, 0), (STAR, 2), (C4, 2), (C5, 3),
])
def test_cluster_deletion_frozen_values(g, expected):
    deletions, clusters = exact_cluster_deletion(g)
    assert deletions == expected
    assert clusters_are_cliques(g, clusters)


def test_cluster_deletion_petersen():
    # triangle-free, so optimal clusters are a maximum matching
    deletions, clusters = exact_cluster_deletion(petersen())
    assert deletions == 15 - 5
    assert all(len(c) <= 2 for c in clusters)


def test_cluster_deletion_returns_consistent_partition():
    g = er_graph(9, 0.5, seed=2)
    deletions, clusters = exact_cluster_deletion(g)
    seen = sorted(v for c in clusters for v in c)
    assert seen == list(range(g.n))
    assert clusters_are_cliques(g, clusters)
    assignment = [0] * g.n
    for cid, members in enumerate(clusters):
        for v in members:
            assignment[v] = cid
    assert cut_deletions(g, assignment) == deletions


@pytest.mark.parametrize("trial", range(30))
def test_cluster_deletion_matches_partition_search(trial):
    g = small_graph(trial, n_lo=3, n_hi=7)
    deletions, _ = exact_cluster_deletion(g)
    assert deletions == brute_force_cluster_deletion(g)


def test_cluster_deletion_size_guard():
    with pytest.raises(ValueError):
        exact_cluster_deletion(er_graph(15, 0.5, seed=0))
    exact_cluster_deletion(er_graph(15, 0.5, seed=0), max_n=15)


@pytest.mark.parametrize("g,expected", [
    (P3, 1), (P4, 1), (TRIANGLE, 0), (STAR, 2), (C4, 2),
])
def test_min_stc_frozen_values(g, expected):
    assert exact_min_stc(g) == expected


def test_min_stc_size_guard():
    g = er_graph(12, 0.6, seed=1)
    assert g.m > 24
    with pytest.raises(ValueError):
        exact_min_stc(g)


@pytest.mark.parametrize("g,expected", [
    (P3, 1), (C5, 3), (STAR, 1),
])
def test_vertex_cover_frozen_values(g, expected):
    assert min_vertex_cover(g) == expected


def test_vertex_cover_complete_graph():
    k4 = er_graph(4, 1.0, seed=0)
    assert min_vertex_cover(k4) == 3


def test_vertex_cover_size_guard():
    with pytest.raises(ValueError):
        min_vertex_cover(er_graph(25, 0.2, seed=0))


def test_gallai_graph_shapes():
    # one node per edge; adjacency records open wedges
    h_p3 = gallai_graph(P3)
    assert (h_p3.n, h_p3.m) == (2, 1)
    h_tri = gallai_graph(TRIANGLE)
    assert (h_tri.n, h_tri.m) == (3, 0)
    h_star = gallai_graph(STAR)
    assert (h_star.n, h_star.m) == (3, 3)
    h_c4 = gallai_graph(C4)
    assert (h_c4.n, h_c4.m) == (4, 4)
    degrees = sorted(h_c4.degree(v) for v in range(4))
    assert degrees == [2, 2, 2, 2]


@pytest.mark.parametrize("trial", range(25))
def test_min_stc_equals_gallai_vertex_cover(trial):
    g = small_graph(trial + 100, n_lo=3, n_hi=8, ps=(0.3, 0.5))
    if g.m > 24:
        pytest.skip("outside MinSTC size guard")
    assert exact_min_stc(g) == min_vertex_cover(gallai_graph(g))


@pytest.mark.parametrize("trial", range(25))
def test_lp_sandwiched_by_min_stc(trial):
    g = small_graph(trial + 200, n_lo=3, n_hi=7, ps=(0.3, 0.5))
    if g.m > 12:
        pytest.skip("outside exact-LP size guard")
    lp_half = exact_stc_lp(g)
    stc = exact_min_stc(g)
    assert lp_half <= 2 * stc
    opt, _ = exact_cluster_deletion(g)
    assert stc <= opt
