"""The incremental ratio selector and the neighbourhood-driven merge
against their full-scan references in helpers.

Both must give exactly what the references give: the same per-round
audit, clusters and assignment for the ratio pivot, and the same merged
clusters and assignment for one, two or unlimited merge passes.
"""
from __future__ import annotations

import random

import pytest

from clusterdel import (Graph, PivotStrategy, maximal_wedge_set_fast,
                        merge_clusters, pivot)
from helpers import (merge_clusters_pairwise, planted_clusters,
                     ratio_pivot_by_full_scan)
from test_acceptance import corpus


def assert_same_ratio_pivot(g: Graph) -> None:
    clustering, audit = pivot(g, PivotStrategy.ratio())
    assignment, clusters, per_iteration = ratio_pivot_by_full_scan(g)
    assert audit.per_iteration == per_iteration
    assert clustering.clusters == clusters
    assert clustering.assignment == assignment


def assert_same_merges(g: Graph, ghat: Graph) -> None:
    """Merge, on g, the clusterings of every strategy on ghat."""
    for strategy in (PivotStrategy.degree(), PivotStrategy.ratio(),
                     PivotStrategy.random(g.n)):
        clustering, _ = pivot(ghat, strategy)
        for passes in (None, 1, 2):
            merged = merge_clusters(g, clustering, max_passes=passes)
            assignment, clusters = merge_clusters_pairwise(
                g, clustering.clusters, passes)
            assert merged.clusters == clusters
            assert merged.assignment == assignment


def assert_same_as_references(g: Graph) -> None:
    # as in the mfp pipeline: pivot the stripped graph, merge on g
    ghat = g.drop_edges(maximal_wedge_set_fast(g).weak_edges)
    assert_same_ratio_pivot(g)
    assert_same_ratio_pivot(ghat)
    assert_same_merges(g, ghat)
    assert_same_merges(g, g)


def test_acceptance_corpus():
    graphs = corpus()
    assert len(graphs) == 504
    for g in graphs:
        assert_same_as_references(g)


@pytest.mark.parametrize("seed", range(8))
def test_planted_clusters(seed):
    rng = random.Random(seed)
    sizes = [rng.randint(1, 12) for _ in range(rng.randint(4, 20))]
    g = planted_clusters(sizes, rng.choice((0.0, 0.1, 0.3)),
                         rng.randint(0, 60), seed)
    assert_same_as_references(g)


def test_hub_touching_every_clique():
    # the hub pivots first, taking one node of each clique; every node
    # left is then next to the removed cluster, so the next round
    # re-scores the whole live graph
    k, s = 20, 6
    edges = []
    for i in range(k):
        base = 1 + s * i
        edges.append((0, base))
        edges += [(base + a, base + b)
                  for a in range(s) for b in range(a + 1, s)]
    g = Graph.from_edges(1 + k * s, edges)
    _, audit = pivot(g, PivotStrategy.ratio())
    assert audit.per_iteration[0][0] == 0
    assert_same_as_references(g)


def test_star():
    g = Graph.from_edges(40, [(0, v) for v in range(1, 40)])
    assert_same_as_references(g)
