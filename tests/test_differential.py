"""The fast paths against their references in helpers.

Each must give exactly what its reference gives:
- the matcher: the wedges, weak set, weak mask and inspection count of
  the sweep driven by the skip-list cursor object;
- pivot: the per-round audit, clusters and assignment of pivoting on a
  residual-graph object, for every strategy, and of the ratio pivot by a
  full scan per round;
- the merge driven by cross-edge counts: the merged clusters and
  assignment of the pairwise scan, for none, one, two or unlimited
  passes, on pivot outputs and on arbitrary clique partitions (empty
  clusters, singletons and nodes in no cluster among them);
- scoring: every stats field apart from runtime_ms, as an edge loop
  computes it, for both pipelines, merged and unmerged;
- the preparation: the weak set, weak mask and stripped graph's
  adjacency lists of taking the weak edges as a packed-key set (by an
  edge loop over the relaxation values on stclp), searching it back into
  a mask in key order, and copying the graph without them; and an mfp
  result's wedge count and weak mask, those of the matcher;
- best-of-T: every trial, though all of them pivot one prepared set of
  adjacency lists, equals an independent pipeline call with its seed;
- ``oracles.mfp_with_wedge_set``, which builds its own preparation from a
  fixed wedge set: fed the matcher's wedge set, the clusters and every
  stats field apart from runtime_ms of the mfp pipeline.
"""
from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clusterdel import (Clustering, Graph, PivotStrategy, apply_merge,
                        best_of_random, er_graph, match_flip_pivot,
                        maximal_wedge_set_fast, merge_clusters, pivot,
                        solve_stc_lp, stc_lp_round)
from clusterdel import pipelines
from clusterdel.pipelines import _prepare
from helpers import (edge_mask, maximal_wedge_set_by_cursor,
                     merge_clusters_pairwise, pivot_by_residual_graph,
                     planted_clusters, ratio_pivot_by_full_scan,
                     score_by_edge_loop, split_by_sorted_search,
                     weak_keys_by_edge_loop)
from oracles import mfp_with_wedge_set
from test_acceptance import corpus

STRATEGIES = ([PivotStrategy.degree(), PivotStrategy.ratio()]
              + [PivotStrategy.random(seed) for seed in range(8)])


def assert_same_matching(g: Graph) -> None:
    ws = maximal_wedge_set_fast(g)
    wedges, weak, inspections = maximal_wedge_set_by_cursor(g)
    assert ws.wedges == wedges
    assert ws.weak_edges == weak
    assert ws.weak_mask.tolist() == edge_mask(g, weak).tolist()
    assert ws.inspections == inspections


def assert_same_pivots(g: Graph) -> None:
    for strategy in STRATEGIES:
        clustering, audit = pivot(g, strategy)
        assignment, clusters, per_iteration = pivot_by_residual_graph(
            g, strategy.kind, strategy.seed)
        assert audit.per_iteration == per_iteration
        assert clustering.clusters == clusters
        assert clustering.assignment == assignment
        assert audit.boundary_edges == sum(b for _, b, _ in per_iteration)
        assert audit.internal_nonedges == sum(nn for _, _, nn in
                                              per_iteration)


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


def assert_same_scores(g: Graph) -> None:
    for strategy in (PivotStrategy.degree(), PivotStrategy.random(5)):
        for res in (match_flip_pivot(g, strategy),
                    stc_lp_round(g, strategy)):
            for scored in (res, apply_merge(g, res)):
                got = scored.to_json_dict()
                del got["runtime_ms"]
                want = dict(got)
                want.update(score_by_edge_loop(
                    g, scored.clustering.assignment, scored.weak_set,
                    scored.certificate.values,
                    scored.lower_bound_half_units))
                want["clusters"] = len(scored.clustering.clusters)
                assert got == want


def assert_same_preparation(g: Graph) -> None:
    for algorithm, keys in (
            ("mfp", maximal_wedge_set_fast(g).weak_edges),
            ("stclp", weak_keys_by_edge_loop(solve_stc_lp(g)))):
        prep = _prepare(g, algorithm)
        cert = prep.cert
        mask, stripped = split_by_sorted_search(g, keys)
        assert cert.graph is g
        assert g.masked_keys(cert.weak_mask) == keys
        assert cert.weak_mask.dtype == bool
        assert cert.weak_mask.tolist() == mask.tolist()
        assert prep.adj == [stripped.neighbors(v).tolist()
                            for v in range(g.n)]


def assert_certificate_is_the_matching(g: Graph) -> None:
    ws = maximal_wedge_set_fast(g)
    for strategy in (PivotStrategy.degree(), PivotStrategy.random(3)):
        res = match_flip_pivot(g, strategy)
        assert res.wedges == ws.wedge_count == len(ws.wedges)
        assert res.lower_bound_half_units == 2 * ws.wedge_count
        assert res.certificate.weak_mask.tolist() == ws.weak_mask.tolist()


def assert_same_trials(g: Graph, trials: int = 3) -> None:
    for algorithm, pipeline in (("mfp", match_flip_pivot),
                                ("stclp", stc_lp_round)):
        runs = []
        finish = pipelines._finish

        def record(*args):
            runs.append(finish(*args))
            return runs[-1]

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(pipelines, "_finish", record)
            best_of_random(g, trials, g.n, algorithm)
        assert [r.seed for r in runs] == list(range(g.n, g.n + trials))
        for run in runs:
            alone = pipeline(g, PivotStrategy.random(run.seed))
            assert run.clustering.clusters == alone.clustering.clusters
            assert run.audit.per_iteration == alone.audit.per_iteration
            got, want = run.to_json_dict(), alone.to_json_dict()
            del got["runtime_ms"], want["runtime_ms"]
            assert got == want


def assert_same_as_references(g: Graph) -> None:
    # as in the mfp pipeline: pivot the stripped graph, merge on g
    ghat = g.drop_edges(maximal_wedge_set_fast(g).weak_edges)
    assert_same_matching(g)
    assert_same_matching(ghat)
    assert_same_pivots(g)
    assert_same_pivots(ghat)
    assert_same_ratio_pivot(g)
    assert_same_ratio_pivot(ghat)
    assert_same_merges(g, ghat)
    assert_same_merges(g, g)
    assert_same_scores(g)
    assert_same_preparation(g)
    assert_certificate_is_the_matching(g)
    assert_same_trials(g)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 30), st.sampled_from([0.1, 0.25, 0.5, 0.8]),
       st.integers(0, 10**6))
def test_mfp_certificate_is_the_matching(n, p, seed):
    assert_certificate_is_the_matching(er_graph(n, p, seed=seed))


def test_acceptance_corpus():
    graphs = corpus()
    assert len(graphs) == 504
    for g in graphs:
        assert_same_as_references(g)


def test_fixed_wedge_set_helper_is_the_pipeline():
    # the helper keeps tests that feed a chosen W in step with _prepare
    for g in corpus():
        ws = maximal_wedge_set_fast(g)
        for strategy in (PivotStrategy.degree(), PivotStrategy.ratio(),
                         PivotStrategy.random(g.n)):
            fixed = mfp_with_wedge_set(g, strategy, ws)
            res = match_flip_pivot(g, strategy)
            assert fixed.clustering.clusters == res.clustering.clusters
            got, want = fixed.to_json_dict(), res.to_json_dict()
            del got["runtime_ms"], want["runtime_ms"]
            assert got == want


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


def test_degree_pivot_with_isolated_nodes():
    # 0, 4 and 9 are isolated from the start; the hub 6 pivots first and
    # leaves the pendants 2, 5, 11 and 13 isolated, and once 7-8 is gone
    # every live node has live degree 0
    g = Graph.from_edges(14, [(6, 1), (6, 3), (6, 10), (6, 12), (1, 2),
                              (3, 5), (10, 11), (12, 13), (7, 8)])
    _, audit = pivot(g, PivotStrategy.degree())
    assert [k for k, _, _ in audit.per_iteration] == [6, 7, 0, 2, 4, 5, 9,
                                                      11, 13]
    assert_same_as_references(g)


def test_star():
    g = Graph.from_edges(40, [(0, v) for v in range(1, 40)])
    assert_same_as_references(g)


@pytest.mark.parametrize("clusters", [
    [[0, 1], [], [2, 3]],
    [[], [0, 1], [], [2, 3], []],
    [[0], [1], [], [2], [3]],
    [[], []],
])
def test_merge_with_empty_clusters(clusters):
    # every empty cluster merges into the first cluster of the first pass
    g = Graph.from_edges(4, [(0, 1), (0, 2), (1, 2), (2, 3)])
    assignment = [-1] * 4
    for cid, members in enumerate(clusters):
        for v in members:
            assignment[v] = cid
    if not any(clusters):
        g = Graph.from_edges(0, [])
        assignment = []
    for passes in (None, 0, 1, 2):
        merged = merge_clusters(g, Clustering(assignment, clusters), passes)
        want_assignment, want_clusters = merge_clusters_pairwise(
            g, clusters, passes)
        assert merged.clusters == want_clusters
        assert merged.assignment == want_assignment
        if passes != 0:
            assert [] not in merged.clusters or merged.clusters == [[]]


def clustering_of(n: int, clusters: list[list[int]]) -> Clustering:
    assignment = [-1] * n
    for cid, members in enumerate(clusters):
        for v in members:
            assignment[v] = cid
    return Clustering(assignment, clusters)


def assert_same_merge_of(g: Graph, clusters: list[list[int]]) -> None:
    clustering = clustering_of(g.n, clusters)
    for passes in (None, 0, 1, 2):
        merged = merge_clusters(g, clustering, passes)
        want_assignment, want_clusters = merge_clusters_pairwise(
            g, clusters, passes)
        assert merged.clusters == want_clusters
        assert merged.assignment == want_assignment
    unmerged = merge_clusters(g, clustering, budget_ms=0)
    assert unmerged.clusters == clusters
    assert unmerged.assignment == clustering.assignment


@st.composite
def clique_partitions(draw) -> tuple[Graph, list[list[int]]]:
    """A random graph and a partition of its nodes into cliques, in a
    random cluster order, with up to three empty clusters anywhere; in
    some, a few nodes are left out of every cluster."""
    n = draw(st.integers(0, 12))
    density = draw(st.sampled_from([0.2, 0.6, 0.9, 1.0]))
    rng = draw(st.randoms(use_true_random=False))
    g = Graph.from_edges(n, [(u, v) for u in range(n)
                             for v in range(u + 1, n)
                             if rng.random() < density])
    # each node joins its drawn group if adjacent to all of it so far,
    # else starts a group of its own
    labels = draw(st.lists(st.integers(0, max(n - 1, 0)), min_size=n,
                           max_size=n))
    groups: dict[object, list[int]] = {}
    left_out = draw(st.sets(st.integers(0, max(n - 1, 0)), max_size=3)
                    if draw(st.booleans()) else st.just(set()))
    for v in draw(st.permutations(range(n))):
        if v in left_out:
            continue
        group = groups.setdefault(labels[v], [])
        if all(g.has_edge(u, v) for u in group):
            group.append(v)
        else:
            groups[("own", v)] = [v]
    clusters = [sorted(c) for c in groups.values() if c]
    for _ in range(draw(st.integers(0, 3))):
        clusters.insert(draw(st.integers(0, len(clusters))), [])
    return g, draw(st.permutations(clusters))


@settings(max_examples=300, deadline=None)
@given(clique_partitions())
def test_merge_of_any_clique_partition_matches_pairwise(case):
    assert_same_merge_of(*case)


@pytest.mark.parametrize("seed", range(6))
def test_merge_rejoins_split_planted_cliques(seed):
    # cliques cut into pieces: the first pass joins most pieces back,
    # and noise edges let pieces of different cliques merge too
    rng = random.Random(seed)
    sizes = [rng.randint(2, 9) for _ in range(rng.randint(8, 25))]
    g = planted_clusters(sizes, 0.0, rng.randint(0, 40), seed)
    clusters, base = [], 0
    for size in sizes:
        members = list(range(base, base + size))
        rng.shuffle(members)
        cuts = sorted(rng.sample(range(1, size), rng.randint(1, size - 1)))
        clusters += [sorted(members[i:j])
                     for i, j in zip([0] + cuts, cuts + [size])]
        base += size
    rng.shuffle(clusters)
    assert_same_merge_of(g, clusters)
    once = merge_clusters(g, clustering_of(g.n, clusters), 1)
    assert once.num_clusters <= len(clusters) // 2
