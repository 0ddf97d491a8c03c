"""The fast paths against their references in helpers.

Each must give exactly what its reference gives:
- the matcher: the wedges, weak set, weak mask and inspection count of
  the sweep driven by the skip-list cursor object, also when its rows are
  converted a few CSR slots at a time, for hub rows longer than a block,
  where many centers filter weak lower edges, and where centers with
  every lower edge weak sweep the upper part of their rows; and the
  records, inspection count and weak mask of its former build, which
  tested closure by packed key (``oracles``);
- pivot: the per-round audit, clusters and assignment of pivoting on a
  residual-graph object, for every strategy, and of the ratio pivot by a
  full scan per round;
- the merge driven by cross-edge counts: the merged clusters and
  assignment of the pairwise scan, for none, one, two or unlimited
  passes, on pivot outputs and on arbitrary partitions into cliques
  (singletons among them);
- the pivot loop and the merge, which record only assignments: the
  assignment, member lists, cluster count and audit rounds of their
  former builds, which made every member list (``oracles``), on
  hypothesis graphs and their stripped lists; and the ``Clustering``
  dataclass contract that lists passed in are kept as given;
- the random pivots the loop draws inline: the assignment and audit
  rounds of the former loop popping them from the former selector object
  (``oracles``), on edgeless graphs, perfect matchings and sparse G(n, p)
  at sizes either side of each power of two up to 2^10;
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
from collections import Counter
from dataclasses import fields, replace
from unittest import mock

import numpy as np

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clusterdel import (Clustering, Graph, PivotStrategy, apply_merge,
                        best_of_random, er_graph, match_flip_pivot,
                        maximal_wedge_set_fast, merge_clusters, pivot,
                        solve_stc_lp, stc_lp_round)
from clusterdel import pipelines, wedges
import oracles
from clusterdel.pipelines import _prepare
from clusterdel.pivoting import adjacency_lists, pivot_lists
from helpers import (edge_mask, maximal_wedge_set_by_cursor,
                     merge_clusters_pairwise, pivot_by_residual_graph,
                     planted_clusters, ratio_pivot_by_full_scan,
                     score_by_edge_loop, split_by_sorted_search,
                     weak_keys_by_edge_loop)
from oracles import (maximal_wedge_set_by_packed_keys,
                     merge_clusters_with_member_lists, mfp_with_wedge_set,
                     pivot_lists_with_member_lists)
from test_acceptance import corpus
from test_pipelines import graphs
from test_pivoting import DEAD_DRAW_SIZES

STRATEGIES = ([PivotStrategy.degree(), PivotStrategy.ratio()]
              + [PivotStrategy.random(seed) for seed in range(8)])


def assert_same_matching(g: Graph) -> None:
    ws = maximal_wedge_set_fast(g)
    wedges, weak, inspections = maximal_wedge_set_by_cursor(g)
    assert ws.wedges == wedges
    assert ws.weak_edges == weak
    assert ws.weak_mask.tolist() == edge_mask(g, weak).tolist()
    assert ws.inspections == inspections
    former = maximal_wedge_set_by_packed_keys(g)
    assert ws.records == former.records
    assert ws.inspections == former.inspections
    assert ws.weak_mask.tolist() == former.weak_mask.tolist()


def centers_with_weak_lower_edges(g: Graph) -> int:
    """Centers that reach their turn with a lower edge already weak: the
    far ends, above their center, of matched legs."""
    return len({x for i, j, k in maximal_wedge_set_by_cursor(g)[0]
                for x in (i, j) if x > k})


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(("er", "planted")), st.integers(0, 10**6),
       st.integers(1, 9))
def test_matcher_rows_across_block_ends(kind, seed, block):
    rng = random.Random(seed)
    if kind == "er":
        g = er_graph(rng.randint(0, 40), rng.choice((0.1, 0.25, 0.5, 0.8)),
                     seed=seed)
    else:
        g = planted_clusters([rng.randint(2, 8) for _ in range(8)],
                             rng.choice((0.0, 0.2, 0.4)), rng.randint(0, 30),
                             seed)
    with mock.patch.object(wedges, "_ROW_BLOCK", block):
        assert_same_matching(g)


def test_matcher_hub_rows_longer_than_a_block():
    # two hubs, one mid-graph and one last, each adjacent to more nodes
    # than a block holds; leaves joined in paths and at random give the
    # sweeps triangles to certify and the leaves weak lower edges
    d = wedges._ROW_BLOCK + 300
    rng = random.Random(5)
    mid, last = d // 2, d + 1
    leaves = [v for v in range(d + 2) if v not in (mid, last)]
    edges = [(hub, v) for hub in (mid, last) for v in leaves]
    edges += [(v, v + 1) for v in range(0, d, 3)]
    edges += [(rng.choice(leaves), rng.choice(leaves)) for _ in range(d)]
    g = Graph.from_edges(d + 2, edges)
    assert min(g.degree(mid), g.degree(last)) > wedges._ROW_BLOCK
    assert centers_with_weak_lower_edges(g) > d // 4
    assert_same_matching(g)
    with mock.patch.object(wedges, "_ROW_BLOCK", 100):
        assert_same_matching(g)


@pytest.mark.parametrize("block", [2, 5, wedges._ROW_BLOCK])
def test_matcher_many_centers_with_weak_lower_edges(block):
    g = planted_clusters([3, 4, 5, 6] * 25, 0.3, 150, 7)
    assert centers_with_weak_lower_edges(g) > g.n // 4
    with mock.patch.object(wedges, "_ROW_BLOCK", block):
        assert_same_matching(g)


def two_hub_graph(seed: int) -> Graph:
    """Hubs 0 and 1, not adjacent, each joined to the 40 leaves 2..41:
    each hub matches its leaves in pairs, so most leaves reach their turn
    with both lower edges weak; the few edges among the leaves close
    triangles at the hubs, which leave some leaves a live lower edge.
    Leaf t has t % 4 upper neighbours among the nodes 42..61, which are
    joined to each other at random."""
    rng = random.Random(seed)
    leaves = range(2, 42)
    pool = range(42, 62)
    edges = [(hub, leaf) for hub in (0, 1) for leaf in leaves]
    edges += [(rng.choice(leaves), rng.choice(leaves)) for _ in range(3)]
    for t, leaf in enumerate(leaves):
        edges += [(leaf, u) for u in rng.sample(pool, t % 4)]
    edges += [(rng.choice(pool), rng.choice(pool)) for _ in range(15)]
    return Graph.from_edges(62, edges)


def lower_edges_at_turn(g: Graph) -> list[tuple[int, int, int]]:
    """(weak, lower, upper) edge counts of each center of degree >= 2 with
    a lower neighbour, as it reaches its turn: a lower edge is weak then
    if it was a leg matched at its lower end."""
    weak_below = Counter(x for i, j, k in maximal_wedge_set_by_cursor(g)[0]
                         for x in (i, j) if x > k)
    counts = []
    for v in range(g.n):
        row = g.neighbors(v).tolist()
        lower = sum(u < v for u in row)
        if len(row) >= 2 and lower:
            counts.append((weak_below[v], lower, len(row) - lower))
    return counts


@pytest.mark.parametrize("block", range(1, 10))
@pytest.mark.parametrize("seed", range(4))
def test_matcher_centers_with_every_lower_edge_weak(seed, block):
    # such a center sweeps only the part of its row above it, or is
    # skipped with fewer than two upper neighbours; small blocks move that
    # part's start across block ends
    g = two_hub_graph(seed)
    counts = lower_edges_at_turn(g)
    upper = {up for weak, lower, up in counts if weak == lower}
    assert {0, 1} <= upper and max(upper) >= 2
    assert any(0 < weak < lower for weak, lower, _ in counts)
    with mock.patch.object(wedges, "_ROW_BLOCK", block):
        assert_same_matching(g)


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
        assert prep.graph is g
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


PAW = Graph.from_edges(4, [(0, 1), (0, 2), (1, 2), (2, 3)])
PATH = Graph.from_edges(3, [(0, 1), (1, 2)])


@pytest.mark.parametrize("g, assignment, clusters", [
    (PAW, [0, 0, 2, 2], [[0, 1], [], [2, 3]]),
    (PAW, [0, 0, -1, 1], [[0, 1], [3]]),
    (PAW, [0, 0, 1], [[0, 1], [2]]),
    (PAW, [0, 0, 1, 2], [[0, 1], [2]]),
    # the two views disagree: the clusters list another partition
    (PATH, [0, 0, 1], [[0, 1], []]),
    (PATH, [0, 0, 1], [[2], [0, 1]]),
], ids=["empty-cluster", "node-in-no-cluster", "short-assignment",
        "id-past-last-cluster", "node-missing-from-clusters",
        "clusters-disagree-with-assignment"])
def test_merge_rejects_what_is_not_a_partition(g, assignment, clusters):
    for passes in (None, 0):
        with pytest.raises(ValueError):
            merge_clusters(g, Clustering(assignment, clusters), passes)


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
    random cluster order."""
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
    for v in draw(st.permutations(range(n))):
        group = groups.setdefault(labels[v], [])
        if all(g.has_edge(u, v) for u in group):
            group.append(v)
        else:
            groups[("own", v)] = [v]
    clusters = [sorted(c) for c in groups.values() if c]
    return g, draw(st.permutations(clusters))


@settings(max_examples=300, deadline=None)
@given(clique_partitions())
def test_merge_of_any_clique_partition_matches_pairwise(case):
    assert_same_merge_of(*case)


@settings(max_examples=300, deadline=None)
@given(clique_partitions())
def test_one_pairwise_pass_is_the_fixpoint(case):
    # why merge_clusters runs a single pass: a pass leaves no two
    # survivors that could merge
    g, clusters = case
    assert (merge_clusters_pairwise(g, clusters, 1)
            == merge_clusters_pairwise(g, clusters))


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


def assert_same_clustering(got: Clustering, want: Clustering) -> None:
    """got, made by pivoting or merging, against want, which holds its
    lists from the start: the count first, before got builds its lists."""
    assert got.num_clusters == want.num_clusters
    assert got._lists is None
    assert got.assignment == want.assignment
    assert got.clusters == want.clusters
    assert got.clusters is got.clusters


def assert_same_as_member_lists(g: Graph) -> None:
    whole = adjacency_lists(g, np.ones(g.m, dtype=bool))
    for adj in (whole, _prepare(g, "mfp").adj):
        for strategy in STRATEGIES:
            got, audit = pivot_lists(adj, strategy)
            want, want_audit = pivot_lists_with_member_lists(adj, strategy)
            assert audit == want_audit
            for passes in (None, 0, 1):
                # the former merge reads want's lists, the new one none
                assert_same_clustering(
                    merge_clusters(g, got, passes),
                    merge_clusters_with_member_lists(g, want, passes))
            assert_same_clustering(got, want)


@settings(max_examples=60, deadline=None)
@given(graphs())
def test_pivot_and_merge_match_their_member_list_builds(g):
    assert_same_as_member_lists(g)


@pytest.mark.parametrize("seed", range(4))
def test_pivot_and_merge_match_member_lists_on_planted_graphs(seed):
    assert_same_as_member_lists(
        planted_clusters([2, 3, 5, 8] * 3, 0.2, 30, seed))


class CrossingSelector(oracles._RandomSelector):
    """The former random selector, counting the pops in which a dead hit
    takes the candidate count below a power of two."""

    crossings = 0

    def pop(self) -> int:
        bits = self.bits
        v = super().pop()
        CrossingSelector.crossings += self.bits < bits
        return v


def random_draw_graphs(n: int) -> list[list[list[int]]]:
    """Adjacency lists of three graphs on n nodes whose pivots leave many
    dead candidates: edgeless, a perfect matching of a shuffled order
    (one node unmatched for odd n), and a sparse G(n, 2/n)."""
    order = list(range(n))
    random.Random(n).shuffle(order)
    matching = [[] for _ in range(n)]
    for u, v in zip(order[0::2], order[1::2]):
        matching[u].append(v)
        matching[v].append(u)
    sparse = er_graph(n, min(1.0, 2 / n), seed=n)
    return [[[] for _ in range(n)], [sorted(row) for row in matching],
            adjacency_lists(sparse, np.ones(sparse.m, dtype=bool))]


@pytest.mark.parametrize("seed", [0, 1, 61, 2**40 + 3])
def test_inline_random_draws_match_the_former_selector(seed, monkeypatch):
    # the loop draws random pivots inline; the former loop pops them from
    # the selector object, which keeps its count and bit length from pop
    # to pop.  Both must pick the same pivots, also where a dead hit takes
    # the count below a power of two in the middle of a draw
    monkeypatch.setattr(oracles, "_RandomSelector", CrossingSelector)
    monkeypatch.setattr(CrossingSelector, "crossings", 0)
    strategy = PivotStrategy.random(seed)
    for n in DEAD_DRAW_SIZES:
        for adj in random_draw_graphs(n):
            got, audit = pivot_lists(adj, strategy)
            want, want_audit = oracles.pivot_lists_with_member_lists(
                adj, strategy)
            assert got.assignment == want.assignment, n
            assert audit.rounds == want_audit.rounds, n
    assert CrossingSelector.crossings > 40


def test_clustering_dataclass_contract():
    g = planted_clusters([3, 4, 5, 6], 0.2, 10, 1)
    adj = adjacency_lists(g, np.ones(g.m, dtype=bool))
    lazy, _ = pivot_lists(adj, PivotStrategy.degree())
    former, _ = pivot_lists_with_member_lists(adj, PivotStrategy.degree())
    assert [f.name for f in fields(Clustering) if f.init] == [
        "assignment", "clusters"]
    # lists passed in, by position or by replace, are what it returns
    lists = [list(c) for c in former.clusters]
    made = Clustering(list(former.assignment), lists)
    assert made.clusters is lists and made.num_clusters == len(lists)
    fewer = lists[1:]
    planted = replace(lazy, clusters=fewer)
    assert planted.clusters is fewer
    assert planted.num_clusters == len(fewer)
    assert planted.assignment == lazy.assignment
    # a pivot's count needs no lists; its lists, once read, are kept
    assert lazy.num_clusters == former.num_clusters
    assert lazy._lists is None
    assert lazy.clusters == former.clusters
    assert lazy.clusters is lazy.clusters
    assert lazy == former
    # left out, the lists come from the assignment: an id that no node
    # has gives an empty list
    assert Clustering([1, 1, 3]).num_clusters == 4
    assert Clustering([1, 1, 3]).clusters == [[], [0, 1], [], [2]]
    assert Clustering([]).clusters == []
