from __future__ import annotations

import json
import sys
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clusterdel import (
    ArcBudgetError,
    Clustering,
    Graph,
    InvariantError,
    PivotStrategy,
    apply_merge,
    best_of_random,
    er_graph,
    labeling_from_lp,
    match_flip_pivot,
    maximal_wedge_set_fast,
    merge_clusters,
    parse_edge_list,
    serialize_edge_list,
    solve_stc_lp,
    stc_lp_round,
    tight_instance,
)
from clusterdel import WedgeSet, pipelines
from clusterdel.stc import DEFAULT_ARC_BUDGET
from helpers import clusters_are_cliques, cut_deletions, planted_clusters
from oracles import (maximal_wedge_set_simple, mfp_with_wedge_set,
                     tight_wedge_set)

JSON_KEYS = ["algorithm", "strategy", "seed", "n", "m", "wedges",
             "weak_edges", "lp_value_half_units", "deletions",
             "lower_bound_half_units", "ratio", "m_W", "m_S", "m_1",
             "b_half", "n_half", "boundary_edges", "internal_nonedges",
             "clusters", "merged", "runtime_ms"]

P3 = Graph.from_edges(3, [(0, 1), (1, 2)])


def test_mfp_on_path():
    res = match_flip_pivot(P3, PivotStrategy.degree())
    assert res.algorithm == "mfp"
    assert res.deletions == 2
    assert res.lower_bound_half_units == 2
    assert res.ratio == Fraction(2)
    assert res.m_w == 2 and res.m_s == 0
    assert res.clustering.num_clusters == 3


def test_mfp_on_tight_instance_with_injected_wedges():
    g = tight_instance(12)
    ws, q = tight_wedge_set(g), 12 // 2
    res = mfp_with_wedge_set(g, PivotStrategy.degree(), ws)
    assert res.deletions == 3 * 12 // 2 - 4
    assert res.weak_edges == 2 * q
    assert res.lower_bound_half_units == 2 * q
    assert res.ratio == Fraction(14, 6)


def test_mfp_matcher_selection():
    g = tight_instance(8)
    fast = match_flip_pivot(g, PivotStrategy.degree())
    simple = mfp_with_wedge_set(g, PivotStrategy.degree(),
                                maximal_wedge_set_simple(g))
    for res in (fast, simple):
        assert clusters_are_cliques(g, res.clustering.clusters)


def test_stclp_on_tight_instance():
    g = tight_instance(12)
    res = stc_lp_round(g, PivotStrategy.degree())
    assert res.algorithm == "stclp"
    assert res.lp_value_half_units == 12
    assert res.deletions == 6
    assert res.ratio == Fraction(1)
    assert res.m_1 == 6
    assert res.b_half == 0 and res.n_half == 0
    assert res.clustering.num_clusters == 7


def test_stclp_respects_arc_budget():
    g = er_graph(20, 0.4, seed=5)
    with pytest.raises(ArcBudgetError):
        stc_lp_round(g, PivotStrategy.degree(), arc_budget=2 * g.m + 2)


def test_stclp_rejects_a_negative_arc_budget():
    g = tight_instance(12)
    with pytest.raises(ValueError, match="negative"):
        solve_stc_lp(g, -3)
    with pytest.raises(ValueError, match="negative"):
        stc_lp_round(g, PivotStrategy.degree(), arc_budget=-3)
    with pytest.raises(ValueError, match="negative"):
        best_of_random(g, 2, algorithm="stclp", arc_budget=-3)
    # a budget of 0 is a budget, which the smallest network exceeds
    with pytest.raises(ArcBudgetError):
        solve_stc_lp(g, 0)


def test_deletions_decompose_by_weakness():
    g = er_graph(14, 0.45, seed=8)
    res = match_flip_pivot(g, PivotStrategy.ratio())
    assert res.deletions == res.m_w + res.m_s
    assert res.deletions == cut_deletions(g, res.clustering.assignment)
    assert res.boundary_edges == res.audit.boundary_edges
    res_lp = stc_lp_round(g, PivotStrategy.ratio())
    assert res_lp.deletions == (res_lp.m_1 + res_lp.b_half) + res_lp.m_s
    assert res_lp.weak_edges == res_lp.m_1 + res_lp.b_half + res_lp.n_half


def test_ratio_is_null_when_no_wedges():
    g = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
    res = match_flip_pivot(g, PivotStrategy.degree())
    assert res.deletions == 0
    assert res.ratio is None
    assert res.to_json_dict()["ratio"] is None


def test_json_schema_and_key_order():
    g = er_graph(10, 0.5, seed=3)
    res = stc_lp_round(g, PivotStrategy.random(42))
    d = res.to_json_dict()
    assert list(d.keys()) == JSON_KEYS
    assert d["algorithm"] == "stclp"
    assert d["strategy"] == "random"
    assert d["seed"] == 42
    assert d["clusters"] == res.clustering.num_clusters
    assert d["ratio"] == {"num": res.ratio.numerator,
                          "den": res.ratio.denominator,
                          "float": float(res.ratio)}
    assert set(d["runtime_ms"]) == {"lower_bound", "pivot", "merge"}
    json.dumps(d)  # must be serializable as-is


def test_json_mfp_nulls_lp_only_fields():
    g = er_graph(10, 0.5, seed=3)
    d = match_flip_pivot(g, PivotStrategy.degree()).to_json_dict()
    assert d["lp_value_half_units"] is None
    assert d["m_1"] is None and d["b_half"] is None and d["n_half"] is None
    assert d["seed"] is None
    assert d["runtime_ms"]["merge"] is None


def test_merge_joins_compatible_clusters():
    g = er_graph(4, 1.0, seed=0)
    split = Clustering([0, 0, 1, 1], [[0, 1], [2, 3]])
    merged = merge_clusters(g, split)
    assert merged.clusters == [[0, 1, 2, 3]]


def test_merge_respects_missing_edges():
    g = Graph.from_edges(4, [(0, 1), (2, 3)])
    split = Clustering([0, 0, 1, 1], [[0, 1], [2, 3]])
    merged = merge_clusters(g, split)
    assert merged.clusters == [[0, 1], [2, 3]]


def test_merge_is_largest_first():
    # 5 pairwise mergeable singletons collapse in one pass
    g = er_graph(5, 1.0, seed=0)
    singletons = Clustering(list(range(5)), [[v] for v in range(5)])
    merged = merge_clusters(g, singletons)
    assert merged.clusters == [[0, 1, 2, 3, 4]]


def test_merge_max_passes_zero_is_identity():
    g = er_graph(4, 1.0, seed=0)
    split = Clustering([0, 0, 1, 1], [[0, 1], [2, 3]])
    merged = merge_clusters(g, split, max_passes=0)
    assert merged.clusters == split.clusters


def test_merge_with_zero_budget_is_identity():
    g = er_graph(5, 1.0, seed=0)
    singletons = Clustering(list(range(5)), [[v] for v in range(5)])
    merged = merge_clusters(g, singletons, budget_ms=0)
    assert merged.clusters == singletons.clusters
    assert merged.assignment == singletons.assignment


def test_apply_merge_with_zero_budget_keeps_deletions():
    g = tight_instance(12)
    res = match_flip_pivot(g, PivotStrategy.degree())
    assert apply_merge(g, res).deletions < res.deletions
    out = apply_merge(g, res, budget_ms=0)
    assert out.merged is True
    assert out.deletions == res.deletions
    assert out.clustering.clusters == res.clustering.clusters


@pytest.mark.parametrize("budget", [float("nan"), -5.0, -1e-9])
def test_merge_rejects_nan_or_negative_budget(budget):
    g = tight_instance(12)
    res = match_flip_pivot(g, PivotStrategy.degree())
    with pytest.raises(ValueError, match="non-negative"):
        merge_clusters(g, res.clustering, budget_ms=budget)
    with pytest.raises(ValueError, match="non-negative"):
        apply_merge(g, res, budget_ms=budget)


def test_merge_with_infinite_budget_is_unbudgeted():
    g = tight_instance(12)
    res = match_flip_pivot(g, PivotStrategy.degree())
    unbudgeted = merge_clusters(g, res.clustering)
    assert unbudgeted.clusters != res.clustering.clusters
    assert merge_clusters(g, res.clustering,
                          budget_ms=float("inf")) == unbudgeted


def test_apply_merge_rescoring():
    g = tight_instance(8)
    res = match_flip_pivot(g, PivotStrategy.degree())
    out = apply_merge(g, res)
    assert out.merged is True
    assert out.deletions <= res.deletions
    assert clusters_are_cliques(g, out.clustering.clusters)
    # pivot-stage audit carries over untouched
    assert out.boundary_edges == res.boundary_edges
    assert out.internal_nonedges == res.internal_nonedges
    assert out.runtime_ms["merge"] is not None


def test_apply_merge_keeps_strategy_metadata():
    g = er_graph(12, 0.4, seed=6)
    res = stc_lp_round(g, PivotStrategy.random(3))
    out = apply_merge(g, res)
    assert (out.algorithm, out.strategy, out.seed) == ("stclp", "random", 3)
    assert out.lp_value_half_units == res.lp_value_half_units


def test_best_of_random_reproducible():
    g = er_graph(16, 0.4, seed=1)
    best1, summary1 = best_of_random(g, trials=6, base_seed=10)
    best2, summary2 = best_of_random(g, trials=6, base_seed=10)
    assert best1.deletions == best2.deletions
    assert best1.seed == best2.seed
    assert summary1 == summary2
    singles = [match_flip_pivot(g, PivotStrategy.random(10 + i)).deletions
               for i in range(6)]
    assert best1.deletions == min(singles)
    assert summary1["trials"] == 6
    assert summary1["mean_deletions"] == pytest.approx(sum(singles) / 6)


def test_best_of_random_tie_prefers_earliest_seed():
    g = tight_instance(8)
    best, _ = best_of_random(g, trials=4, base_seed=5)
    assert best.strategy == "random"
    singles = [match_flip_pivot(g, PivotStrategy.random(5 + i)).deletions
               for i in range(4)]
    first_argmin = 5 + singles.index(min(singles))
    assert best.seed == first_argmin


def test_best_of_random_validates_arguments():
    g = er_graph(8, 0.4, seed=0)
    with pytest.raises(ValueError):
        best_of_random(g, trials=0)
    with pytest.raises(ValueError):
        best_of_random(g, trials=2, algorithm="nope")


def test_best_of_random_rejects_negative_base_seed(monkeypatch):
    # base seed -1 would run seeds -1, 0, 1, and Random(-1) replays
    # Random(1); the check comes before the preparation
    g = er_graph(60, 0.1, seed=4)
    monkeypatch.setattr(pipelines, "_prepare", None)
    with pytest.raises(ValueError, match="must not be negative"):
        best_of_random(g, trials=3, base_seed=-1)


def test_wedge_injection_overrides_matcher():
    g = tight_instance(8)
    ws, q = tight_wedge_set(g), 8 // 2
    res = mfp_with_wedge_set(g, PivotStrategy.ratio(), ws)
    assert res.wedges == q
    assert res.weak_edges == np.count_nonzero(ws.weak_mask)
    assert res.weak_set == ws.weak_edges


def test_pipelines_build_no_wedge_tuples(monkeypatch):
    g = er_graph(40, 0.15, seed=2)
    want = [match_flip_pivot(g, PivotStrategy.degree()),
            best_of_random(g, 3)[0]]

    def no_tuples(ws):
        raise AssertionError("read WedgeSet.wedges")

    monkeypatch.setattr(WedgeSet, "wedges", property(no_tuples))
    got = [match_flip_pivot(g, PivotStrategy.degree()),
           best_of_random(g, 3)[0]]
    assert got[0].wedges > 0
    for a, b in zip(got, want):
        a, b = a.to_json_dict(), b.to_json_dict()
        del a["runtime_ms"], b["runtime_ms"]
        assert a == b
    with pytest.raises(AssertionError, match="WedgeSet.wedges"):
        maximal_wedge_set_fast(g).wedges


def test_mfp_takes_no_wedge_set():
    # the certified bound comes from the pipeline's own matcher only
    ws = tight_wedge_set(tight_instance(8))
    with pytest.raises(TypeError):
        match_flip_pivot(ws.graph, PivotStrategy.degree(), wedge_set=ws)


def test_stclp_weak_set_is_the_lp_labeling():
    for g in (tight_instance(8), er_graph(30, 0.2, seed=3)):
        res = stc_lp_round(g, PivotStrategy.ratio())
        assert res.weak_set == labeling_from_lp(solve_stc_lp(g))
        assert res.weak_edges == len(res.weak_set)


@pytest.mark.parametrize("pipeline", [match_flip_pivot, stc_lp_round])
def test_mutating_weak_set_changes_nothing(pipeline):
    g = er_graph(40, 0.15, seed=2)
    res = pipeline(g, PivotStrategy.degree())
    weak_set, weak_edges = set(res.weak_set), res.weak_edges
    assert weak_set
    merged = apply_merge(g, res).to_json_dict()
    del merged["runtime_ms"]
    res.weak_set.clear()
    assert res.weak_set == weak_set
    assert res.weak_edges == weak_edges
    again = apply_merge(g, res)
    assert again.weak_edges == weak_edges
    got = again.to_json_dict()
    del got["runtime_ms"]
    assert got == merged


def test_apply_merge_rejects_a_graph_of_another_size():
    g = er_graph(40, 0.15, seed=2)
    res = match_flip_pivot(g, PivotStrategy.degree())
    other = er_graph(40, 0.15, seed=3)
    assert other.m != g.m
    with pytest.raises(ValueError, match="graph the result"):
        apply_merge(other, res)


def test_apply_merge_rejects_a_graph_of_the_same_size():
    g = er_graph(40, 0.15, seed=2)
    res = stc_lp_round(g, PivotStrategy.degree())
    # the same edges under other node ids: the result's weak mask and
    # clustering would be read against the wrong edges
    flip = [g.n - 1 - v for v in range(g.n)]
    other = Graph.from_edges(g.n, [(flip[u], flip[v]) for u, v in g.edges()])
    assert other.m == g.m and other.packed_edges() != g.packed_edges()
    with pytest.raises(ValueError, match="graph the result"):
        apply_merge(other, res)


def _patch_pivot(monkeypatch, tamper):
    # the pipelines pivot the prepared adjacency lists with pivot_lists
    real = pipelines.pivot_lists
    monkeypatch.setattr(pipelines, "pivot_lists",
                        lambda adj, strategy: tamper(*real(adj, strategy)))


def test_score_rejects_non_clique_cluster(monkeypatch):
    _patch_pivot(monkeypatch, lambda clustering, audit: (
        Clustering([0, 0, 0], [[0, 1, 2]]), audit))
    with pytest.raises(InvariantError, match="non-clique"):
        match_flip_pivot(P3, PivotStrategy.degree())


def test_score_rejects_boundary_audit_mismatch(monkeypatch):
    _patch_pivot(monkeypatch, lambda clustering, audit: (
        clustering, replace(audit, boundary_edges=audit.boundary_edges + 1)))
    with pytest.raises(InvariantError, match="boundary"):
        match_flip_pivot(P3, PivotStrategy.degree())


def test_score_rejects_nonedge_audit_mismatch(monkeypatch):
    _patch_pivot(monkeypatch, lambda clustering, audit: (
        clustering,
        replace(audit, internal_nonedges=audit.internal_nonedges + 1)))
    with pytest.raises(InvariantError, match="non-edges"):
        stc_lp_round(P3, PivotStrategy.degree())


def test_apply_merge_rejects_more_deletions(monkeypatch):
    g = er_graph(4, 1.0, seed=0)
    res = match_flip_pivot(g, PivotStrategy.degree())
    assert res.deletions == 0
    monkeypatch.setattr(pipelines, "merge_clusters",
                        lambda g, clustering, budget_ms=None: Clustering(
                            list(range(4)), [[v] for v in range(4)]))
    with pytest.raises(InvariantError, match="merge increased"):
        apply_merge(g, res)


# Every pipeline call a graph's memoized bound serves, each a function of
# the graph alone; the apply_merge calls merge a result of the same graph.
SHARED_BOUND_CALLS = [
    *(lambda g, s=s, p=p: p(g, s)
      for p in (match_flip_pivot, stc_lp_round)
      for s in (PivotStrategy.degree(), PivotStrategy.ratio(),
                PivotStrategy.random(7))),
    lambda g: best_of_random(g, 3, 5)[0],
    lambda g: best_of_random(g, 3, 5, algorithm="stclp")[0],
    lambda g: apply_merge(g, match_flip_pivot(g, PivotStrategy.degree())),
    lambda g: apply_merge(g, stc_lp_round(g, PivotStrategy.ratio())),
    lambda g: apply_merge(g, best_of_random(g, 2, 9, algorithm="stclp")[0]),
]


def _outputs(res) -> tuple:
    d = res.to_json_dict()
    del d["runtime_ms"]
    return (d, res.clustering.assignment, res.clustering.clusters,
            res.audit.rounds)


def assert_shared_bound_changes_nothing(g: Graph) -> None:
    text = serialize_edge_list(g)
    served = parse_edge_list(text)
    for call in SHARED_BOUND_CALLS:
        call(served)
    assert set(served._bounds) == {"mfp", ("stclp", DEFAULT_ARC_BUDGET)}
    for call in SHARED_BOUND_CALLS:
        assert _outputs(call(served)) == _outputs(call(parse_edge_list(text)))


@pytest.mark.parametrize("seed", range(4))
def test_shared_bound_on_planted_graphs(seed):
    sizes = [3 + (seed + i) % 6 for i in range(6 + 2 * seed)]
    assert_shared_bound_changes_nothing(
        planted_clusters(sizes, 0.1 * (seed % 3), 4 * seed + 3, seed))


@st.composite
def graphs(draw) -> Graph:
    n = draw(st.integers(0, 16))
    density = draw(st.sampled_from([0.1, 0.3, 0.6, 0.9]))
    rng = draw(st.randoms(use_true_random=False))
    return Graph.from_edges(n, [(u, v) for u in range(n)
                                for v in range(u + 1, n)
                                if rng.random() < density])


@settings(max_examples=40, deadline=None)
@given(graphs())
def test_shared_bound_on_random_graphs(g):
    assert_shared_bound_changes_nothing(g)


@pytest.mark.parametrize("seed", range(3))
def test_no_call_mutates_the_memoized_lists(seed):
    g = planted_clusters([3, 4, 5, 6, 7], 0.2, 15, seed)
    SHARED_BOUND_CALLS[0](g)
    SHARED_BOUND_CALLS[3](g)
    # the memo holds each bound beside its stripped lists, which every
    # later pivot and merge on g reads and none changes
    memo = {key: (bound, [row.copy() for row in adj])
            for key, (bound, adj) in g._bounds.items()}
    assert set(memo) == {"mfp", ("stclp", DEFAULT_ARC_BUDGET)}
    for call in SHARED_BOUND_CALLS:
        call(g)
    assert g._bounds.keys() == memo.keys()
    for key, (bound, adj) in g._bounds.items():
        assert bound is memo[key][0]
        assert adj == memo[key][1]
        assert adj == pipelines.adjacency_lists(g, ~bound.weak_mask)


def _count_calls(monkeypatch, name: str) -> list:
    real, calls = getattr(pipelines, name), []

    def counted(g, *args):
        calls.append(g)
        return real(g, *args)

    monkeypatch.setattr(pipelines, name, counted)
    return calls


def test_one_matcher_run_per_graph(monkeypatch):
    calls = _count_calls(monkeypatch, "maximal_wedge_set_fast")
    g, other = (planted_clusters([4, 5, 6, 7], 0.2, 12, seed)
                for seed in (1, 2))
    match_flip_pivot(g, PivotStrategy.degree())
    match_flip_pivot(g, PivotStrategy.ratio())
    best, _ = best_of_random(g, 3)
    assert best.wedges > 0
    assert calls == [g]
    apply_merge(g, best)
    best_of_random(other, 3)
    match_flip_pivot(other, PivotStrategy.degree())
    assert calls == [g, other]


def test_one_relaxation_per_graph_and_budget(monkeypatch):
    calls = _count_calls(monkeypatch, "solve_stc_lp")
    g, other = (planted_clusters([4, 5, 6, 7], 0.2, 12, seed)
                for seed in (1, 2))
    stc_lp_round(g, PivotStrategy.degree())
    stc_lp_round(g, PivotStrategy.ratio())
    best_of_random(g, 3, algorithm="stclp")
    assert calls == [g]
    big = 10 * DEFAULT_ARC_BUDGET
    stc_lp_round(g, PivotStrategy.degree(), arc_budget=big)
    best_of_random(g, 2, algorithm="stclp", arc_budget=big)
    stc_lp_round(other, PivotStrategy.degree())
    stc_lp_round(g, PivotStrategy.random(4))
    assert calls == [g, g, other]
    # the matcher's bound is memoized apart from the relaxation's
    match_flip_pivot(g, PivotStrategy.degree())
    assert calls == [g, g, other]
    assert set(g._bounds) == {"mfp", ("stclp", DEFAULT_ARC_BUDGET),
                              ("stclp", big)}


def _budget_error(g, budget, trials=None):
    with pytest.raises(ArcBudgetError) as info:
        if trials is None:
            stc_lp_round(g, PivotStrategy.degree(), arc_budget=budget)
        else:
            best_of_random(g, trials, algorithm="stclp", arc_budget=budget)
    return str(info.value), info.value.needed


@pytest.mark.parametrize("trials", [None, 3])
def test_a_tripped_budget_is_never_memoized(trials):
    g = er_graph(20, 0.4, seed=5)
    budget = 2 * g.m + 2
    before = _budget_error(g, budget, trials)
    assert g._bounds == {}
    stc_lp_round(g, PivotStrategy.degree())
    assert list(g._bounds) == [("stclp", DEFAULT_ARC_BUDGET)]
    assert _budget_error(g, budget, trials) == before
    assert list(g._bounds) == [("stclp", DEFAULT_ARC_BUDGET)]


@pytest.mark.parametrize("pipeline", [match_flip_pivot, stc_lp_round])
def test_certificate_arrays_are_read_only(pipeline):
    g = er_graph(30, 0.2, seed=4)
    for res in (pipeline(g, PivotStrategy.degree()),
                pipeline(g, PivotStrategy.ratio())):
        cert = res.certificate
        with pytest.raises(ValueError, match="read-only"):
            cert.weak_mask[0] = not cert.weak_mask[0]
        if cert.values is not None:
            with pytest.raises(ValueError, match="read-only"):
                cert.values[0] = 2


@pytest.mark.parametrize("algorithm", ["mfp", "stclp"])
def test_one_certificate_per_bound(algorithm):
    g = planted_clusters([3, 4, 5, 6, 7], 0.2, 15, 2)
    pipeline = match_flip_pivot if algorithm == "mfp" else stc_lp_round
    first = pipeline(g, PivotStrategy.degree())
    results = [first, pipeline(g, PivotStrategy.ratio()),
               best_of_random(g, 3, 5, algorithm=algorithm)[0],
               apply_merge(g, first)]
    key = "mfp" if algorithm == "mfp" else ("stclp", DEFAULT_ARC_BUDGET)
    cert = g._bounds[key][0]
    # every result on g, merged or not, holds the memo's own certificate
    # beside g, and the certificate holds no graph
    for res in results:
        assert res.certificate is cert
        assert res.graph is g
        assert (res.algorithm, res.wedges, res.lp_value_half_units,
                res.lower_bound_half_units) == cert[:4]
    assert cert.algorithm == algorithm
    assert not any(isinstance(part, Graph) for part in cert)
    # lb computes the same bound through the same function
    fresh = pipelines._lower_bound(g, algorithm, DEFAULT_ARC_BUDGET)
    assert fresh is not cert
    assert fresh[:4] == cert[:4]
    assert fresh.weak_mask.tolist() == cert.weak_mask.tolist()
    if algorithm == "stclp":
        assert fresh.values.tolist() == cert.values.tolist()
    else:
        assert fresh.values is cert.values is None
    # the benchmark's self-test forges a result's bound this way
    forged = replace(first, lower_bound_half_units=1)
    assert forged.lower_bound_half_units == 1
    assert forged.certificate is cert and forged.graph is g
    assert forged.weak_set == first.weak_set


@pytest.mark.parametrize("call", SHARED_BOUND_CALLS)
def test_a_dropped_result_leaves_no_reference_to_the_graph(call):
    g = er_graph(30, 0.2, seed=4)
    refs = sys.getrefcount(g)
    call(g)
    assert sys.getrefcount(g) == refs
    call(g)  # reusing the memoized bound
    assert sys.getrefcount(g) == refs
