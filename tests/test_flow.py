"""The relaxation solver against flow on its explicit cut network.

``helpers.edmonds_karp`` is the reference: the first tests pin it on
known networks, the rest require ``solve_stc_lp`` to reproduce, edge by
edge, the values read off the residual source side of the cut network
that ``helpers.stc_cut_network`` builds.
"""
from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clusterdel import Graph, er_graph, pack_edge, solve_stc_lp
from helpers import (brute_force_wedges, edge_ids, edmonds_karp,
                     planted_clusters, small_graph,
                     stc_values_by_edmonds_karp)


def test_single_arc():
    assert edmonds_karp(2, 0, 1, [(0, 1, 5)]) == (5, {0})


def test_no_arcs():
    assert edmonds_karp(2, 0, 1, []) == (0, {0})


def test_parallel_arcs_add_up():
    assert edmonds_karp(2, 0, 1, [(0, 1, 3), (0, 1, 4)])[0] == 7


def test_zero_capacity_arcs_are_inert():
    assert edmonds_karp(3, 0, 2, [(0, 1, 0), (1, 2, 4)]) == (0, {0})


def test_bottleneck_path():
    arcs = [(0, 1, 9), (1, 2, 2), (2, 3, 9)]
    assert edmonds_karp(4, 0, 3, arcs) == (2, {0, 1})


def test_diamond():
    # both source arcs saturate; 1->2 reroutes the unit that 1->3 cannot take
    arcs = [(0, 1, 3), (0, 2, 2), (1, 3, 2), (2, 3, 3), (1, 2, 1)]
    assert edmonds_karp(4, 0, 3, arcs)[0] == 5


def test_clrs_example():
    # the textbook 6-node instance; max flow 23
    arcs = [(0, 1, 16), (0, 2, 13), (1, 3, 12), (2, 1, 4), (2, 4, 14),
            (3, 2, 9), (3, 5, 20), (4, 3, 7), (4, 5, 4)]
    assert edmonds_karp(6, 0, 5, arcs)[0] == 23


def test_source_side_is_minimal():
    # two cuts of equal weight; the residual side keeps only the source
    assert edmonds_karp(3, 0, 2, [(0, 1, 1), (1, 2, 1)]) == (1, {0})


def test_bipartite_matching_instance():
    # 3x3 bipartite unit network: perfect matching exists
    arcs = [(6, 0, 1), (6, 1, 1), (6, 2, 1), (3, 7, 1), (4, 7, 1), (5, 7, 1),
            (0, 3, 1), (0, 4, 1), (1, 4, 1), (1, 5, 1), (2, 5, 1), (2, 3, 1)]
    assert edmonds_karp(8, 6, 7, arcs)[0] == 3


def assert_matches_edmonds_karp(g: Graph) -> None:
    sol = solve_stc_lp(g)
    flow, values = stc_values_by_edmonds_karp(g)
    assert sol.values == values
    assert sol.objective_half_units == flow


def random_graph(trial: int) -> Graph:
    return small_graph(trial, n_lo=2, n_hi=14, ps=(0.15, 0.3, 0.5, 0.7))


@pytest.mark.parametrize("edges", [
    [(0, 1), (1, 2)],
    [(0, 1), (1, 2), (0, 2)],
    [(0, 1), (0, 2), (0, 3)],
    [(0, 1), (1, 2), (2, 3)],
], ids=["P3", "triangle", "star", "P4"])
def test_matches_edmonds_karp_small_cases(edges):
    assert_matches_edmonds_karp(Graph.from_edges(4, edges))


@pytest.mark.parametrize("trial", range(60))
def test_matches_edmonds_karp(trial):
    assert_matches_edmonds_karp(random_graph(trial))


@settings(max_examples=60, deadline=None)
@given(st.integers(1000, 10**6))
def test_matches_edmonds_karp_hypothesis(trial):
    assert_matches_edmonds_karp(random_graph(trial))


@pytest.mark.parametrize("trial", range(6))
def test_matches_edmonds_karp_wider(trial):
    assert_matches_edmonds_karp(er_graph(24, 0.12 + 0.04 * trial,
                                         seed=900 + trial))


def scipy_matching_size(g: Graph) -> int:
    sparse = pytest.importorskip("scipy.sparse")
    csgraph = pytest.importorskip("scipy.sparse.csgraph")
    rows, cols = [], []
    ids = edge_ids(g)
    for i, j, k in brute_force_wedges(g):
        a, b = ids[pack_edge(i, k)], ids[pack_edge(j, k)]
        rows += [a, b]
        cols += [b, a]
    biadjacency = sparse.csr_matrix(([1] * len(rows), (rows, cols)),
                                    shape=(g.m, g.m))
    mates = csgraph.maximum_bipartite_matching(biadjacency,
                                               perm_type="column")
    return int((mates >= 0).sum())


@pytest.mark.parametrize("graph", [
    pytest.param(lambda: er_graph(60, 0.08, seed=3), id="er60"),
    pytest.param(lambda: er_graph(120, 0.05, seed=4), id="er120"),
    pytest.param(lambda: planted_clusters((8, 6, 5, 4) * 4, 0.2, 30, 5),
                 id="planted"),
])
def test_objective_equals_scipy_matching_size(graph):
    g = graph()
    assert solve_stc_lp(g).objective_half_units == scipy_matching_size(g)
