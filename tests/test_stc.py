from __future__ import annotations

import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clusterdel import (
    ArcBudgetError,
    Graph,
    InvariantError,
    er_graph,
    labeling_from_lp,
    pack_edge,
    solve_stc_lp,
)
from clusterdel import stc
from clusterdel.stc import DEFAULT_ARC_BUDGET
from helpers import (edge_ids, labels_feasible, labels_from_values,
                     solution_lines, stc_cut_network, values_from_labels)
from oracles import enumerate_open_wedges, exact_stc_lp, verify_stc_feasible

P3 = Graph.from_edges(3, [(0, 1), (1, 2)])
TRIANGLE = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
STAR = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
P4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])


def test_network_shape_for_path():
    nodes, source, sink, arcs = stc_cut_network(P3)
    assert (nodes, source, sink) == (2 * P3.m + 2, 2 * P3.m, 2 * P3.m + 1)
    # one intake and one outlet arc per edge, two arcs for the one wedge
    assert len(arcs) == 2 * P3.m + 2
    for e in range(P3.m):
        assert (source, 2 * e, 1) in arcs
        assert (2 * e + 1, sink, 1) in arcs


def test_network_shape_for_triangle():
    assert len(stc_cut_network(TRIANGLE)[3]) == 2 * TRIANGLE.m


def test_network_shape_for_star():
    # three wedges at the hub
    assert len(stc_cut_network(STAR)[3]) == 2 * STAR.m + 6


def test_path_solution():
    sol = solve_stc_lp(P3)
    assert sol.objective_half_units == 2
    assert sol.values == [1, 1]
    ids = edge_ids(P3)
    assert sol.values[ids[pack_edge(0, 1)]] == 1
    assert sol.values[ids[pack_edge(2, 1)]] == 1


def test_triangle_solution_is_all_strong():
    sol = solve_stc_lp(TRIANGLE)
    assert sol.objective_half_units == 0
    assert sol.values == [0, 0, 0]


def test_star_solution_is_half_integral():
    # pairwise wedge constraints force weakness 1/2 on every spoke
    sol = solve_stc_lp(STAR)
    assert sol.objective_half_units == 3
    assert sol.values == [1, 1, 1]


def test_path_four_solution():
    sol = solve_stc_lp(P4)
    assert sol.objective_half_units == 2
    assert verify_stc_feasible(P4, sol.values)


def test_empty_and_edgeless_graphs():
    g = Graph.from_edges(4, [])
    assert solve_stc_lp(g).objective_half_units == 0
    assert exact_stc_lp(g) == 0


@pytest.mark.parametrize("g,expected", [
    (P3, 2), (TRIANGLE, 0), (STAR, 3), (P4, 2),
])
def test_exact_lp_frozen_values(g, expected):
    assert exact_stc_lp(g) == expected


def test_exact_lp_guards_size():
    g = er_graph(10, 0.8, seed=3)
    assert g.m > 12
    with pytest.raises(ValueError):
        exact_stc_lp(g)


@pytest.mark.parametrize("trial", range(40))
def test_solver_matches_exact_lp(trial):
    g = er_graph(3 + trial % 6, 0.5, seed=trial)
    if g.m > 12:
        pytest.skip("outside exact-LP size guard")
    sol = solve_stc_lp(g)
    assert sol.objective_half_units == exact_stc_lp(g)
    assert verify_stc_feasible(g, sol.values)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 14), st.sampled_from([0.2, 0.5, 0.8]),
       st.integers(0, 10**6))
def test_solution_always_feasible_and_half_integral(n, p, seed):
    g = er_graph(n, p, seed=seed)
    sol = solve_stc_lp(g)
    assert all(v in (0, 1, 2) for v in sol.values)
    assert sum(sol.values) == sol.objective_half_units
    assert verify_stc_feasible(g, sol.values)


def test_feasibility_checker_spots_violations():
    assert verify_stc_feasible(P3, [1, 1])
    assert verify_stc_feasible(P3, [2, 0])
    assert not verify_stc_feasible(P3, [1, 0])
    assert not verify_stc_feasible(P3, [0, 0])


def test_labels_round_trip():
    for values in ([0, 0], [1, 1], [2, 0], [2, 2], [0, 1]):
        labels = labels_from_values(values)
        assert values_from_labels(labels) == list(values)


def test_labels_feasibility_matches_values():
    sol = solve_stc_lp(STAR)
    assert labels_feasible(STAR, labels_from_values(sol.values))
    assert not labels_feasible(P3, labels_from_values([0, 0]))


def test_labeling_from_lp_collects_weak_edges():
    sol = solve_stc_lp(P3)
    assert labeling_from_lp(sol) == {pack_edge(0, 1), pack_edge(1, 2)}
    sol_tri = solve_stc_lp(TRIANGLE)
    assert labeling_from_lp(sol_tri) == set()


def test_arc_budget_upfront_rejection():
    with pytest.raises(ArcBudgetError) as exc:
        solve_stc_lp(STAR, arc_budget=3)
    assert exc.value.budget == 3
    assert exc.value.needed > 3
    assert "arc" in str(exc.value)


def test_arc_budget_mid_stream_rejection():
    g = er_graph(20, 0.4, seed=5)
    lower = 2 * g.m
    with pytest.raises(ArcBudgetError) as exc:
        solve_stc_lp(g, arc_budget=lower + 2)
    # the first count past the budget, as a wedge-by-wedge build reports it
    assert exc.value.needed == lower + 4
    with pytest.raises(ArcBudgetError) as exc:
        solve_stc_lp(g, arc_budget=lower + 3)
    assert exc.value.needed == lower + 4
    # generous budget succeeds
    sol = solve_stc_lp(g, arc_budget=DEFAULT_ARC_BUDGET)
    assert verify_stc_feasible(g, sol.values)
    assert lower + 2 * enumerate_open_wedges(g) == len(stc_cut_network(g)[3])


def test_arc_budget_counts_every_wedge():
    g = er_graph(30, 0.3, seed=8)
    needed = 2 * g.m + 2 * enumerate_open_wedges(g)
    assert solve_stc_lp(g, arc_budget=needed).objective_half_units > 0
    with pytest.raises(ArcBudgetError):
        solve_stc_lp(g, arc_budget=needed - 1)


def test_solve_respects_budget_argument():
    g = er_graph(20, 0.4, seed=5)
    with pytest.raises(ArcBudgetError):
        solve_stc_lp(g, arc_budget=2 * g.m + 2)


def test_huge_star_fails_fast_in_bounded_memory():
    # C(100000, 2) candidate pairs would take tens of GiB as arrays
    star = Graph.from_edges(100_001, [(0, v) for v in range(1, 100_001)])
    tracemalloc.start()
    try:
        with pytest.raises(ArcBudgetError):
            solve_stc_lp(star)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 256 * 2**20


def test_objective_must_equal_matching_size(monkeypatch):
    # an empty matching is not maximum; the König read-off then disagrees
    real = stc._hopcroft_karp

    def empty_matching(ptr, adj):
        mate_l, _ = real(ptr, adj)
        return [-1] * len(mate_l), [-1] * len(mate_l)

    monkeypatch.setattr(stc, "_hopcroft_karp", empty_matching)
    with pytest.raises(InvariantError, match="matching size"):
        solve_stc_lp(P3)


def test_solution_lines_use_labels():
    from clusterdel import parse_edge_list

    g = parse_edge_list("10 20\n20 30\n")
    sol = solve_stc_lp(g)
    assert solution_lines(sol) == ["10 20 1", "20 30 1"]
