from __future__ import annotations

import random
import tracemalloc
from unittest import mock

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
                     planted_clusters, solution_lines, stc_cut_network,
                     values_from_labels)
from oracles import (enumerate_open_wedges, exact_stc_lp,
                     first_fit_by_slices, gallai_csr_by_stable_sort,
                     hopcroft_karp, verify_stc_feasible)

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
    real = stc._maximum_matching

    def empty_matching(ptr, adj):
        mate_l, _ = real(ptr, adj)
        return [-1] * len(mate_l), [-1] * len(mate_l)

    monkeypatch.setattr(stc, "_maximum_matching", empty_matching)
    with pytest.raises(InvariantError, match="matching size"):
        solve_stc_lp(P3)


def test_solution_lines_use_labels():
    from clusterdel import parse_edge_list

    g = parse_edge_list("10 20\n20 30\n")
    sol = solve_stc_lp(g)
    assert solution_lines(sol) == ["10 20 1", "20 30 1"]


def assert_maximum_matching(ptr: list[int], adj: list[int]) -> list[int]:
    """The matcher's mates are inverse maps along arcs of the CSR, and the
    matching is as large as the Hopcroft-Karp oracle's.  Returns mate_l."""
    mate_l, mate_r = stc._maximum_matching(ptr, adj)
    assert len(mate_l) == len(mate_r) == len(ptr) - 1
    for u, v in enumerate(mate_l):
        if v >= 0:
            assert mate_r[v] == u
            assert v in adj[ptr[u]:ptr[u + 1]]
    for v, u in enumerate(mate_r):
        if u >= 0:
            assert mate_l[u] == v
    assert mate_l.count(-1) == hopcroft_karp(ptr, adj)[0].count(-1)
    return mate_l


@st.composite
def symmetric_csrs(draw) -> tuple[list[int], list[int]]:
    """A CSR with arc u -> v exactly when v -> u, no loops and no repeated
    arcs, as the Gallai graph has; each row in a drawn order, since the
    scans follow it."""
    n = draw(st.integers(1, 30))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1),
                                    st.integers(0, n - 1)), max_size=4 * n))
    rows: list[set[int]] = [set() for _ in range(n)]
    for u, v in pairs:
        if u != v:
            rows[u].add(v)
            rows[v].add(u)
    ptr, adj = [0], []
    for row in rows:
        adj += draw(st.permutations(sorted(row)))
        ptr.append(len(adj))
    return ptr, adj


# no Pothen-Fan+ phase hands over, the shipped share, and a handover
# after the first phase that augments anything
GAINS = (0.0, stc._PF_MIN_GAIN, 2.0)


@settings(max_examples=300, deadline=None)
@given(symmetric_csrs(), st.sampled_from(GAINS))
def test_matching_is_maximum_on_symmetric_csrs(csr, gain):
    with mock.patch.object(stc, "_PF_MIN_GAIN", gain):
        assert_maximum_matching(*csr)


@settings(max_examples=300, deadline=None)
@given(symmetric_csrs())
def test_first_fit_is_the_slice_start_on_symmetric_csrs(csr):
    assert stc._first_fit(*csr) == first_fit_by_slices(*csr)


def hub_graph(seed: int) -> Graph:
    """Disjoint cliques of 3 to 8 nodes, plus node 0 joined to a seeded
    share of all other nodes: most open wedges have their center at 0."""
    rng = random.Random(seed)
    edges, base = [], 1
    for _ in range(rng.randint(3, 12)):
        size = rng.randint(3, 8)
        edges += [(base + a, base + b)
                  for a in range(size) for b in range(a + 1, size)]
        base += size
    share = rng.choice((0.2, 0.5, 1.0))
    edges += [(0, v) for v in range(1, base) if rng.random() < share]
    return Graph.from_edges(base, edges)


def graph_of_kind(kind: str, seed: int) -> Graph:
    rng = random.Random(seed)
    if kind == "er":
        return er_graph(rng.randint(5, 60),
                        rng.choice((0.05, 0.1, 0.2, 0.4)), seed=seed)
    if kind == "planted":
        sizes = [rng.randint(2, 10) for _ in range(rng.randint(3, 12))]
        return planted_clusters(sizes, rng.choice((0.0, 0.1, 0.3)),
                                rng.randint(0, 40), seed)
    return hub_graph(seed)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(("er", "planted", "hub")), st.integers(0, 10**6),
       st.sampled_from(GAINS))
def test_matching_is_maximum_on_gallai_csrs(kind, seed, gain):
    ptr, adj = stc._gallai_csr(graph_of_kind(kind, seed), DEFAULT_ARC_BUDGET)
    with mock.patch.object(stc, "_PF_MIN_GAIN", gain):
        assert_maximum_matching(ptr, adj)


# a few pairs per block, so that most graphs take several blocks, and
# the shipped block
PAIR_BLOCKS = (3, 40, stc._PAIR_BLOCK)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(("er", "planted", "hub")), st.integers(0, 10**6),
       st.sampled_from(PAIR_BLOCKS))
def test_gallai_build_and_start_are_the_former_ones(kind, seed, block):
    # same CSR as the stable sort (so the scans visit arcs in the same
    # order), same greedy mates and lookahead, same relaxation values
    g = graph_of_kind(kind, seed)
    csr = gallai_csr_by_stable_sort(g, DEFAULT_ARC_BUDGET)
    with mock.patch.object(stc, "_PAIR_BLOCK", block):
        assert stc._gallai_csr(g, DEFAULT_ARC_BUDGET) == csr
        sol = solve_stc_lp(g)
    assert stc._first_fit(*csr) == first_fit_by_slices(*csr)
    with mock.patch.object(stc, "_gallai_csr", gallai_csr_by_stable_sort), \
            mock.patch.object(stc, "_first_fit", first_fit_by_slices):
        former = solve_stc_lp(g)
    assert sol.values == former.values
    assert sol.objective_half_units == former.objective_half_units


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(("er", "planted", "hub")), st.integers(0, 10**6),
       st.sampled_from(PAIR_BLOCKS), st.floats(0.0, 1.0))
def test_gallai_build_budget_errors_are_the_former_ones(kind, seed, block,
                                                        share):
    g = graph_of_kind(kind, seed)
    arcs = 2 * g.m + len(gallai_csr_by_stable_sort(g, DEFAULT_ARC_BUDGET)[1])
    budget = int(share * arcs)
    try:
        want = gallai_csr_by_stable_sort(g, budget)
    except ArcBudgetError as exc:
        want = ("needed", exc.needed)
    with mock.patch.object(stc, "_PAIR_BLOCK", block):
        try:
            got = stc._gallai_csr(g, budget)
        except ArcBudgetError as exc:
            got = ("needed", exc.needed)
    assert got == want


class HandoverProbe:
    """Stands in for _PF_MIN_GAIN.  The matcher compares a phase's
    augmentations with _PF_MIN_GAIN * roots; the probe records (roots,
    augmentations) and makes every such phase hand over."""

    def __init__(self):
        self.phases: list[tuple[int, int]] = []

    def __mul__(self, roots: int):
        probe = self

        class Threshold:
            def __gt__(self, augmented: int) -> bool:
                probe.phases.append((roots, augmented))
                return True

        return Threshold()


def test_hopcroft_karp_finishes_a_warm_start_below_maximum():
    # on this graph's double cover the greedy start and one Pothen-Fan+
    # phase leave the matching one short of maximum
    g = er_graph(7, 0.5, seed=11)
    ptr, adj = stc._gallai_csr(g, DEFAULT_ARC_BUDGET)
    probe = HandoverProbe()
    with mock.patch.object(stc, "_PF_MIN_GAIN", probe):
        mate_l = assert_maximum_matching(ptr, adj)
    assert len(probe.phases) == 1
    roots, augmented = probe.phases[0]
    assert augmented > 0
    with_arcs = sum(ptr[u] < ptr[u + 1] for u in range(g.m))
    warm = with_arcs - (roots - augmented)
    maximum = g.m - mate_l.count(-1)
    assert warm == maximum - 1
