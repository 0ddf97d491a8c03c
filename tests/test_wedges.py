from __future__ import annotations

import tracemalloc
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clusterdel import (
    Graph,
    WedgeSet,
    er_graph,
    maximal_wedge_set_fast,
    pack_edge,
)
from clusterdel import wedges
from helpers import (FastMatchCursor, disjoint_paths, edge_mask,
                     iter_weak_pairs, planted_clusters, triangle_count,
                     wedge_set_lines)
from oracles import maximal_wedge_set_simple, verify_wedge_set


def sweep(items: list[int], drops: set[tuple[int, int]]) -> list[tuple[int, int]]:
    """Drive a cursor, dropping the listed pairs; returns inspected pairs."""
    cur = FastMatchCursor(items)
    out = []
    while not cur.finished:
        pair = cur.pair()
        out.append(pair)
        if pair in drops:
            cur.advance_drop()
        else:
            cur.advance_keep()
    return out


def test_cursor_rejects_short_lists():
    with pytest.raises(ValueError):
        FastMatchCursor([7])


def test_cursor_two_items():
    assert sweep([4, 9], set()) == [(4, 9)]
    assert sweep([4, 9], {(4, 9)}) == [(4, 9)]


def test_cursor_all_keeps_is_triangular_sweep():
    assert sweep([1, 2, 3], set()) == [(1, 2), (1, 3), (2, 3)]


def test_cursor_drop_skips_both_members():
    # dropping (1, 2) consumes both; only (3, 4) remains inspectable
    assert sweep([1, 2, 3, 4], {(1, 2)}) == [(1, 2), (3, 4)]


def test_cursor_drop_of_trailing_pair_ends_sweep():
    assert sweep([1, 2, 3], {(1, 2)}) == [(1, 2)]


def test_cursor_drop_mid_sweep_splices_j():
    # keep (1,2), drop (1,3): 1 and 3 leave, sweep resumes at (2,4)
    assert sweep([1, 2, 3, 4], {(1, 3)}) == [(1, 2), (1, 3), (2, 4)]


def test_cursor_consecutive_drops():
    got = sweep([1, 2, 3, 4, 5, 6], {(1, 2), (3, 4), (5, 6)})
    assert got == [(1, 2), (3, 4), (5, 6)]


MATCHERS = [maximal_wedge_set_fast, maximal_wedge_set_simple]


@pytest.mark.parametrize("matcher", MATCHERS)
def test_path_three_nodes(matcher):
    g = Graph.from_edges(3, [(0, 1), (1, 2)])
    ws = matcher(g)
    assert ws.wedges == [(0, 2, 1)]
    assert ws.weak_edges == {pack_edge(0, 1), pack_edge(1, 2)}
    assert ws.weak_count == 2
    verify_wedge_set(g, ws)


@pytest.mark.parametrize("matcher", MATCHERS)
def test_star_leaves_uncoverable_wedges(matcher):
    g = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
    ws = matcher(g)
    assert ws.wedges == [(1, 2, 0)]
    assert ws.weak_edges == {pack_edge(0, 1), pack_edge(0, 2)}
    verify_wedge_set(g, ws)


@pytest.mark.parametrize("matcher", MATCHERS)
def test_triangle_has_no_wedges(matcher):
    g = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
    ws = matcher(g)
    assert ws.wedges == [] and ws.weak_edges == set()
    verify_wedge_set(g, ws)


@pytest.mark.parametrize("k", [1, 2, 5])
def test_matchers_agree_on_unique_maximal_sets(k):
    g = disjoint_paths(k)
    fast = maximal_wedge_set_fast(g)
    simple = maximal_wedge_set_simple(g)
    assert fast.wedges == simple.wedges
    assert fast.weak_edges == simple.weak_edges
    assert len(fast.wedges) == k


@settings(max_examples=80, deadline=None)
@given(st.integers(2, 30), st.sampled_from([0.1, 0.25, 0.5, 0.8]),
       st.integers(0, 10**6))
def test_matchers_produce_valid_maximal_sets(n, p, seed):
    g = er_graph(n, p, seed=seed)
    for matcher in MATCHERS:
        verify_wedge_set(g, matcher(g))


@pytest.mark.parametrize("seed", range(12))
def test_fast_matcher_inspection_bound(seed):
    g = er_graph(24, 0.4, seed=seed)
    ws = maximal_wedge_set_fast(g)
    assert ws.inspections <= len(ws.wedges) + 3 * triangle_count(g)


def test_iter_weak_pairs_unpacks():
    g = Graph.from_edges(3, [(0, 1), (1, 2)])
    ws = maximal_wedge_set_fast(g)
    assert sorted(iter_weak_pairs(ws)) == [(0, 1), (1, 2)]


def test_verify_rejects_missing_leg():
    g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    ws = WedgeSet(g, [0, 3, 1],
                  edge_mask(g, {pack_edge(0, 1), pack_edge(1, 3)}))
    with pytest.raises(ValueError):
        verify_wedge_set(g, ws)


def test_verify_rejects_closed_wedge():
    g = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
    ws = WedgeSet(g, [0, 2, 1],
                  edge_mask(g, {pack_edge(0, 1), pack_edge(1, 2)}))
    with pytest.raises(ValueError):
        verify_wedge_set(g, ws)


def test_verify_rejects_shared_edge():
    g = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
    ws = WedgeSet(g, [1, 2, 0, 1, 3, 0],
                  edge_mask(g, {pack_edge(0, 1), pack_edge(0, 2),
                               pack_edge(0, 3)}))
    with pytest.raises(ValueError):
        verify_wedge_set(g, ws)


def test_verify_rejects_non_maximal():
    g = Graph.from_edges(3, [(0, 1), (1, 2)])
    ws = WedgeSet(g, [], edge_mask(g, set()))
    with pytest.raises(ValueError):
        verify_wedge_set(g, ws)


def test_verify_rejects_weak_set_mismatch():
    g = Graph.from_edges(3, [(0, 1), (1, 2)])
    ws = WedgeSet(g, [0, 2, 1], edge_mask(g, {pack_edge(0, 1)}))
    with pytest.raises(ValueError):
        verify_wedge_set(g, ws)


def test_verify_rejects_non_canonical_order():
    g = Graph.from_edges(3, [(0, 1), (1, 2)])
    ws = WedgeSet(g, [2, 0, 1],
                  edge_mask(g, {pack_edge(0, 1), pack_edge(1, 2)}))
    with pytest.raises(ValueError):
        verify_wedge_set(g, ws)


def test_wedges_are_built_anew_on_each_read():
    g = disjoint_paths(3)
    ws = maximal_wedge_set_fast(g)
    wedges = ws.wedges
    assert ws.wedge_count == len(wedges) == 3
    wedges.clear()
    assert ws.wedges == [(0, 2, 1), (3, 5, 4), (6, 8, 7)]
    assert ws.wedges is not ws.wedges


def test_wedge_set_lines():
    g = Graph.from_edges(3, [(0, 1), (1, 2)])
    ws = maximal_wedge_set_fast(g)
    assert wedge_set_lines(ws) == ["0 2 1"]


def matcher_peak_bytes(g: Graph, block: int) -> int:
    with mock.patch.object(wedges, "_ROW_BLOCK", block):
        tracemalloc.start()
        try:
            maximal_wedge_set_fast(g)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()


def test_matcher_converts_rows_a_block_at_a_time():
    # about 2.3 MB at the shipped block; converting _nbrs and _slot_eid to
    # lists whole (a block of 2m slots) adds about 5.6 MB more
    g = planted_clusters([10] * 900, 0.1, 2000, 5)
    assert 35_000 < g.m < 45_000
    bound = 4 * 2**20
    assert matcher_peak_bytes(g, wedges._ROW_BLOCK) < bound
    assert matcher_peak_bytes(g, 2 * g.m) > bound
