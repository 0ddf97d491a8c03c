from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clusterdel import Graph, er_graph, tight_instance
from oracles import tight_wedge_set, verify_wedge_set


@pytest.mark.parametrize("n", [8, 12, 20, 40])
def test_tight_instance_shape(n):
    g = tight_instance(n)
    ws, q = tight_wedge_set(g), n // 2
    assert isinstance(g, Graph)
    assert g.n == n
    assert g.m == q * (q - 1) // 2 + q
    # clique core plus one pendant per core node
    for i in range(q):
        for j in range(i + 1, q):
            assert g.has_edge(i, j)
        assert g.has_edge(i, q + i)
        assert g.degree(q + i) == 1
    assert len(ws.wedges) == q
    assert np.count_nonzero(ws.weak_mask) == 2 * q
    verify_wedge_set(g, ws)


def test_tight_instance_wedges_are_canonical():
    g = tight_instance(8)
    for i, j, k in tight_wedge_set(g).wedges:
        assert i < j
        assert g.has_edge(i, k) and g.has_edge(j, k)
        assert not g.has_edge(i, j)


@pytest.mark.parametrize("n", [7, 9, 6, 0, -2])
def test_tight_instance_rejects_bad_sizes(n):
    with pytest.raises(ValueError):
        tight_instance(n)


def test_er_extremes():
    g0 = er_graph(6, 0.0, seed=1)
    assert g0.m == 0 and g0.n == 6
    g1 = er_graph(6, 1.0, seed=1)
    assert g1.m == 15
    assert er_graph(0, 0.5, seed=1).n == 0
    assert er_graph(1, 0.5, seed=1).m == 0


def test_er_rejects_bad_parameters():
    with pytest.raises(ValueError):
        er_graph(-1, 0.5, seed=0)
    with pytest.raises(ValueError):
        er_graph(5, 1.5, seed=0)
    with pytest.raises(ValueError):
        er_graph(5, -0.1, seed=0)


@pytest.mark.parametrize("n, p", [(60, 0.1), (5, 0.0), (5, 1.0), (0, 0.5)])
def test_er_rejects_negative_seed(n, p):
    # random.Random(-1) is seeded as Random(1), so seed -1 would give the
    # seed-1 graph; rejected also where the graph draws nothing
    with pytest.raises(ValueError, match="seed"):
        er_graph(n, p, seed=-1)
    assert er_graph(n, p, seed=0).n == n


def test_er_deterministic_per_seed():
    a = er_graph(40, 0.2, seed=9)
    b = er_graph(40, 0.2, seed=9)
    assert a.packed_edges() == b.packed_edges()
    c = er_graph(40, 0.2, seed=10)
    assert a.packed_edges() != c.packed_edges()


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 80), st.floats(0.0, 1.0), st.integers(0, 10**6))
def test_er_is_simple_and_in_range(n, p, seed):
    g = er_graph(n, p, seed=seed)
    assert g.n == n
    keys = g.packed_edges()
    assert len(keys) == len(set(keys)) == g.m
    for u, v in g.edges():
        assert 0 <= u < v < n


def test_er_edge_count_tracks_expectation():
    n, p = 200, 0.15
    total = n * (n - 1) // 2
    mean = total * p
    sigma = math.sqrt(total * p * (1 - p))
    counts = [er_graph(n, p, seed=s).m for s in range(20)]
    avg = sum(counts) / len(counts)
    assert abs(avg - mean) < 5 * sigma / math.sqrt(len(counts))
