"""Pivot-based clustering with an audit of its charging argument.

Each round picks a pivot k among the live nodes, turns {k} plus its live
neighborhood into a cluster, and removes it.  The audit records, per
round, the boundary edges B_k (live edges leaving the new cluster) and
the internal non-adjacent pairs N_k (pairs inside the cluster with no
edge); deleting at most |B| + |N| extra pairs relative to the matched
lower bound is what the approximation proofs charge against.

Strategies:
  degree  pick a live node of maximum live degree (lowest id on ties)
  ratio   pick a live node minimizing |B_k| / |N_k|, with the ratio taken
          as 0 when both counts are 0 and +inf when only N_k is 0
          (lowest id on ties)
  random  pick uniformly among live nodes, seeded

The ratio selector keeps every live node's exact key in a lazy min-heap.
Removing a cluster changes (|B_k|, |N_k|) only for nodes within distance
2 of it, so a round re-scores just those nodes: the live neighbours of
the cluster and their live neighbours.  A node's score costs the sum of
its live neighbours' degrees, so a round costs that sum over the dirty
set instead of over every live node.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass

from .graph import Graph


@dataclass(frozen=True)
class PivotStrategy:
    kind: str
    seed: int | None = None

    @staticmethod
    def degree() -> "PivotStrategy":
        return PivotStrategy("degree")

    @staticmethod
    def ratio() -> "PivotStrategy":
        return PivotStrategy("ratio")

    @staticmethod
    def random(seed: int) -> "PivotStrategy":
        return PivotStrategy("random", seed)

    def __post_init__(self):
        if self.kind not in ("degree", "ratio", "random"):
            raise ValueError(f"unknown strategy {self.kind!r}")
        if self.kind == "random" and self.seed is None:
            raise ValueError("random strategy needs a seed")
        if self.kind != "random" and self.seed is not None:
            raise ValueError(f"{self.kind} strategy takes no seed")


@dataclass
class Clustering:
    """assignment[v] = cluster id in creation order; clusters[c] sorted."""

    assignment: list[int]
    clusters: list[list[int]]

    @property
    def num_clusters(self) -> int:
        return len(self.clusters)


@dataclass
class PivotAudit:
    boundary_edges: int
    internal_nonedges: int
    per_iteration: list[tuple[int, int, int]]  # (pivot, |B_k|, |N_k|)


class ResidualGraph:
    """Live-node view of a graph as clusters get carved away."""

    def __init__(self, g: Graph):
        self.g = g
        self.alive = bytearray(b"\x01") * g.n
        self.live_deg = [g.degree(v) for v in range(g.n)]
        self.live_count = g.n

    def live_neighbors(self, v: int) -> list[int]:
        alive = self.alive
        return [u for u in self.g.neighbors(v).tolist() if alive[u]]

    def remove_cluster(self, members: list[int]) -> list[int]:
        """Remove the members; returns outside nodes whose degree dropped."""
        alive = self.alive
        deg = self.live_deg
        for u in members:
            alive[u] = 0
        self.live_count -= len(members)
        touched = []
        for u in members:
            for w in self.g.neighbors(u).tolist():
                if alive[w]:
                    deg[w] -= 1
                    touched.append(w)
        return touched


def boundary_and_nonedge_counts(state: ResidualGraph, k: int) -> tuple[int, int]:
    """(|B_k|, |N_k|) for pivoting at k in the current residual graph."""
    g = state.g
    alive = state.alive
    members = state.live_neighbors(k)
    inside = set(members)
    boundary = 0
    adjacent_inside_twice = 0
    for u in members:
        for w in g.neighbors(u).tolist():
            if not alive[w] or w == k:
                continue
            if w in inside:
                adjacent_inside_twice += 1
            else:
                boundary += 1
    d = len(members)
    nonedges = d * (d - 1) // 2 - adjacent_inside_twice // 2
    return boundary, nonedges


class _DegreeSelector:
    """Lazy max-heap keyed (live degree, id); entries go stale as degrees
    drop and are discarded at pop time."""

    def __init__(self, state: ResidualGraph):
        self.state = state
        self.heap = [(-state.live_deg[v], v) for v in range(state.g.n)]
        heapq.heapify(self.heap)

    def pop(self) -> int:
        state = self.state
        while True:
            d, v = self.heap[0]
            if state.alive[v] and state.live_deg[v] == -d:
                return v
            heapq.heappop(self.heap)

    def degrees_changed(self, touched: list[int]) -> None:
        state = self.state
        for w in touched:
            heapq.heappush(self.heap, (-state.live_deg[w], w))


class _RatioKey:
    """Exact ratio-strategy key (class, |B|/|N|, id) for heap ordering.

    Class 1 holds the nodes whose ratio is +inf (|N| = 0 < |B|); a node
    with |B| = |N| = 0 has ratio 0.  Ratios compare by cross-multiplying
    integers, never as floats.
    """

    __slots__ = ("inf", "b", "nn", "v")

    def __init__(self, b: int, nn: int, v: int):
        self.inf = nn == 0 and b > 0
        if nn == 0:
            b, nn = 0, 1
        self.b = b
        self.nn = nn
        self.v = v

    def __lt__(self, other: "_RatioKey") -> bool:
        if self.inf != other.inf:
            return other.inf
        lhs = self.b * other.nn
        rhs = other.b * self.nn
        if lhs != rhs:
            return lhs < rhs
        return self.v < other.v


class _RatioSelector:
    """Lazy min-heap of ratio keys; a re-scored or removed node's older
    entries go stale and are discarded at pop time."""

    def __init__(self, state: ResidualGraph):
        self.state = state
        self.key = [self._score(v) for v in range(state.g.n)]
        self.heap = list(self.key)
        heapq.heapify(self.heap)

    def _score(self, v: int) -> _RatioKey:
        b, nn = boundary_and_nonedge_counts(self.state, v)
        return _RatioKey(b, nn, v)

    def pop(self) -> int:
        alive = self.state.alive
        key = self.key
        heap = self.heap
        while True:
            top = heap[0]
            if alive[top.v] and key[top.v] is top:
                return top.v
            heapq.heappop(heap)

    def degrees_changed(self, touched: list[int]) -> None:
        state = self.state
        near = set(touched)
        dirty = set(near)
        for w in near:
            dirty.update(state.live_neighbors(w))
        for v in dirty:
            k = self._score(v)
            self.key[v] = k
            heapq.heappush(self.heap, k)


class _RandomSelector:
    def __init__(self, state: ResidualGraph, seed: int):
        self.state = state
        self.rng = random.Random(seed)
        self.live = list(range(state.g.n))

    def pop(self) -> int:
        live = self.live
        while True:
            idx = self.rng.randrange(len(live))
            v = live[idx]
            if self.state.alive[v]:
                return v
            # compact: drop dead nodes as we stumble on them
            last = live.pop()
            if idx < len(live):
                live[idx] = last

    def degrees_changed(self, touched: list[int]) -> None:
        pass


def pivot(g: Graph, strategy: PivotStrategy) -> tuple[Clustering, PivotAudit]:
    """Cluster g by repeated pivoting; returns the clustering and audit."""
    state = ResidualGraph(g)
    if strategy.kind == "degree":
        selector = _DegreeSelector(state)
    elif strategy.kind == "ratio":
        selector = _RatioSelector(state)
    else:
        selector = _RandomSelector(state, strategy.seed)
    assignment = [-1] * g.n
    clusters: list[list[int]] = []
    per_iteration: list[tuple[int, int, int]] = []
    total_b = 0
    total_n = 0
    while state.live_count:
        k = selector.pop()
        members = state.live_neighbors(k)
        b, nn = boundary_and_nonedge_counts(state, k)
        cluster = sorted(members + [k])
        cid = len(clusters)
        for v in cluster:
            assignment[v] = cid
        clusters.append(cluster)
        per_iteration.append((k, b, nn))
        total_b += b
        total_n += nn
        touched = state.remove_cluster(cluster)
        selector.degrees_changed(touched)
    return Clustering(assignment, clusters), PivotAudit(total_b, total_n,
                                                        per_iteration)


def clustering_lines(clustering: Clustering, g: Graph) -> list[str]:
    """One 'original_node_label cluster_id' line per node."""
    return [f"{g.label_of(v)} {clustering.assignment[v]}"
            for v in range(g.n)]
