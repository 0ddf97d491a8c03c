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

``pivot_lists`` pivots a graph given as Python adjacency lists, which it
only reads.  The pipelines take the stripped graph's lists from the input
graph's CSR rows through its weak mask (``adjacency_lists``), once per
preparation, and every pivot of that preparation reads them: one per
strategy, and every trial of best-of-T.  ``pivot`` builds them for a
single call.  The audit is counted while a cluster is removed: every live
neighbour a member still has is a boundary edge, and every neighbour
already assigned to the new cluster is an internal edge.  A pivot of live
degree 0 becomes a singleton without that pass.  The audit keeps its
rounds as flat integer records, three per round, and builds no tuple per
round: the pipelines read only its totals, and
``PivotAudit.per_iteration`` builds the tuples on each read.  All three
strategies share the loop and differ only in their selector.

The degree selector keeps one int key per heap entry, (top - live
degree) * n + id, for the top initial degree.  Once the top live degree
is 0, it hands out the remaining live nodes in id order in one scan,
which is the order its heap would pop them in.

The ratio selector keeps every live node's exact key in a lazy min-heap.
Removing a cluster changes (|B_k|, |N_k|) only for nodes within distance
2 of it, so a round re-scores just those nodes: the live neighbours of
the cluster and their live neighbours.  A node's score costs the sum of
its live neighbours' degrees, so a round costs that sum over the dirty
set instead of over every live node.

The random selector draws an index into a list of candidates with
``randrange``'s own steps inlined (getrandbits of n.bit_length() bits,
redrawn while out of range), so a seed picks the same nodes as it always
has.  A dead candidate stays in the list until a draw lands on it, which
costs one more draw; removing candidates as they die would change which
node a seed picks.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass

import numpy as np

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
    # rounds[3t:3t + 3]: round t's (pivot, |B_k|, |N_k|)
    rounds: list[int]

    @property
    def per_iteration(self) -> list[tuple[int, int, int]]:
        """(pivot, |B_k|, |N_k|) per round, in a new list on each read."""
        r = self.rounds
        return list(zip(r[0::3], r[1::3], r[2::3]))


class _DegreeSelector:
    """Lazy min-heap of int keys (top - live degree) * n + id, which order
    as (live degree descending, id ascending); entries go stale as degrees
    drop and are discarded at pop time.

    Once the top live degree is 0, no degree changes again and the heap
    would pop the live nodes in id order, so the selector drops it and
    scans them in one pass."""

    def __init__(self, alive: bytearray, live_deg: list[int]):
        self.alive = alive
        self.live_deg = live_deg
        self.n = n = len(live_deg)
        self.top = top = max(live_deg, default=0)
        self.heap: list[int] | None = [(top - d) * n + v
                                       for v, d in enumerate(live_deg)]
        heapq.heapify(self.heap)
        self.cursor = 0

    def pop(self) -> int:
        alive = self.alive
        heap = self.heap
        if heap is not None:
            live_deg = self.live_deg
            n = self.n
            top = self.top
            while True:
                key = heap[0]
                v = key % n
                if alive[v] and key == (top - live_deg[v]) * n + v:
                    if live_deg[v]:
                        return v
                    # v has the lowest id among the live nodes, all of
                    # live degree 0
                    self.heap = None
                    self.cursor = v
                    return v
                heapq.heappop(heap)
        v = self.cursor
        while not alive[v]:
            v += 1
        self.cursor = v
        return v

    def degrees_changed(self, touched: list[int]) -> None:
        live_deg = self.live_deg
        heap = self.heap
        n = self.n
        top = self.top
        for w in touched:
            heapq.heappush(heap, (top - live_deg[w]) * n + w)


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

    def __init__(self, adj: list[list[int]], alive: bytearray):
        self.adj = adj
        self.alive = alive
        self.key = [self._score(v) for v in range(len(adj))]
        self.heap = list(self.key)
        heapq.heapify(self.heap)

    def _score(self, k: int) -> _RatioKey:
        """Key of pivoting at k: (|B_k|, |N_k|) in the live graph."""
        adj = self.adj
        alive = self.alive
        members = [u for u in adj[k] if alive[u]]
        inside = set(members)
        boundary = adjacent_inside_twice = 0
        for u in members:
            for w in adj[u]:
                if not alive[w] or w == k:
                    continue
                if w in inside:
                    adjacent_inside_twice += 1
                else:
                    boundary += 1
        d = len(members)
        return _RatioKey(boundary,
                         d * (d - 1) // 2 - adjacent_inside_twice // 2, k)

    def pop(self) -> int:
        alive = self.alive
        key = self.key
        heap = self.heap
        while True:
            top = heap[0]
            if alive[top.v] and key[top.v] is top:
                return top.v
            heapq.heappop(heap)

    def degrees_changed(self, touched: list[int]) -> None:
        adj = self.adj
        alive = self.alive
        near = set(touched)
        dirty = set(near)
        for w in near:
            dirty.update(u for u in adj[w] if alive[u])
        for v in dirty:
            k = self._score(v)
            self.key[v] = k
            heapq.heappush(self.heap, k)


class _RandomSelector:
    """Uniform draws from a list of candidates; a dead candidate stays in
    the list until a draw lands on it, and is then swapped out."""

    def __init__(self, alive: bytearray, seed: int):
        self.alive = alive
        self.getrandbits = random.Random(seed).getrandbits
        self.live = list(range(len(alive)))

    def pop(self) -> int:
        live = self.live
        alive = self.alive
        getrandbits = self.getrandbits
        while True:
            # randrange(n) as CPython draws it (_randbelow_with_getrandbits)
            n = len(live)
            k = n.bit_length()
            idx = getrandbits(k)
            while idx >= n:
                idx = getrandbits(k)
            v = live[idx]
            if alive[v]:
                return v
            last = live.pop()
            if idx < n - 1:
                live[idx] = last

    def degrees_changed(self, touched: list[int]) -> None:
        pass


def adjacency_lists(g: Graph, keep: np.ndarray) -> list[list[int]]:
    """Sorted neighbour lists as Python lists, indexed by node id, of g
    with only the edges marked in keep, a boolean array over edge ids."""
    kept = keep[g._slot_eid]
    # kept_before[s]: the number of kept slots before slot s, for s <= 2m
    kept_before = np.concatenate(([0], np.cumsum(kept)))
    indptr = kept_before[g._indptr].tolist()
    flat = g._nbrs[kept].tolist()
    return [flat[indptr[v]:indptr[v + 1]] for v in range(g.n)]


def pivot(g: Graph, strategy: PivotStrategy) -> tuple[Clustering, PivotAudit]:
    """Cluster g by repeated pivoting; returns the clustering and audit."""
    return pivot_lists(adjacency_lists(g, np.ones(g.m, dtype=bool)),
                       strategy)


def pivot_lists(adj: list[list[int]], strategy: PivotStrategy
                ) -> tuple[Clustering, PivotAudit]:
    """``pivot`` on a graph given by its adjacency lists.  The lists are
    only read, so one set of them serves any number of calls."""
    n = len(adj)
    alive = bytearray(b"\x01") * n
    live_deg = [len(a) for a in adj]
    if strategy.kind == "degree":
        selector = _DegreeSelector(alive, live_deg)
    elif strategy.kind == "ratio":
        selector = _RatioSelector(adj, alive)
    else:
        selector = _RandomSelector(alive, strategy.seed)
    assignment = [-1] * n
    clusters: list[list[int]] = []
    # a list: array("q").append parses each int, at 2-3 times the cost
    rounds: list[int] = []
    record = rounds.append
    total_b = 0
    total_n = 0
    left = n
    while left:
        k = selector.pop()
        cid = len(clusters)
        if not live_deg[k]:
            # a singleton: no members, no audit counts, no degree changes
            alive[k] = 0
            assignment[k] = cid
            clusters.append([k])
            record(k)
            record(0)
            record(0)
            left -= 1
            continue
        members = [u for u in adj[k] if alive[u]]
        cluster = sorted(members + [k])
        for v in cluster:
            alive[v] = 0
            assignment[v] = cid
        # k's neighbours are all in the cluster, so only the members can
        # have live neighbours.  inside counts each edge between members
        # twice and each member's edge to k once.
        touched = []
        inside = 0
        for u in members:
            for w in adj[u]:
                if alive[w]:
                    live_deg[w] -= 1
                    touched.append(w)
                elif assignment[w] == cid:
                    inside += 1
        d = len(members)
        b = len(touched)
        nn = d * (d - 1) // 2 - (inside - d) // 2
        clusters.append(cluster)
        record(k)
        record(b)
        record(nn)
        total_b += b
        total_n += nn
        left -= len(cluster)
        selector.degrees_changed(touched)
    return Clustering(assignment, clusters), PivotAudit(total_b, total_n,
                                                        rounds)


def clustering_lines(clustering: Clustering, g: Graph) -> list[str]:
    """One 'original_node_label cluster_id' line per node."""
    return [f"{g.label_of(v)} {clustering.assignment[v]}"
            for v in range(g.n)]
