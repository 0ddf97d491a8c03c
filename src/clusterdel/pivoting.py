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
degree 0 becomes a singleton without that pass.  A pivot whose live degree
is still the length of its row has lost no neighbour, so its row itself is
the member list, read and never changed; only a pivot with a dead
neighbour filters its row.  The audit keeps its rounds as flat integer
records, three per round, and builds no tuple per round: the pipelines
read only its totals, and ``PivotAudit.per_iteration`` builds the tuples
on each read.  The clustering, likewise, is recorded as its assignment and
its number of clusters; no round builds a member list, and
``Clustering.clusters`` builds all of them with one stable argsort when it
is first read (the pipelines never read it; scoring, merging and the CLI
read the assignment).  All three strategies share the one loop and differ
only in how it picks the pivot.  The loop ends once its count of nodes
left to assign reaches 0 or goes below, and raises ``InvariantError``
unless that count is exactly 0 and no node is live: a pick of a node
already clustered would otherwise loop for ever.

The degree and ratio selectors share one lazy min-heap of int keys
(``_HeapSelector``), a node's rank times n plus its id, so heapq compares
ints in C.  The degree rank is top - live degree, for the top initial
degree; only nodes of positive live degree enter that heap, and the rest
come last, in id order.  The ratio rank is the node's ratio |B_k| / |N_k|
floored at a scale fine enough that distinct ratios keep their order (see
``_RatioSelector``), so no float or Fraction is needed.  A node with no
neighbours starts at ratio 0 without being scored.  Removing a cluster
changes (|B_k|, |N_k|) only for nodes within distance 2 of it, so a round
re-scores just those nodes: the live neighbours of the cluster and their
live neighbours.  A node's score costs the sum of its live neighbours'
degrees, so a round costs that sum over the dirty set instead of over
every live node; like the pivot loop, it reads the node's row unfiltered
while the node's live degree says no neighbour has died.

Random pivots have no selector object: the loop draws them itself, with
its candidate list, the list's length and that length's bit length as
locals, so a draw costs no method call, and no round makes a call to
update a selector.  Each draw is ``randrange``'s own steps (getrandbits of
the length's bit length, redrawn while out of range), so a seed picks the
same nodes as it always has.  A dead candidate stays in the list until a
draw lands on it, which costs one more draw, and is then swapped out with
the last candidate; removing candidates as they die would change which
node a seed picks.  The length and bit length change only then.
"""

from __future__ import annotations

import heapq
import itertools
import random
from dataclasses import dataclass

import numpy as np

from .graph import Graph, InvariantError


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
        # random.Random(-s) is seeded as Random(s)
        if self.kind == "random" and self.seed < 0:
            raise ValueError(f"random seed must not be negative, "
                             f"not {self.seed}")


class _Clusters:
    """``Clustering.clusters``, a data descriptor and the field's default.

    Lists set on an instance are what it returns.  None, the default,
    leaves them to be built from the assignment on the first read, with
    one stable argsort, and kept: each cluster's members come out in id
    order, and an id that no node has gives an empty list."""

    def __get__(self, obj, objtype=None):
        if obj is None:
            return None  # the field's default
        lists = obj._lists
        if lists is None:
            owner = np.array(obj.assignment, dtype=np.int64)
            members = np.argsort(owner, kind="stable").tolist()
            bounds = [0] + np.cumsum(
                np.bincount(owner, minlength=obj.num_clusters)).tolist()
            lists = obj._lists = [members[i:j]
                                  for i, j in zip(bounds, bounds[1:])]
        return lists

    def __set__(self, obj, value) -> None:
        obj._lists = value


@dataclass
class Clustering:
    """A partition of the graph's nodes into non-empty clusters:
    assignment[v] = cluster id in creation order; clusters[c] sorted.

    Pivoting and merging record only the assignment and the number of
    clusters; ``clusters`` builds the member lists on its first read and
    keeps them.  Lists passed in are kept as given, and ``num_clusters``
    is their length.  Without them, it is the count the clustering was
    made with, or one more than the largest id."""

    assignment: list[int]
    clusters: list[list[int]] = _Clusters()

    # not fields: the member lists once set or built, and the count
    _lists = None
    _count = None

    @classmethod
    def _of_assignment(cls, assignment: list[int], count: int
                       ) -> "Clustering":
        """A clustering of ids 0..count-1, its lists built when read."""
        clustering = cls(assignment)
        clustering._count = count
        return clustering

    @property
    def num_clusters(self) -> int:
        if self._lists is not None:
            return len(self._lists)
        if self._count is None:
            self._count = max(self.assignment, default=-1) + 1
        return self._count


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


class _HeapSelector:
    """Lazy min-heap of int keys that end in the node id (key % n == id);
    key[v] is node v's current key.  An entry is live while its node is
    and it equals that key; re-keyed or removed nodes leave stale entries,
    which are discarded at pop time.  Once the heap holds no live entry,
    the live nodes it does not hold are handed out in id order."""

    def __init__(self, alive: bytearray, key: list[int], heap: list[int]):
        self.alive = alive
        self.key = key
        self.n = len(key)
        heapq.heapify(heap)
        self.heap = heap
        self.cursor = 0

    def pop(self) -> int:
        alive = self.alive
        key = self.key
        heap = self.heap
        n = self.n
        while heap:
            top = heap[0]
            v = top % n
            if alive[v] and key[v] == top:
                return v
            heapq.heappop(heap)
        v = self.cursor
        while not alive[v]:
            v += 1
        self.cursor = v
        return v


class _DegreeSelector(_HeapSelector):
    """Keys (top - live degree) * n + id, for the top initial degree, which
    order as (live degree descending, id ascending).  The heap holds only
    nodes of positive live degree, so the nodes of live degree 0 come last,
    in id order."""

    def __init__(self, alive: bytearray, live_deg: list[int]):
        self.live_deg = live_deg
        n = len(live_deg)
        self.top = top = max(live_deg, default=0)
        deg = np.array(live_deg, dtype=np.int64)
        key = (top - deg) * n + np.arange(n)
        super().__init__(alive, key.tolist(), key[deg > 0].tolist())

    def degrees_changed(self, touched: list[int]) -> None:
        live_deg = self.live_deg
        key = self.key
        heap = self.heap
        n = self.n
        top = self.top
        for w in touched:
            d = live_deg[w]
            key[w] = k = (top - d) * n + w
            if d:
                heapq.heappush(heap, k)


class _RatioSelector(_HeapSelector):
    """Keys r * n + id, which order as (ratio, id).  Every node stays in
    the heap: the nodes of ratio 0 tie by id whether isolated or not.

    At start-up every node is live, so a node k's counts follow from its
    d neighbours' degrees and the number t of edges among them, with no
    test of ``alive``: |B_k| = sum(deg u - 1) - 2t, since each such edge
    leaves two neighbours inside the cluster, and |N_k| = C(d, 2) - t.
    """

    def __init__(self, adj: list[list[int]], alive: bytearray,
                 live_deg: list[int]):
        # key_of reads n before the heap is built
        self.adj = adj
        self.alive = alive
        # the pivot loop's live degrees, current whenever it calls in
        self.live_deg = live_deg
        self.n = n = len(adj)
        deg = list(map(len, adj))
        top = max(deg, default=0)
        # r = |B| * S // |N|, 0 for |B| = |N| = 0, and m * S + 1 for
        # +inf (|N| = 0 < |B|), above every finite r since |B| <= m.
        # |N| <= C(top, 2), so distinct ratios differ by at least
        # 1 / (|N| * |N'|) >= 1 / S, their values at scale S by at least
        # 1, and flooring keeps their order; equal ratios tie by id.
        self.scale = scale = max(1, top * (top - 1) // 2) ** 2
        self.inf = sum(deg) // 2 * scale + 1
        key_of = self.key_of
        key = []
        for v, nbrs in enumerate(adj):
            d = len(nbrs)
            if d > 1:
                inside = set(nbrs)
                # twice: 2t, as each edge among the neighbours is seen
                # from both its ends
                twice = neighbour_degrees = 0
                for u in nbrs:
                    row = adj[u]
                    neighbour_degrees += len(row)
                    twice += len(inside.intersection(row))
                key.append(key_of(neighbour_degrees - d - twice,
                                  d * (d - 1) // 2 - twice // 2, v))
            elif d:
                # |N| = 0: ratio +inf, or 0 when the neighbour has no
                # other edge
                key.append(key_of(deg[nbrs[0]] - 1, 0, v))
            else:
                # no neighbours: ratio 0
                key.append(v)
        super().__init__(alive, key, key.copy())

    def key_of(self, b: int, nn: int, v: int) -> int:
        """Heap key of node v with (|B|, |N|) = (b, nn)."""
        if nn:
            r = b * self.scale // nn
        else:
            r = self.inf if b else 0
        return r * self.n + v

    def _score(self, k: int) -> int:
        """Key of pivoting at k: from (|B_k|, |N_k|) in the live graph."""
        adj = self.adj
        alive = self.alive
        members = adj[k]
        if self.live_deg[k] != len(members):
            members = [u for u in members if alive[u]]
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
        return self.key_of(boundary,
                           d * (d - 1) // 2 - adjacent_inside_twice // 2, k)

    def degrees_changed(self, touched: list[int]) -> None:
        adj = self.adj
        alive = self.alive
        key = self.key
        heap = self.heap
        near = set(touched)
        dirty = set(near)
        for w in near:
            dirty.update(u for u in adj[w] if alive[u])
        for v in dirty:
            key[v] = k = self._score(v)
            heapq.heappush(heap, k)


def adjacency_lists(g: Graph, keep: np.ndarray) -> list[list[int]]:
    """Sorted neighbour lists as Python lists, indexed by node id, of g
    with only the edges marked in keep, a boolean array over edge ids."""
    kept = keep[g._slot_eid]
    # kept_before[s]: the number of kept slots before slot s, for s <= 2m
    kept_before = np.concatenate(([0], np.cumsum(kept)))
    indptr = kept_before[g._indptr].tolist()
    flat = g._nbrs[kept].tolist()
    # islice: the row ends, without a copy of indptr
    return list(map(flat.__getitem__,
                    map(slice, indptr, itertools.islice(indptr, 1, None))))


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
    draw = strategy.kind == "random"
    if draw:
        # the draw's state: the candidate list, its length and that
        # length's bit length
        candidates = list(range(n))
        count = n
        bits = n.bit_length()
        getrandbits = random.Random(strategy.seed).getrandbits
    elif strategy.kind == "degree":
        selector = _DegreeSelector(alive, live_deg)
    else:
        selector = _RatioSelector(adj, alive, live_deg)
    assignment = [-1] * n
    # a list: array("q").append parses each int, at 2-3 times the cost
    rounds: list[int] = []
    record = rounds.append
    total_b = 0
    total_n = 0
    cid = 0
    left = n
    # left > 0, not left: a pick of a dead node would drive left below
    # 0, and the check after the loop reports it
    while left > 0:
        if draw:
            while True:
                # randrange(count) as CPython draws it
                # (_randbelow_with_getrandbits)
                idx = getrandbits(bits)
                while idx >= count:
                    idx = getrandbits(bits)
                k = candidates[idx]
                if alive[k]:
                    break
                # popped, not left past count, so the list's memory
                # shrinks too
                count -= 1
                last = candidates.pop()
                if idx < count:
                    candidates[idx] = last
                bits = count.bit_length()
        else:
            k = selector.pop()
        alive[k] = 0
        assignment[k] = cid
        if not live_deg[k]:
            # a singleton: no members, no audit counts, no degree changes
            record(k)
            record(0)
            record(0)
            cid += 1
            left -= 1
            continue
        members = adj[k]
        if live_deg[k] != len(members):
            # some neighbour has died; else the row is the member list
            members = [u for u in members if alive[u]]
        for v in members:
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
        record(k)
        record(b)
        record(nn)
        total_b += b
        total_n += nn
        cid += 1
        left -= d + 1
        if not draw:
            selector.degrees_changed(touched)
    if left or 1 in alive:
        raise InvariantError("pivoting took a node already clustered")
    return (Clustering._of_assignment(assignment, cid),
            PivotAudit(total_b, total_n, rounds))


def clustering_lines(clustering: Clustering, g: Graph) -> list[str]:
    """One 'original_node_label cluster_id' line per node."""
    return [f"{g.label_of(v)} {clustering.assignment[v]}"
            for v in range(g.n)]
