"""Independent reference implementations used to cross-check the package.

Everything here is written for clarity, not speed: dense-matrix
Edmonds-Karp, cubic wedge enumeration, Bell-number partition search, the
relaxation's cut network as an explicit arc list, the wedge matcher driven
by a skip-list cursor object, pivoting on a residual-graph object with
the audit counted apart from the removal, the ratio pivot as a full scan
per round, cluster merging over all pairs, scoring by an edge loop, and
stripping by a weak key set that is searched back into a mask.  None of it
shares code with src/.
"""
from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

import numpy as np

from clusterdel import (Graph, HalfIntegralSolution, WedgeSet, er_graph,
                        pack_edge)


def edmonds_karp(num_nodes: int, source: int, sink: int,
                 arcs: list[tuple[int, int, int]]) -> tuple[int, set[int]]:
    """Max flow plus the residual-reachable source side, BFS augmenting."""
    cap = [[0] * num_nodes for _ in range(num_nodes)]
    for u, v, c in arcs:
        cap[u][v] += c
    flow = 0
    while True:
        parent = [-1] * num_nodes
        parent[source] = source
        queue = deque([source])
        while queue:
            u = queue.popleft()
            for v in range(num_nodes):
                if parent[v] < 0 and cap[u][v] > 0:
                    parent[v] = u
                    queue.append(v)
        if parent[sink] < 0:
            break
        path = []
        v = sink
        while v != source:
            path.append((parent[v], v))
            v = parent[v]
        push = min(cap[u][v] for u, v in path)
        for u, v in path:
            cap[u][v] -= push
            cap[v][u] += push
        flow += push
    side = {source}
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for v in range(num_nodes):
            if v not in side and cap[u][v] > 0:
                side.add(v)
                queue.append(v)
    return flow, side


def unpack_edge(key: int) -> tuple[int, int]:
    """The pair (u, v), u < v, that pack_edge(u, v) packed into key."""
    return key >> 32, key & 0xFFFFFFFF


def edge_ids(g: Graph) -> dict[int, int]:
    """Packed key -> edge id, which is the edge's position in g.edges()."""
    return {key: e for e, key in enumerate(g.packed_edges())}


def edge_mask(g: Graph, packed_keys: set[int]) -> np.ndarray:
    """Boolean array over edge ids, True where the edge's key is in
    packed_keys."""
    return np.array([key in packed_keys for key in g.packed_edges()], bool)


def brute_force_wedges(g: Graph) -> list[tuple[int, int, int]]:
    """All open wedges (i, j, k), i < j, center k, by cubic scan."""
    out = []
    for k in range(g.n):
        nbrs = sorted(g.neighbors(k).tolist())
        for a in range(len(nbrs)):
            for b in range(a + 1, len(nbrs)):
                if not g.has_edge(nbrs[a], nbrs[b]):
                    out.append((nbrs[a], nbrs[b], k))
    return out


def triangle_count(g: Graph) -> int:
    total = 0
    for u, v in g.edges():
        nu = set(g.neighbors(u).tolist())
        for w in g.neighbors(v).tolist():
            if w in nu:
                total += 1
    return total // 3


def brute_force_cluster_deletion(g: Graph) -> int:
    """Minimum deletions over every partition of V into cliques.

    Enumerates set partitions recursively, so keep n <= 8 or so.
    """
    best = [g.m]

    def recurse(v: int, blocks: list[list[int]], kept: int) -> None:
        if v == g.n:
            best[0] = min(best[0], g.m - kept)
            return
        for block in blocks:
            if all(g.has_edge(v, u) for u in block):
                block.append(v)
                recurse(v + 1, blocks, kept + len(block) - 1)
                block.pop()
        blocks.append([v])
        recurse(v + 1, blocks, kept)
        blocks.pop()

    recurse(0, [], 0)
    return best[0]


def clusters_are_cliques(g: Graph, clusters: list[list[int]]) -> bool:
    for members in clusters:
        for a in range(len(members)):
            for b in range(a + 1, len(members)):
                if not g.has_edge(members[a], members[b]):
                    return False
    return True


def cut_deletions(g: Graph, assignment: list[int]) -> int:
    return sum(1 for u, v in g.edges() if assignment[u] != assignment[v])


def small_graph(trial: int, n_lo: int = 3, n_hi: int = 10,
                ps: tuple[float, ...] = (0.2, 0.4, 0.6, 0.8)) -> Graph:
    """Deterministic small test graph number ``trial``."""
    rng = random.Random(trial)
    n = rng.randrange(n_lo, n_hi + 1)
    return er_graph(n, rng.choice(ps), seed=trial)


def disjoint_paths(k: int) -> Graph:
    """k disjoint copies of P3: the canonical unique-wedge-set family."""
    edges = []
    for i in range(k):
        base = 3 * i
        edges.append((base, base + 1))
        edges.append((base + 1, base + 2))
    return Graph.from_edges(3 * k, edges)


def stc_cut_network(g: Graph) -> tuple[int, int, int,
                                       list[tuple[int, int, int]]]:
    """The relaxation's doubled-weight cut network as (nodes, source,
    sink, arcs).  Edge e owns intake 2e, fed by a unit arc from the
    source, and outlet 2e + 1, draining by a unit arc into the sink; each
    open wedge adds intake -> outlet arcs between its legs, both ways,
    with capacity m + 1, which no minimum cut pays."""
    m = g.m
    s, t = 2 * m, 2 * m + 1
    arcs = []
    for e in range(m):
        arcs.append((s, 2 * e, 1))
        arcs.append((2 * e + 1, t, 1))
    ids = edge_ids(g)
    for i, j, k in brute_force_wedges(g):
        a, b = ids[pack_edge(i, k)], ids[pack_edge(j, k)]
        arcs.append((2 * a, 2 * b + 1, m + 1))
        arcs.append((2 * b, 2 * a + 1, m + 1))
    return 2 * m + 2, s, t, arcs


def stc_values_by_edmonds_karp(g: Graph) -> tuple[int, list[int]]:
    """Cut value and per-edge half-unit values read off the residual
    source side S of the cut network: hi - lo + 1 with lo = [intake in S]
    and hi = [outlet in S]."""
    nodes, s, t, arcs = stc_cut_network(g)
    flow, side = edmonds_karp(nodes, s, t, arcs)
    return flow, [(2 * e + 1 in side) - (2 * e in side) + 1
                  for e in range(g.m)]


def planted_clusters(sizes: Sequence[int], drop: float, noise: int,
                     seed: int) -> Graph:
    """Disjoint cliques of the given sizes, each clique edge dropped with
    chance ``drop``, plus ``noise`` random extra node pairs."""
    rng = random.Random(seed)
    edges = []
    base = 0
    for size in sizes:
        for a in range(base, base + size):
            for b in range(a + 1, base + size):
                if rng.random() >= drop:
                    edges.append((a, b))
        base += size
    for _ in range(noise):
        edges.append((rng.randrange(base), rng.randrange(base)))
    return Graph.from_edges(base, edges)


def ratio_pivot_by_full_scan(g: Graph) -> tuple[
        list[int], list[list[int]], list[tuple[int, int, int]]]:
    """Pivot g by the ratio rule, scoring every live node in every round.

    Returns (assignment, clusters, per_iteration) in the shapes of
    Clustering and PivotAudit.  The key is (0, |B|/|N|) when |N| > 0,
    (0, 0) when |B| = |N| = 0 and (1, 0) when only |N| = 0; the lowest id
    wins ties."""
    nbrs = [g.neighbors(v).tolist() for v in range(g.n)]
    alive = [True] * g.n

    def counts(k: int) -> tuple[list[int], int, int]:
        members = [u for u in nbrs[k] if alive[u]]
        inside = set(members)
        boundary = twice_inside = 0
        for u in members:
            for w in nbrs[u]:
                if alive[w] and w != k:
                    if w in inside:
                        twice_inside += 1
                    else:
                        boundary += 1
        d = len(members)
        return members, boundary, d * (d - 1) // 2 - twice_inside // 2

    assignment = [-1] * g.n
    clusters: list[list[int]] = []
    per_iteration: list[tuple[int, int, int]] = []
    while any(alive):
        best_key = best_v = None
        for v in range(g.n):
            if alive[v]:
                _, b, nn = counts(v)
                key = ((0, Fraction(b, nn)) if nn
                       else (1 if b else 0, Fraction(0)))
                if best_key is None or key < best_key:
                    best_key, best_v = key, v
        members, b, nn = counts(best_v)
        cluster = sorted(members + [best_v])
        for v in cluster:
            assignment[v] = len(clusters)
            alive[v] = False
        clusters.append(cluster)
        per_iteration.append((best_v, b, nn))
    return assignment, clusters, per_iteration


def merge_clusters_pairwise(g: Graph, clusters: Sequence[Sequence[int]],
                            max_passes: int | None = None
                            ) -> tuple[list[int], list[list[int]]]:
    """Greedy clique-preserving merging by testing every later cluster.

    Each pass orders the live clusters largest-first (ties by id); each
    cluster in turn absorbs every later live cluster whose union with it
    is a clique.  Passes repeat until one merges nothing or max_passes
    run.  Returns (assignment, surviving clusters)."""
    clusters = [list(c) for c in clusters]
    dead = [False] * len(clusters)
    passes = 0
    while max_passes is None or passes < max_passes:
        passes += 1
        order = sorted((c for c in range(len(clusters)) if not dead[c]),
                       key=lambda c: (-len(clusters[c]), c))
        merged_any = False
        for ai, a in enumerate(order):
            if dead[a]:
                continue
            for b in order[ai + 1:]:
                if not dead[b] and all(g.has_edge(u, v) for u in clusters[a]
                                       for v in clusters[b]):
                    clusters[a] = sorted(clusters[a] + clusters[b])
                    dead[b] = True
                    merged_any = True
        if not merged_any:
            break
    survivors = [c for c, gone in zip(clusters, dead) if not gone]
    assignment = [-1] * g.n
    for cid, members in enumerate(survivors):
        for v in members:
            assignment[v] = cid
    return assignment, survivors


@dataclass
class CutLabels:
    """Binary split of a half-integral solution: per edge, hi = weakness
    at least one half, lo = weakness at most one half."""

    hi: list[int]
    lo: list[int]


def labels_from_values(values: Sequence[int]) -> CutLabels:
    return CutLabels([1 if v >= 1 else 0 for v in values],
                     [1 if v <= 1 else 0 for v in values])


def values_from_labels(labels: CutLabels) -> list[int]:
    return [h - l + 1 for h, l in zip(labels.hi, labels.lo)]


def labels_feasible(g: Graph, labels: CutLabels) -> bool:
    """Check the binary form of the wedge constraints: for every open
    wedge, lo of one leg is at most hi of the other."""
    ids = edge_ids(g)
    for i, j, k in brute_force_wedges(g):
        eik = ids[pack_edge(i, k)]
        ejk = ids[pack_edge(j, k)]
        if labels.lo[eik] > labels.hi[ejk] or labels.lo[ejk] > labels.hi[eik]:
            return False
    return True


def solution_lines(sol: HalfIntegralSolution) -> list[str]:
    """Debug dump, one 'u v value_half_units' line per edge."""
    g = sol.graph
    return [f"{g.label_of(u)} {g.label_of(v)} {sol.values[e]}"
            for e, (u, v) in enumerate(g.edges())]


def iter_weak_pairs(ws: WedgeSet) -> Iterator[tuple[int, int]]:
    """The weak edges of ws as (u, v) pairs with u < v."""
    for key in ws.weak_edges:
        yield unpack_edge(key)


def wedge_set_lines(ws: WedgeSet) -> list[str]:
    """Debug dump, one 'i j k' line per wedge."""
    return [f"{i} {j} {k}" for i, j, k in ws.wedges]


class FastMatchCursor:
    """Skip-list cursor over one center's array of live neighbors.

    ``next_idx[t]`` is the index after position t (NIL past the end);
    positions i < j hold the pair under inspection and ``j_prev`` satisfies
    next_idx[j_prev] == j.  ``advance_keep`` steps past an adjacent pair;
    ``advance_drop`` splices out position j and moves i, consuming both
    edges of a matched wedge.
    """

    NIL = -1

    def __init__(self, items: list[int]):
        if len(items) < 2:
            raise ValueError("cursor needs at least two items")
        self.items = items
        self.next_idx = list(range(1, len(items))) + [self.NIL]
        self.i = 0
        self.j = 1
        self.j_prev = 0
        self.finished = False

    def pair(self) -> tuple[int, int]:
        return self.items[self.i], self.items[self.j]

    def advance_keep(self) -> None:
        nxt = self.next_idx
        if nxt[self.j] != self.NIL:
            self.j_prev = self.j
            self.j = nxt[self.j]
        elif nxt[self.i] != self.j:
            self.i = nxt[self.i]
            self.j = nxt[self.i]
            self.j_prev = self.i
        else:
            self.finished = True

    def advance_drop(self) -> None:
        nxt = self.next_idx
        nxt[self.j_prev] = nxt[self.j]
        self.i = nxt[self.i]
        if self.i == self.NIL or nxt[self.i] == self.NIL:
            self.finished = True
        else:
            self.j = nxt[self.i]
            self.j_prev = self.i


def maximal_wedge_set_by_cursor(g: Graph) -> tuple[
        list[tuple[int, int, int]], set[int], int]:
    """The fast matcher's sweep, driven by FastMatchCursor.

    Per center v in id order, the live neighbors (edge to v not yet weak)
    are swept pair by pair; an open pair (u, w) becomes wedge (u, w, v)
    and both its edges turn weak.  Returns (wedges, weak keys,
    inspections)."""

    def key(a: int, b: int) -> int:
        return (a << 32) | b if a < b else (b << 32) | a

    weak: set[int] = set()
    wedges: list[tuple[int, int, int]] = []
    inspections = 0
    for v in range(g.n):
        live = [u for u in g.neighbors(v).tolist() if key(u, v) not in weak]
        if len(live) < 2:
            continue
        cur = FastMatchCursor(live)
        while not cur.finished:
            u, w = cur.pair()
            inspections += 1
            if g.has_edge(u, w):
                cur.advance_keep()
            else:
                weak.add(key(v, u))
                weak.add(key(v, w))
                wedges.append((u, w, v))
                cur.advance_drop()
    return wedges, weak, inspections


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


def boundary_and_nonedge_counts(state: ResidualGraph, k: int
                                ) -> tuple[int, int]:
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


def draw_live_candidate(rng: random.Random, candidates: list[int],
                        alive: bytearray) -> int:
    """The random pivot's draw: randrange over the candidates until it
    lands on a live node; a dead candidate it lands on is popped, and the
    last candidate takes its place."""
    while True:
        idx = rng.randrange(len(candidates))
        v = candidates[idx]
        if alive[v]:
            return v
        last = candidates.pop()
        if idx < len(candidates):
            candidates[idx] = last


def pivot_by_residual_graph(g: Graph, kind: str, seed: int | None = None
                            ) -> tuple[list[int], list[list[int]],
                                       list[tuple[int, int, int]]]:
    """Pivot g on a ResidualGraph, counting each round's audit before the
    cluster is removed.

    The pivot is chosen by a scan of the live nodes: the highest live
    degree for "degree", the least exact (class, |B|/|N|) key for
    "ratio", lowest id on ties; "random" draws positions from a list of
    candidates seeded with ``seed``, dropping a dead candidate where a
    draw lands on it.  Returns (assignment, clusters, per_iteration) in
    the shapes of Clustering and PivotAudit."""
    state = ResidualGraph(g)
    rng = random.Random(seed)
    candidates = list(range(g.n))

    def ratio_key(v: int) -> tuple[int, Fraction]:
        b, nn = boundary_and_nonedge_counts(state, v)
        return (0, Fraction(b, nn)) if nn else (1 if b else 0, Fraction(0))

    def select() -> int:
        live = [v for v in range(g.n) if state.alive[v]]
        if kind == "degree":
            return min(live, key=lambda v: (-state.live_deg[v], v))
        if kind == "ratio":
            return min(live, key=lambda v: (ratio_key(v), v))
        return draw_live_candidate(rng, candidates, state.alive)

    assignment = [-1] * g.n
    clusters: list[list[int]] = []
    per_iteration: list[tuple[int, int, int]] = []
    while state.live_count:
        k = select()
        members = state.live_neighbors(k)
        b, nn = boundary_and_nonedge_counts(state, k)
        cluster = sorted(members + [k])
        for v in cluster:
            assignment[v] = len(clusters)
        clusters.append(cluster)
        per_iteration.append((k, b, nn))
        state.remove_cluster(cluster)
    return assignment, clusters, per_iteration


def score_by_edge_loop(g: Graph, assignment: Sequence[int], weak: set[int],
                       values: Sequence[int] | None,
                       lower_bound_half: int) -> dict:
    """The scored fields of CDResult.to_json_dict, by one loop over the
    edges: deletions, the weak/strong split of the cut edges, the split
    by relaxation value (None without values), and the ratio."""
    deletions = m_w = m_s = m_1 = b_half = n_half = 0
    for e, (u, v) in enumerate(g.edges()):
        is_weak = ((u << 32) | v) in weak
        if assignment[u] != assignment[v]:
            deletions += 1
            if is_weak:
                m_w += 1
                if values is not None:
                    if values[e] == 2:
                        m_1 += 1
                    else:
                        b_half += 1
            else:
                m_s += 1
        elif is_weak and values is not None and values[e] == 1:
            n_half += 1
    ratio = None
    if lower_bound_half > 0:
        r = Fraction(2 * deletions, lower_bound_half)
        ratio = {"num": r.numerator, "den": r.denominator, "float": float(r)}
    lp = values is not None
    return {"deletions": deletions, "m_W": m_w, "m_S": m_s,
            "m_1": m_1 if lp else None, "b_half": b_half if lp else None,
            "n_half": n_half if lp else None, "ratio": ratio}


def weak_keys_by_edge_loop(sol: HalfIntegralSolution) -> set[int]:
    """Packed keys of the edges at weakness >= one half, one edge at a
    time."""
    keys = sol.graph.packed_edges()
    return {keys[e] for e, val in enumerate(sol.values) if val >= 1}


def split_by_sorted_search(g: Graph, packed_keys: set[int]
                           ) -> tuple[np.ndarray, Graph]:
    """(mask over edge ids of the edges whose key is in packed_keys, copy
    of g without them): the keys are sorted and g's keys searched among
    them, in key order."""
    drop = np.sort(np.fromiter(packed_keys, dtype=np.int64,
                               count=len(packed_keys)))
    keys = (g._edge_u << 32) | g._edge_v
    dropped = np.zeros(g.m, dtype=bool)
    if len(drop):
        order = np.argsort(keys)
        sorted_keys = keys[order]
        pos = np.minimum(np.searchsorted(drop, sorted_keys), len(drop) - 1)
        dropped[order] = drop[pos] == sorted_keys
    return dropped, Graph(g.n, g._edge_u[~dropped], g._edge_v[~dropped],
                          g.labels)
