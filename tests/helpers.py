"""Independent reference implementations used to cross-check the package.

Everything here is written for clarity, not speed: dense-matrix
Edmonds-Karp, cubic wedge enumeration, Bell-number partition search, the
relaxation's cut network as an explicit arc list, the ratio pivot as a
full scan per round, and cluster merging over all pairs.  None of it
shares code with src/.
"""
from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from clusterdel import Graph, HalfIntegralSolution, er_graph


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
    for i, j, k in brute_force_wedges(g):
        a, b = g.edge_id(i, k), g.edge_id(j, k)
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
    for i, j, k in brute_force_wedges(g):
        eik = g.edge_id(i, k)
        ejk = g.edge_id(j, k)
        if labels.lo[eik] > labels.hi[ejk] or labels.lo[ejk] > labels.hi[eik]:
            return False
    return True


def solution_lines(sol: HalfIntegralSolution) -> list[str]:
    """Debug dump, one 'u v value_half_units' line per edge."""
    g = sol.graph
    return [f"{g.label_of(u)} {g.label_of(v)} {sol.values[e]}"
            for e, (u, v) in enumerate(g.edges())]
