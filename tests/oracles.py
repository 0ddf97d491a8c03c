"""Reference code that only the tests use, kept out of the package.

Exact solvers for small inputs (exponential time, guarded by size), the
open-wedge enumerator, the greedy wedge matcher over its output, the fast
matcher's former build (closure tested by packed key), the canonical
wedge set of the tight family, the verifiers of a wedge set and of
relaxation values, the relaxation's former matcher (plain Hopcroft-Karp
from a greedy start), its former Gallai build (a stable sort of the
arcs by tail) and first-fit start (a slice and a search per row), and the
former pivot loop and merge, which built every cluster's member list.
Each is written against the problem
definition directly and independently of the approximation pipeline, so
agreement between the two is meaningful evidence.  Two exceptions:
``mfp_with_wedge_set`` runs a fixed wedge set through the pipeline's own
strip, pivot and scoring, once ``verify_wedge_set`` has accepted it; and
the former pivot loop drives the package's own selectors, so that it
checks the loop and its clustering alone.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from time import perf_counter
from typing import Callable, Sequence

import numpy as np

from clusterdel import (ArcBudgetError, CDResult, Clustering, Graph,
                        PivotAudit, PivotStrategy, WedgeSet, pack_edge)
from clusterdel import pipelines
from clusterdel.graph import _SHIFT
from clusterdel.pivoting import (_DegreeSelector, _RandomSelector,
                                 _RatioSelector, adjacency_lists)
from helpers import edge_ids, edge_mask, unpack_edge


def enumerate_open_wedges(g: Graph,
                          sink: Callable[[int, int, int], None] | None = None
                          ) -> int:
    """Stream every open wedge of g; return the count.

    A wedge is reported in canonical form (i, j, k) with i < j, where
    (i, k) and (j, k) are edges and (i, j) is not.  Wedges are grouped by
    center k.  ``sink`` receives each wedge; pass None to just count.
    """
    count = 0
    indptr = g._indptr
    nbrs = g._nbrs
    # its own index, so that the oracle does not rest on the graph's
    eset = set(g.packed_edges())
    for k in range(g.n):
        lo = indptr[k]
        hi = indptr[k + 1]
        if hi - lo < 2:
            continue
        nb = nbrs[lo:hi].tolist()
        d = len(nb)
        for ai in range(d - 1):
            a = nb[ai]
            base = a << _SHIFT
            for bi in range(ai + 1, d):
                b = nb[bi]
                if (base | b) not in eset:
                    count += 1
                    if sink is not None:
                        sink(a, b, k)
    return count


def maximal_wedge_set_simple(g: Graph) -> WedgeSet:
    """Greedy matcher over the full wedge enumeration."""
    weak: set[int] = set()
    records: list[int] = []
    inspections = 0

    def sink(i: int, j: int, k: int) -> None:
        nonlocal inspections
        inspections += 1
        e1 = pack_edge(i, k)
        if e1 in weak:
            return
        e2 = pack_edge(j, k)
        if e2 in weak:
            return
        weak.add(e1)
        weak.add(e2)
        records.extend((i, j, k))

    enumerate_open_wedges(g, sink)
    return WedgeSet(g, records, edge_mask(g, weak), inspections)


def maximal_wedge_set_by_packed_keys(g: Graph) -> WedgeSet:
    """The skip-list matcher as it was built before the graph kept a key
    index of compact keys: the same sweep, testing closure by packed key
    (``u << 32 | w``) in an index of its own, with each row read whole.
    The fast matcher must give the same records, inspections and weak
    mask."""
    weak = bytearray(g.m)
    weak_at = [0] * g.n
    records = array("q")
    inspections = 0
    edge_keys = dict.fromkeys(g.packed_edges())
    indptr = g._indptr.tolist()
    for v in range(g.n):
        lo, hi = indptr[v], indptr[v + 1]
        live = g._nbrs[lo:hi].tolist()
        eids = g._slot_eid[lo:hi].tolist()
        if weak_at[v]:
            p = bisect_left(live, v)
            low = [t for t in range(p) if not weak[eids[t]]]
            live = [live[t] for t in low] + live[p:]
            eids = [eids[t] for t in low] + eids[p:]
        d = len(live)
        if d < 2:
            continue
        nxt = list(range(1, d)) + [-1]
        i = 0
        while True:
            u = live[i]
            ubase = u << _SHIFT
            jp = i
            j = nxt[i]
            if j < 0:
                break
            while True:
                inspections += 1
                w = live[j]
                if (ubase | w) not in edge_keys:
                    weak[eids[i]] = 1
                    weak[eids[j]] = 1
                    weak_at[u] += 1
                    weak_at[w] += 1
                    records.extend((u, w, v))
                    nxt[jp] = nxt[j]
                    break
                jp = j
                j = nxt[j]
                if j < 0:
                    break
            i = nxt[i]
            if i < 0:
                break
    return WedgeSet(g, records, np.frombuffer(weak, dtype=bool), inspections)


def tight_wedge_set(g: Graph) -> WedgeSet:
    """The canonical wedge set of ``tight_instance(n)``: with q = n/2, each
    clique-cycle edge (i, j), j = i+1 mod q, paired with j's pendant edge
    (j, q+j).  The q wedges are edge-disjoint and maximal, so q is the
    optimum, and greedy rounding on them deletes 3n/2 - 4 edges under any
    pivot order."""
    q = g.n // 2
    records: list[int] = []
    weak: set[int] = set()
    for i in range(q):
        j = (i + 1) % q
        records.extend((min(i, q + j), max(i, q + j), j))
        weak.add(pack_edge(i, j))
        weak.add(pack_edge(j, q + j))
    return WedgeSet(g, records, edge_mask(g, weak))


def mfp_with_wedge_set(g: Graph, strategy: PivotStrategy, ws: WedgeSet
                       ) -> CDResult:
    """match_flip_pivot with ws in place of the matcher's wedge set.

    ws must pass ``verify_wedge_set`` on g.  The preparation is the one
    ``pipelines._prepare`` builds from the matcher: the certificate of
    |W| wedges with ws's weak mask, and the adjacency lists of g stripped
    of that mask.  Its lower_bound time reads 0.
    """
    verify_wedge_set(g, ws)
    count = ws.wedge_count
    cert = pipelines.Certificate("mfp", g, count, None, 2 * count,
                                 ws.weak_mask, None)
    prep = pipelines._Preparation(cert, adjacency_lists(g, ~ws.weak_mask),
                                  0.0)
    return pipelines._finish(prep, strategy)


def verify_wedge_set(g: Graph, ws: WedgeSet) -> None:
    """Raise ValueError unless ws is a valid maximal edge-disjoint wedge set."""
    used: set[int] = set()
    for wdg in ws.wedges:
        i, j, k = wdg
        if not i < j:
            raise ValueError(f"wedge {wdg} not canonical")
        if not (g.has_edge(i, k) and g.has_edge(j, k)):
            raise ValueError(f"wedge {wdg} legs missing from graph")
        if g.has_edge(i, j):
            raise ValueError(f"wedge {wdg} is closed")
        for key in (pack_edge(i, k), pack_edge(j, k)):
            if key in used:
                raise ValueError(f"edge {unpack_edge(key)} shared by two wedges")
            used.add(key)
    if used != ws.weak_edges:
        raise ValueError("weak_edges does not match the union of wedge legs")
    if ws.weak_mask.tolist() != edge_mask(g, used).tolist():
        raise ValueError("weak_mask does not mark the wedge legs by g's "
                         "edge ids")
    violations: list[tuple[int, int, int]] = []

    def sink(i: int, j: int, k: int) -> None:
        if pack_edge(i, k) not in used and pack_edge(j, k) not in used:
            violations.append((i, j, k))

    enumerate_open_wedges(g, sink)
    if violations:
        raise ValueError(f"wedge set not maximal: {violations[0]} untouched")


def verify_stc_feasible(g: Graph, values: Sequence[int]) -> bool:
    """Check every open wedge carries total weakness >= 2 half-units."""
    ok = [True]
    ids = edge_ids(g)

    def sink_wedge(i: int, j: int, k: int) -> None:
        if values[ids[pack_edge(i, k)]] + values[ids[pack_edge(j, k)]] < 2:
            ok[0] = False

    enumerate_open_wedges(g, sink_wedge)
    return ok[0]


def exact_cluster_deletion(g: Graph, max_n: int = 14
                           ) -> tuple[int, list[list[int]]]:
    """Minimum deletions turning g into disjoint cliques, plus a witness.

    Dynamic program over node subsets: the lowest node of a subset joins
    some clique inside it, so maximize kept edges over those cliques.
    """
    n = g.n
    if n > max_n:
        raise ValueError(f"exact cluster deletion limited to n <= {max_n}")
    adj = [0] * n
    for u, v in g.edges():
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    memo: dict[int, int] = {0: 0}
    choice: dict[int, int] = {}

    def best(mask: int) -> int:
        val = memo.get(mask)
        if val is not None:
            return val
        v = (mask & -mask).bit_length() - 1
        best_val = -1
        best_clique = 0

        def extend(clique: int, size: int, cand: int) -> None:
            nonlocal best_val, best_clique
            val = size * (size - 1) // 2 + best(mask & ~clique)
            if val > best_val:
                best_val = val
                best_clique = clique
            c = cand
            while c:
                low = c & -c
                u = low.bit_length() - 1
                c ^= low
                extend(clique | low, size + 1, c & adj[u])

        extend(1 << v, 1, adj[v] & mask)
        memo[mask] = best_val
        choice[mask] = best_clique
        return best_val

    full = (1 << n) - 1
    kept = best(full)
    clusters = []
    mask = full
    while mask:
        clique = choice[mask]
        clusters.append([v for v in range(n) if clique >> v & 1])
        mask &= ~clique
    return g.m - kept, clusters


def exact_min_stc(g: Graph, max_m: int = 24) -> int:
    """Minimum weak edges so every open wedge has a weak leg.

    Branch and bound on the wedge constraints: take the first uncovered
    wedge and branch on which leg goes weak.
    """
    if g.m > max_m:
        raise ValueError(f"exact STC limited to m <= {max_m}")
    constraints: list[tuple[int, int]] = []
    ids = edge_ids(g)
    enumerate_open_wedges(
        g, lambda i, j, k: constraints.append((ids[pack_edge(i, k)],
                                               ids[pack_edge(j, k)])))
    weak = bytearray(g.m)
    best = [g.m]

    def bb(idx: int, count: int) -> None:
        if count >= best[0]:
            return
        while idx < len(constraints):
            e, f = constraints[idx]
            if not (weak[e] or weak[f]):
                break
            idx += 1
        else:
            best[0] = count
            return
        for pick in (e, f):
            weak[pick] = 1
            bb(idx + 1, count + 1)
            weak[pick] = 0

    bb(0, 0)
    return best[0]


def min_vertex_cover(h: Graph, max_n: int = 24) -> int:
    """Minimum vertex cover by branch and bound on uncovered edges."""
    if h.n > max_n:
        raise ValueError(f"exact vertex cover limited to n <= {max_n}")
    edges = list(h.edges())
    picked = bytearray(h.n)
    best = [h.n]

    def bb(idx: int, count: int) -> None:
        if count >= best[0]:
            return
        while idx < len(edges):
            u, v = edges[idx]
            if not (picked[u] or picked[v]):
                break
            idx += 1
        else:
            best[0] = count
            return
        for pick in (u, v):
            picked[pick] = 1
            bb(idx + 1, count + 1)
            picked[pick] = 0

    bb(0, 0)
    return best[0]


def gallai_graph(g: Graph) -> Graph:
    """Line-graph restriction whose nodes are g's edges and whose edges
    join the two legs of each open wedge; vertex covers of it are exactly
    valid weak-edge sets of g."""
    pairs: list[tuple[int, int]] = []
    ids = edge_ids(g)
    enumerate_open_wedges(
        g, lambda i, j, k: pairs.append((ids[pack_edge(i, k)],
                                         ids[pack_edge(j, k)])))
    return Graph.from_edges(g.m, pairs)


def exact_stc_lp(g: Graph, max_m: int = 12) -> int:
    """Optimal value of the STC relaxation in half-units, by backtracking
    over per-edge values in {0, 1, 2} with branch-and-bound pruning."""
    if g.m > max_m:
        raise ValueError(f"exact relaxation limited to m <= {max_m}")
    by_later: list[list[int]] = [[] for _ in range(g.m)]
    involved: set[int] = set()
    ids = edge_ids(g)

    def sink_wedge(i: int, j: int, k: int) -> None:
        a = ids[pack_edge(i, k)]
        b = ids[pack_edge(j, k)]
        by_later[max(a, b)].append(min(a, b))
        involved.add(a)
        involved.add(b)

    enumerate_open_wedges(g, sink_wedge)
    order = sorted(involved)
    vals = [0] * g.m
    best = [len(order)]  # all-halves is feasible

    def bt(pos: int, total: int) -> None:
        if total >= best[0]:
            return
        if pos == len(order):
            best[0] = total
            return
        e = order[pos]
        partners = by_later[e]
        for v in (0, 1, 2):
            if total + v >= best[0]:
                break
            if all(vals[f] + v >= 2 for f in partners):
                vals[e] = v
                bt(pos + 1, total + v)
        vals[e] = 0

    bt(0, 0)
    return best[0]


def hopcroft_karp(ptr: list[int], adj: list[int]
                  ) -> tuple[list[int], list[int]]:
    """Maximum matching of the double cover as (left mates, right mates),
    -1 for unmatched.  adj is symmetric, so it serves both sides."""
    n = len(ptr) - 1
    mate_l = [-1] * n
    mate_r = [-1] * n
    for u in range(n):
        for v in adj[ptr[u]:ptr[u + 1]]:
            if mate_r[v] < 0:
                mate_l[u] = v
                mate_r[v] = u
                break
    while True:
        # BFS layers over left nodes along alternating paths
        free = [u for u in range(n) if mate_l[u] < 0 and ptr[u] < ptr[u + 1]]
        dist = [-1] * n
        for u in free:
            dist[u] = 0
        reachable_free = False
        queue = list(free)
        qi = 0
        while qi < len(queue):
            u = queue[qi]
            qi += 1
            du = dist[u] + 1
            for v in adj[ptr[u]:ptr[u + 1]]:
                w = mate_r[v]
                if w < 0:
                    reachable_free = True
                elif dist[w] < 0:
                    dist[w] = du
                    queue.append(w)
        if not reachable_free:
            return mate_l, mate_r
        # one DFS per free root along the layers; dead ends get dist -1
        it = ptr[:-1]
        for root in free:
            stack = [root]
            while stack:
                u = stack[-1]
                p = it[u]
                if p == ptr[u + 1]:
                    dist[u] = -1
                    stack.pop()
                    continue
                v = adj[p]
                it[u] = p + 1
                w = mate_r[v]
                if w < 0:
                    for x in stack:
                        y = adj[it[x] - 1]
                        mate_l[x] = y
                        mate_r[y] = x
                    break
                if dist[w] == dist[u] + 1:
                    stack.append(w)


def gallai_csr_by_stable_sort(g: Graph, arc_budget: int,
                              pair_block: int = 1 << 18
                              ) -> tuple[list[int], list[int]]:
    """The relaxation's Gallai CSR as ``stc._gallai_csr`` built it before
    it sorted distinct keys: three ``np.repeat`` calls per block of
    candidate pairs, and the arcs grouped by tail with a stable argsort."""
    m = g.m
    if 2 * m > arc_budget:
        raise ArcBudgetError(2 * m, arc_budget)
    if m == 0:
        return [0], []
    indptr = g._indptr
    nbrs = g._nbrs
    sorted_keys = np.sort((g._edge_u << 32) | g._edge_v)
    deg = np.diff(indptr)
    row_of = np.repeat(np.arange(g.n, dtype=np.int64), deg)
    pairs_at = indptr[row_of + 1] - np.arange(2 * m) - 1
    pairs_upto = np.cumsum(pairs_at)
    arcs = 2 * m
    legs_a = [np.zeros(0, dtype=np.int64)]
    legs_b = [np.zeros(0, dtype=np.int64)]
    s0 = 0
    while s0 < 2 * m:
        done = int(pairs_upto[s0 - 1]) if s0 else 0
        s1 = int(np.searchsorted(pairs_upto, done + pair_block, "right"))
        s1 = min(max(s1, s0 + 1), 2 * m)
        counts = pairs_at[s0:s1]
        total = int(pairs_upto[s1 - 1]) - done
        s_lo, s0 = s0, s1
        if total == 0:
            continue
        first = np.repeat(np.arange(s_lo, s1), counts)
        offset = np.repeat(np.cumsum(counts) - counts, counts)
        second = first + 1 + (np.arange(total) - offset)
        pair_keys = (nbrs[first] << 32) | nbrs[second]
        pos = np.minimum(np.searchsorted(sorted_keys, pair_keys), m - 1)
        is_open = sorted_keys[pos] != pair_keys
        arcs += 2 * int(np.count_nonzero(is_open))
        if arcs > arc_budget:
            raise ArcBudgetError(arc_budget + 2 - (arc_budget - 2 * m) % 2,
                                 arc_budget)
        legs_a.append(g._slot_eid[first[is_open]])
        legs_b.append(g._slot_eid[second[is_open]])
    tails = np.concatenate(legs_a + legs_b)
    heads = np.concatenate(legs_b + legs_a)
    ptr = np.zeros(m + 1, dtype=np.int64)
    np.cumsum(np.bincount(tails, minlength=m), out=ptr[1:])
    return ptr.tolist(), heads[np.argsort(tails, kind="stable")].tolist()


def first_fit_by_slices(ptr: list[int], adj: list[int]
                        ) -> tuple[list[int], list[int], list[int]]:
    """The relaxation matcher's greedy start as it was: each row sliced
    out of adj, and the mate's position found with ``adj.index``.  Returns
    (left mates, right mates, look) as ``stc._first_fit`` does."""
    n = len(ptr) - 1
    mate_l = [-1] * n
    mate_r = [-1] * n
    look = ptr[1:]
    for u in range(n):
        for v in adj[ptr[u]:ptr[u + 1]]:
            if mate_r[v] < 0:
                mate_l[u] = v
                mate_r[v] = u
                look[u] = adj.index(v, ptr[u]) + 1
                break
    return mate_l, mate_r, look


def pivot_lists_with_member_lists(adj: list[list[int]],
                                  strategy: PivotStrategy
                                  ) -> tuple[Clustering, PivotAudit]:
    """``pivot_lists`` as it was before clusterings recorded only their
    assignment: each round builds its cluster's sorted member list, and
    the clustering holds the lists from the start.  The same selectors
    pick the same pivots, so the assignment, lists, count and audit must
    be the fast loop's."""
    n = len(adj)
    alive = bytearray(b"\x01") * n
    live_deg = [len(a) for a in adj]
    if strategy.kind == "degree":
        selector = _DegreeSelector(alive, live_deg)
    elif strategy.kind == "ratio":
        selector = _RatioSelector(adj, alive, live_deg)
    else:
        selector = _RandomSelector(alive, strategy.seed)
    assignment = [-1] * n
    clusters: list[list[int]] = []
    rounds: list[int] = []
    total_b = 0
    total_n = 0
    left = n
    while left:
        k = selector.pop()
        cid = len(clusters)
        if not live_deg[k]:
            alive[k] = 0
            assignment[k] = cid
            clusters.append([k])
            rounds.extend((k, 0, 0))
            left -= 1
            continue
        members = [u for u in adj[k] if alive[u]]
        cluster = sorted(members + [k])
        for v in cluster:
            alive[v] = 0
            assignment[v] = cid
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
        rounds.extend((k, b, nn))
        total_b += b
        total_n += nn
        left -= len(cluster)
        selector.degrees_changed(touched)
    return Clustering(assignment, clusters), PivotAudit(total_b, total_n,
                                                        rounds)


def merge_clusters_with_member_lists(g: Graph, clustering: Clustering,
                                     max_passes: int | None = None,
                                     budget_ms: float | None = None
                                     ) -> Clustering:
    """``merge_clusters`` as it was before clusterings recorded only their
    assignment: it reads the input's member lists for their lengths and
    hands back lists rebuilt from one stable argsort of the merged
    owners.  The merge itself is the same one pass."""
    if budget_ms is not None and not budget_ms >= 0:
        raise ValueError("merge budget must be a non-negative number of "
                         f"milliseconds, not {budget_ms!r}")
    k0 = len(clustering.clusters)
    owner = np.array(clustering.assignment, dtype=np.int64)
    if len(owner) != g.n or np.any((owner < 0) | (owner >= k0)):
        raise ValueError(f"assignment must give each of the {g.n} nodes a "
                         f"cluster id in [0, {k0})")
    sizes = np.bincount(owner, minlength=k0)
    if not sizes.all():
        raise ValueError(f"cluster {int(np.argmin(sizes))} is empty")
    listed = list(map(len, clustering.clusters))
    if sizes.tolist() != listed:
        c = next(c for c in range(k0) if sizes[c] != listed[c])
        raise ValueError(f"cluster {c} lists {listed[c]} nodes, but the "
                         f"assignment gives it {sizes[c]}")
    alive = [True] * k0
    if max_passes is None or max_passes > 0:
        deadline = (perf_counter() + budget_ms / 1000.0
                    if budget_ms is not None else None)
        ou, ov = owner[g._edge_u], owner[g._edge_v]
        cut = ou != ov
        order = np.argsort(-sizes, kind="stable")
        size_at = sizes[order]
        position = np.empty(k0, dtype=np.int64)
        position[order] = np.arange(k0)
        pu, pv = position[ou[cut]], position[ov[cut]]
        keys, counts = np.unique(np.minimum(pu, pv) * k0
                                 + np.maximum(pu, pv), return_counts=True)
        keys = keys[counts == size_at[keys // k0] * size_at[keys % k0]]
        complete = set(keys.tolist())
        ps, qs = np.divmod(keys, k0)
        root = list(range(k0))
        turn, absorbed = -1, []
        for p, q, a, b in zip(ps.tolist(), qs.tolist(), order[ps].tolist(),
                              order[qs].tolist()):
            if p != turn:
                turn, absorbed = p, []
            if not (alive[a] and alive[b]):
                continue
            if deadline is not None and perf_counter() > deadline:
                break
            if absorbed and any(r * k0 + q not in complete
                                for r in absorbed):
                continue
            absorbed.append(q)
            root[b] = a
            alive[b] = False
        owner = np.array(root, dtype=np.int64)[owner]
    owner = (np.cumsum(alive, dtype=np.int64) - 1)[owner]
    members = np.argsort(owner, kind="stable").tolist()
    bounds = [0] + np.cumsum(np.bincount(owner)).tolist()
    return Clustering(owner.tolist(),
                      [members[i:j] for i, j in zip(bounds, bounds[1:])])
