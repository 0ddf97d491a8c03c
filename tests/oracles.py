"""Reference code that only the tests use, kept out of the package.

Exact solvers for small inputs (exponential time, guarded by size), the
open-wedge enumerator, the greedy wedge matcher over its output, the
canonical wedge set of the tight family, and the verifiers of a wedge set
and of relaxation values.  Each is written against the problem definition
directly and independently of the approximation pipeline, so agreement
between the two is meaningful evidence.  The one exception,
``mfp_with_wedge_set``, runs a fixed wedge set through the pipeline's own
strip, pivot and scoring, once ``verify_wedge_set`` has accepted it.
"""

from __future__ import annotations

from typing import Callable, Sequence

from clusterdel import CDResult, Graph, PivotStrategy, WedgeSet, pack_edge
from clusterdel import pipelines
from clusterdel.graph import _SHIFT
from clusterdel.pivoting import adjacency_lists
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
    eset = g._edge_keys
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
