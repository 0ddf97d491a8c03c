"""Half-integral relaxation of strong triadic closure via bipartite matching.

The relaxation assigns each edge a weakness x in {0, 1/2, 1} such that the
two legs of every open wedge carry total weakness >= 1, minimizing the sum.
Values are kept in half-units (0, 1, 2) so all arithmetic is integral.

It is the fractional vertex cover LP of the Gallai graph, whose nodes are
the edges of g and whose edges join the two legs of each open wedge.  By
Nemhauser & Trotter (1975) it is solved exactly on the bipartite double
cover: a left copy (intake) and a right copy (outlet) of every edge, with
intake(e) -- outlet(f) whenever e and f are the two legs of an open wedge.
As a cut network (unit arcs source -> intake and outlet -> sink, uncuttable
arcs intake -> outlet) its maximum flow is a maximum matching, found here
by Hopcroft & Karp (1973).  The source side of the inclusion-minimal
minimum cut is what alternating paths reach from the unmatched intakes: an
intake reaches all its outlets, an outlet reaches its mate.  That set is
the same for every maximum matching (König), so the values do not depend
on which one the matcher finds.  With lo(e) = [intake(e) reached] and
hi(e) = [outlet(e) reached], the weakness in half-units is hi - lo + 1,
and the objective equals the cut value, which equals the matching size.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import Graph, InvariantError

DEFAULT_ARC_BUDGET = 5_000_000

# Candidate neighbour pairs examined per numpy block.  Bounds the transient
# arrays, so that a hub of huge degree hits the arc budget after a few
# blocks instead of materialising all of its pairs first.
_PAIR_BLOCK = 1 << 18


class ArcBudgetError(RuntimeError):
    """The cut network would exceed the configured arc budget."""

    def __init__(self, needed: int, budget: int):
        super().__init__(
            f"cut network needs more than {needed} arcs (budget {budget})")
        self.needed = needed
        self.budget = budget


@dataclass
class HalfIntegralSolution:
    """Optimal weakness values in half-units (0, 1, or 2), by edge id."""

    graph: Graph
    values: list[int]
    objective_half_units: int


def _gallai_csr(g: Graph, arc_budget: int) -> tuple[list[int], list[int]]:
    """CSR over edge ids of the Gallai graph (each open wedge joins its two
    legs both ways), checking the arc budget as wedges are found."""
    m = g.m
    if 2 * m > arc_budget:
        raise ArcBudgetError(2 * m, arc_budget)
    if m == 0:
        return [0], []
    indptr = g._indptr
    nbrs = g._nbrs
    sorted_keys = np.sort((g._edge_u << 32) | g._edge_v)
    # slot s of the CSR holds neighbour nbrs[s] of center row_of[s]
    deg = np.diff(indptr)
    row_of = np.repeat(np.arange(g.n, dtype=np.int64), deg)
    # slot s pairs with every later slot of its row
    pairs_at = indptr[row_of + 1] - np.arange(2 * m) - 1
    pairs_upto = np.cumsum(pairs_at)
    arcs = 2 * m
    legs_a = [np.zeros(0, dtype=np.int64)]
    legs_b = [np.zeros(0, dtype=np.int64)]
    s0 = 0
    while s0 < 2 * m:
        done = int(pairs_upto[s0 - 1]) if s0 else 0
        s1 = int(np.searchsorted(pairs_upto, done + _PAIR_BLOCK, "right"))
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
        found = int(np.count_nonzero(is_open))
        arcs += 2 * found
        if arcs > arc_budget:
            # the count at which a wedge-by-wedge build would have stopped
            raise ArcBudgetError(arc_budget + 2 - (arc_budget - 2 * m) % 2,
                                 arc_budget)
        legs_a.append(g._slot_eid[first[is_open]])
        legs_b.append(g._slot_eid[second[is_open]])
    tails = np.concatenate(legs_a + legs_b)
    heads = np.concatenate(legs_b + legs_a)
    ptr = np.zeros(m + 1, dtype=np.int64)
    np.cumsum(np.bincount(tails, minlength=m), out=ptr[1:])
    return ptr.tolist(), heads[np.argsort(tails, kind="stable")].tolist()


def _hopcroft_karp(ptr: list[int], adj: list[int]
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


def solve_stc_lp(g: Graph,
                 arc_budget: int = DEFAULT_ARC_BUDGET) -> HalfIntegralSolution:
    """Solve the relaxation exactly; objective equals the matching size.

    Raises ArcBudgetError if the cut network would need more than
    arc_budget arcs (2 per edge plus 2 per open wedge), and ValueError if
    arc_budget is negative.
    """
    if arc_budget < 0:
        raise ValueError(f"arc_budget must not be negative, not {arc_budget}")
    ptr, adj = _gallai_csr(g, arc_budget)
    m = g.m
    mate_l, mate_r = _hopcroft_karp(ptr, adj)
    # König: alternating reachability from the unmatched left nodes
    lo = [1 if v < 0 else 0 for v in mate_l]
    hi = [0] * m
    queue = [u for u in range(m) if lo[u]]
    for u in queue:
        for v in adj[ptr[u]:ptr[u + 1]]:
            if not hi[v]:
                hi[v] = 1
                w = mate_r[v]
                if w >= 0 and not lo[w]:
                    lo[w] = 1
                    queue.append(w)
    values = [h - l + 1 for h, l in zip(hi, lo)]
    objective = sum(values)
    matched = m - mate_l.count(-1)
    if objective != matched:
        raise InvariantError(
            f"relaxation objective {objective} != matching size {matched}")
    return HalfIntegralSolution(g, values, objective)


def labeling_from_lp(sol: HalfIntegralSolution) -> set[int]:
    """Weak-edge set (packed pair keys): edges with weakness >= one half."""
    return sol.graph.masked_keys(np.array(sol.values, dtype=np.int64) >= 1)
