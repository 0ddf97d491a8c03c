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
arcs intake -> outlet) its maximum flow is a maximum matching.  It is found
in three stages: a first-fit greedy start; Pothen-Fan+ phases, depth-first
augmentation with a lookahead that Duff, Kaya & Uçar (2011) found fastest
in practice, while each phase augments a fair share of its free roots;
and Hopcroft & Karp (1973) phases to finish, since on hub graphs
Pothen-Fan+ needs hundreds of phases that each gain little.  The source
side of the inclusion-minimal minimum cut is what alternating paths reach
from the unmatched intakes: an intake reaches all its outlets, an outlet
reaches its mate.  That set is the same for every maximum matching: the
source sides of all minimum cuts are closed under intersection, so the
inclusion-minimal one is unique, a property of the network alone (König).
So the values do not depend on which maximum matching the matcher finds,
nor on how it finds it.  With lo(e) = [intake(e) reached] and
hi(e) = [outlet(e) reached], the weakness in half-units is hi - lo + 1,
and the objective equals the cut value, which equals the matching size.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import _SHIFT, Graph, InvariantError

DEFAULT_ARC_BUDGET = 5_000_000

# Candidate neighbour pairs examined per numpy block.  Bounds the transient
# arrays, so that a hub of huge degree hits the arc budget after a few
# blocks instead of materialising all of its pairs first.
_PAIR_BLOCK = 1 << 18

# Share of its free roots a Pothen-Fan+ phase must augment for the next
# phase to run; below it, Hopcroft-Karp finishes the matching.  Picked on
# the hub graph of the big-mfp benchmark workload, where 0.1 and 0.01 each
# left two more Hopcroft-Karp phases to run; planted-lp barely depends on it.
_PF_MIN_GAIN = 0.02


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
    legs both ways), checking the arc budget as wedges are found.

    Each row keeps its arcs in the order the scan finds them, and the
    matcher's scans follow that order.  The default sort of the distinct
    keys tail * arcs + position groups the arcs by tail in that order, as
    a stable sort of the tails does, in less time.  Another order changes
    the phases the matcher runs: on the big-mfp benchmark's seed-11
    relaxation, an unstable sort or heads in ascending order each took 3
    Pothen-Fan+ and 12 Hopcroft-Karp phases instead of 4 and 11, and ran
    slower."""
    m = g.m
    if 2 * m > arc_budget:
        raise ArcBudgetError(2 * m, arc_budget)
    if m == 0:
        return [0], []
    indptr = g._indptr
    nbrs = g._nbrs
    sorted_keys = np.sort((g._edge_u << _SHIFT) | g._edge_v)
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
        # pair t of slot s is (s, s + 1 + t - pairs of the block before s)
        shift = np.arange(s_lo + 1, s1 + 1) - (np.cumsum(counts) - counts)
        second = np.arange(total) + np.repeat(shift, counts)
        pair_keys = (nbrs[first] << _SHIFT) | nbrs[second]
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
    keys = np.concatenate(legs_a + legs_b)  # the tails, until made keys
    heads = np.concatenate(legs_b + legs_a)
    ptr = np.zeros(m + 1, dtype=np.int64)
    np.cumsum(np.bincount(keys, minlength=m), out=ptr[1:])
    # group the arcs by tail, each row in the order the scan found its
    # arcs: the keys are distinct, so any sort gives the stable order.
    # They overwrite the tails and are freed before the heads become a
    # list; kept alive, they raised clusterdel lb's peak on the big-mfp
    # benchmark file from 241 to 261 MiB.
    count = len(keys)
    keys *= count
    keys += np.arange(count)
    order = np.argsort(keys)
    del keys
    return ptr.tolist(), heads[order].tolist()


def _first_fit(ptr: list[int], adj: list[int]
               ) -> tuple[list[int], list[int], list[int]]:
    """Greedy start of the matching: each left node in id order takes its
    first free right node.  Returns (left mates, right mates, look), where
    look[u] is the position past u's mate in adj, or its row end.

    It walks each row by index: a slice per row and a search for the
    mate's position took about twice as long."""
    n = len(ptr) - 1
    mate_l = [-1] * n
    mate_r = [-1] * n
    # look[u]: u's arcs before it lead to matched right nodes, which stay
    # matched, so u's search for a free neighbour resumes there
    look = ptr[1:]
    for u in range(n):
        p = ptr[u]
        end = look[u]  # the row's end
        while p < end:
            v = adj[p]
            p += 1
            if mate_r[v] < 0:
                mate_l[u] = v
                mate_r[v] = u
                look[u] = p
                break
    return mate_l, mate_r, look


def _maximum_matching(ptr: list[int], adj: list[int]
                      ) -> tuple[list[int], list[int]]:
    """Maximum matching of the double cover as (left mates, right mates),
    -1 for unmatched.  adj is symmetric, so it serves both sides.

    A first-fit greedy start, then Pothen-Fan+ phases while they pay, then
    Hopcroft-Karp phases until no augmenting path is left."""
    n = len(ptr) - 1
    mate_l, mate_r, look = _first_fit(ptr, adj)
    # Pothen-Fan+: one DFS per free left node, each right node entered at
    # most once a phase (seen holds the phase number), a lookahead for a
    # free neighbour at every left node reached, and the scan direction
    # flipped every phase
    free = [u for u in range(n) if mate_l[u] < 0 and ptr[u] < ptr[u + 1]]
    ends = ptr[1:]
    lasts = [p - 1 for p in ends]
    befores = [p - 1 for p in ptr]
    it = [0] * n
    seen = [0] * n
    phase = 0
    while free:
        phase += 1
        if phase % 2:
            first, stop, step = ptr, ends, 1
        else:
            first, stop, step = lasts, befores, -1
        augmented = 0
        for root in free:
            path = [root]
            it[root] = first[root]
            u = root
            while True:
                p = look[u]
                end = ends[u]
                while p < end and mate_r[adj[p]] >= 0:
                    p += 1
                look[u] = p
                if p < end:
                    # flip the path: each left node takes the right node
                    # its successor held, the last one the free node
                    v = adj[p]
                    for x in reversed(path):
                        mate_r[v] = x
                        mate_l[x], v = v, mate_l[x]
                    augmented += 1
                    break
                while path:
                    u = path[-1]
                    p = it[u]
                    end = stop[u]
                    while p != end and seen[adj[p]] == phase:
                        p += step
                    if p != end:
                        break
                    path.pop()
                else:
                    break
                v = adj[p]
                it[u] = p + step
                seen[v] = phase
                u = mate_r[v]
                it[u] = first[u]
                path.append(u)
        if augmented == 0:
            # no root reached a free node, so no augmenting path is left
            return mate_l, mate_r
        if augmented < _PF_MIN_GAIN * len(free):
            break
        free = [u for u in free if mate_l[u] < 0]
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
    mate_l, mate_r = _maximum_matching(ptr, adj)
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
