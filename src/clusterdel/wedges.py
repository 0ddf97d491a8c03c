"""Maximal edge-disjoint sets of open wedges.

The matcher produces a maximal set W of open wedges no two of which share
an edge, by a skip-list sweep that touches each neighbor pair at most once
per center.  The two edges of every matched wedge form the weak set E_W;
maximality means every open wedge of the graph loses at least one edge to
E_W.  It is held as a mask over the graph's edge ids.

The matcher is the pipelines' hot loop, so its skip list lives in local
variables, it tests closure in the graph's key index directly, and it
marks each leg by the edge id that the leg's CSR slot records.  It keeps
the matched wedges as flat integer records, three per wedge in one
``array('q')``, and builds no object per wedge: the pipelines read only
the count and the mask, and ``WedgeSet.wedges`` builds plain ``(i, j, k)``
tuples on each read.  The pipelines take W from this matcher alone, so
the bound they certify always counts a maximal set of their own graph.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .graph import Graph


@dataclass
class WedgeSet:
    """Edge-disjoint open wedges of graph plus their weak edges E_W."""

    graph: Graph
    # records[3t:3t + 3]: the t-th wedge's (i, j, k), an open wedge with
    # edges (i, k) and (j, k) present, (i, j) absent, and i < j
    records: Sequence[int]
    # weak_mask[e]: edge e of graph is a leg of a wedge
    weak_mask: np.ndarray
    inspections: int = 0

    @property
    def wedges(self) -> list[tuple[int, int, int]]:
        """W in matching order as (i, j, k) tuples, new on each read."""
        r = self.records
        return list(zip(r[0::3], r[1::3], r[2::3]))

    @property
    def wedge_count(self) -> int:
        """|W|, the certified lower bound on deletions."""
        return len(self.records) // 3

    @property
    def weak_edges(self) -> set[int]:
        """E_W as packed keys, in a new set on each read."""
        return self.graph.masked_keys(self.weak_mask)

    @property
    def weak_count(self) -> int:
        return int(np.count_nonzero(self.weak_mask))


def maximal_wedge_set_fast(g: Graph) -> WedgeSet:
    """Skip-list matcher: per center, sweep live-neighbor pairs once.

    Centers go in id order.  A center's live neighbors are those whose
    edge to it is not yet weak; only a lower-id neighbor's edge can be,
    as only its two ends make an edge weak.  The sweep takes each live
    neighbor u still in the list, in id order, and pairs it with the
    first later one w that is not adjacent to u; the open wedge
    (u, w, center) is matched, and w leaves the list.  nxt[t] is the next
    position still in the list (-1 past the end), so the sweep never
    revisits a removed position.

    Every inspection either matches a wedge (at most m/2 overall, the pair
    leaves the sweep) or certifies a triangle (each triangle inspected at
    most once per corner), so inspections are O(min(m^1.5, m + T)).
    """
    weak = bytearray(g.m)
    # 8 bytes a record, holding no int objects (W has 500k wedges at m = 1M)
    records = array("q")
    record = records.append
    inspections = 0
    indptr = g._indptr.tolist()
    nbrs = g._nbrs
    edge_keys = g._edge_keys
    for v in range(g.n):
        lo = indptr[v]
        hi = indptr[v + 1]
        if hi - lo < 2:
            continue
        live = nbrs[lo:hi].tolist()
        # eids[t]: id of the edge from v to live[t]
        eids = g._slot_eid[lo:hi].tolist()
        p = bisect_left(live, v)
        if p and any(map(weak.__getitem__, eids[:p])):
            low = [t for t in range(p) if not weak[eids[t]]]
            live = [live[t] for t in low] + live[p:]
            eids = [eids[t] for t in low] + eids[p:]
        d = len(live)
        if d < 2:
            continue
        nxt = list(range(1, d + 1))
        nxt[-1] = -1
        i = 0
        while True:
            u = live[i]
            ubase = u << 32
            jp = i
            j = nxt[i]
            if j < 0:
                break
            while True:
                inspections += 1
                w = live[j]
                if (ubase | w) not in edge_keys:  # live is sorted: u < w
                    weak[eids[i]] = 1
                    weak[eids[j]] = 1
                    record(u)
                    record(w)
                    record(v)
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
