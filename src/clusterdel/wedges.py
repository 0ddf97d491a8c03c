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

On small graphs most centers match little, so the matcher keeps its set-up
per center small.  It visits only the centers of degree >= 2, found with
one numpy call.  It reads their rows from Python lists converted one
block of CSR slots at a time (``_ROW_BLOCK``); lists of the whole CSR
raised the big-mfp benchmark's peak RSS from 59.5 to 67.7 MiB.  It
counts the weak edges at each node, so a center sorts out weak lower
edges only when its count is not zero.  And it slices each sweep's skip
list off one chain built in advance.  One pass over the 12 planted-pivot
benchmark graphs of seeds 11-13 (about 600 edges each) went from 10.0 to
7.1 ms (best of 200, 2 vCPU).
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .graph import Graph

# CSR slots the matcher converts to Python lists at a time, from the start
# of a row (a longer row is converted whole).  Bounds the lists it holds,
# where converting the whole CSR would add two lists of 2m ints to its peak.
_ROW_BLOCK = 4096


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

    Centers of degree >= 2 go in id order.  A center's live neighbors are
    those whose edge to it is not yet weak; only a lower-id neighbor's
    edge can be, as only its two ends make an edge weak, and weak_at
    counts those.  The sweep takes each live neighbor u still in the list,
    in id order, and pairs it with the first later one w that is not
    adjacent to u; the open wedge (u, w, center) is matched, and w leaves
    the list.  nxt[t] is the next position still in the list (-1 past the
    end), so the sweep never revisits a removed position.

    Every inspection either matches a wedge (at most m/2 overall, the pair
    leaves the sweep) or certifies a triangle (each triangle inspected at
    most once per corner), so inspections are O(min(m^1.5, m + T)).
    """
    weak = bytearray(g.m)
    # weak_at[x]: edges marked weak whose far end is x, so at center x
    # the number of its lower edges that are weak
    weak_at = [0] * g.n
    # 8 bytes a record, holding no int objects (W has 500k wedges at m = 1M)
    records = array("q")
    record = records.append
    inspections = 0
    indptr = g._indptr
    nbrs = g._nbrs
    slot_eid = g._slot_eid
    edge_keys = g._edge_keys
    block = _ROW_BLOCK
    deg = np.diff(indptr)
    centers = np.flatnonzero(deg >= 2)
    starts = indptr[centers]
    ends = indptr[centers + 1]
    # nxt of a d-neighbour sweep is chain[:d] with its last entry -1
    chain = list(range(1, int(deg.max(initial=0)) + 1))
    # nb, eb: neighbours and edge ids of CSR slots [b0, b1) as lists
    b0 = b1 = 0
    nb: list[int] = []
    eb: list[int] = []
    for v, lo, hi in zip(centers.tolist(), starts.tolist(), ends.tolist()):
        if hi > b1:
            b0 = lo
            b1 = max(lo + block, hi)
            nb = nbrs[b0:b1].tolist()
            eb = slot_eid[b0:b1].tolist()
        live = nb[lo - b0:hi - b0]
        # eids[t]: id of the edge from v to live[t]
        eids = eb[lo - b0:hi - b0]
        if weak_at[v]:
            p = bisect_left(live, v)
            low = [t for t in range(p) if not weak[eids[t]]]
            live = [live[t] for t in low] + live[p:]
            eids = [eids[t] for t in low] + eids[p:]
        d = len(live)
        if d < 2:
            continue
        nxt = chain[:d]
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
                    weak_at[u] += 1
                    weak_at[w] += 1
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
