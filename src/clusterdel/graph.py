"""Undirected simple graphs backed by CSR adjacency arrays.

Graphs are read from whitespace-separated edge lists (SNAP style) or built
from explicit edge iterables.  Node labels are compacted to dense internal
ids in first-appearance order; original labels are kept so clusterings can
be written back in terms of the input file.  An edge's id is its position
0..m-1 in first-appearance order, which indexes per-edge arrays such as
relaxation values and weak masks.  A key index of packed endpoint pairs
answers membership for the wedge matcher and ``has_edge``.
"""

from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np

_SHIFT = 32
_MASK = (1 << _SHIFT) - 1


def pack_edge(u: int, v: int) -> int:
    """Canonical integer key for the unordered pair {u, v}."""
    return (u << _SHIFT) | v if u < v else (v << _SHIFT) | u


def unpack_edge(key: int) -> tuple[int, int]:
    return key >> _SHIFT, key & _MASK


class EdgeListParseError(ValueError):
    """Malformed edge-list input.  Carries the 1-based line number."""

    def __init__(self, message: str, lineno: int):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


class InvariantError(RuntimeError):
    """A computed result failed its self-check: a bug, not bad input."""


class Graph:
    """Immutable undirected simple graph with sorted CSR adjacency.

    ``labels`` maps internal id -> original label, and the ``id_map``
    property inverts it; both are None for graphs whose nodes are already
    dense ints.
    """

    __slots__ = ("n", "m", "labels", "_indptr", "_nbrs", "_edge_u",
                 "_edge_v", "_edge_keys")

    def __init__(self, n: int, edge_u: np.ndarray, edge_v: np.ndarray,
                 labels: list[int] | None = None,
                 edge_keys: dict[int, None] | None = None):
        # edge_u/edge_v must already be canonical (u < v), deduplicated,
        # self-loop free, in edge-id order.  Use from_edges/parse_edge_list.
        # edge_keys, when given, must hold exactly the packed keys of the
        # edges; the graph takes ownership of it.
        self.n = n
        self.m = int(len(edge_u))
        self.labels = labels
        self._edge_u = edge_u
        self._edge_v = edge_v
        self._indptr = np.zeros(n + 1, dtype=np.int64)
        if self.m:
            rows = np.concatenate([edge_u, edge_v])
            cols = np.concatenate([edge_v, edge_u])
            # the (row, col) slot keys are distinct, so one argsort of
            # them orders the slots as a lexsort by row then col would
            order = np.argsort((rows << _SHIFT) | cols)
            self._nbrs = cols[order]
            counts = np.bincount(rows, minlength=n)
            np.cumsum(counts, out=self._indptr[1:])
        else:
            self._nbrs = np.zeros(0, dtype=np.int64)
        if edge_keys is None:
            edge_keys = dict.fromkeys(((edge_u << _SHIFT) | edge_v).tolist())
        self._edge_keys = edge_keys

    @property
    def id_map(self) -> dict[int, int] | None:
        """Original label -> internal id, derived from ``labels``."""
        if self.labels is None:
            return None
        return {label: v for v, label in enumerate(self.labels)}

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]],
                   labels: list[int] | None = None) -> "Graph":
        """Build a graph on nodes 0..n-1; drops self-loops and duplicates."""
        seen: dict[int, None] = {}
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
            if u == v:
                continue
            seen[pack_edge(u, v)] = None
        return cls._from_edge_keys(n, seen, labels)

    @classmethod
    def _from_edge_keys(cls, n: int, edge_keys: dict[int, None],
                        labels: list[int] | None) -> "Graph":
        """Graph whose edges are the packed keys of edge_keys, in insertion
        order; the dict becomes _edge_keys."""
        keys = np.fromiter(edge_keys, dtype=np.int64, count=len(edge_keys))
        return cls(n, keys >> _SHIFT, keys & _MASK, labels=labels,
                   edge_keys=edge_keys)

    def neighbors(self, v: int) -> np.ndarray:
        """Sorted array of neighbor ids (a view; do not mutate)."""
        return self._nbrs[self._indptr[v]:self._indptr[v + 1]]

    def degree(self, v: int) -> int:
        return int(self._indptr[v + 1] - self._indptr[v])

    def has_edge(self, u: int, v: int) -> bool:
        if u == v:
            return False
        return pack_edge(u, v) in self._edge_keys

    def edges(self) -> Iterator[tuple[int, int]]:
        """Edges as (u, v) with u < v, in edge-id order."""
        return zip(self._edge_u.tolist(), self._edge_v.tolist())

    def packed_edges(self) -> list[int]:
        return ((self._edge_u << _SHIFT) | self._edge_v).tolist()

    def label_of(self, v: int) -> int:
        return self.labels[v] if self.labels is not None else v

    def drop_edges(self, packed_keys: set[int]) -> "Graph":
        """Copy of the graph without the given edges (packed keys)."""
        return self.keep_edges(~self.edge_mask(packed_keys))

    def edge_mask(self, packed_keys: set[int]) -> np.ndarray:
        """Boolean array over edge ids, True where the edge's packed key is
        in packed_keys.  Keys of absent pairs are ignored."""
        drop = np.sort(np.fromiter(packed_keys, dtype=np.int64,
                                   count=len(packed_keys)))
        mask = np.zeros(self.m, dtype=bool)
        if len(drop):
            # search in key order, which keeps the binary searches
            # cache-friendly (np.isin would do, but its first call imports
            # numpy.ma: +2 MiB)
            keys = (self._edge_u << _SHIFT) | self._edge_v
            order = np.argsort(keys)
            sorted_keys = keys[order]
            pos = np.minimum(np.searchsorted(drop, sorted_keys),
                             len(drop) - 1)
            mask[order] = drop[pos] == sorted_keys
        return mask

    def keep_edges(self, keep: np.ndarray) -> "Graph":
        """Copy of the graph with only the edges marked in keep, a boolean
        array over edge ids."""
        return Graph(self.n, self._edge_u[keep], self._edge_v[keep],
                     labels=self.labels)


def parse_edge_list(source) -> Graph:
    """Parse a whitespace-separated edge list into a Graph.

    ``source`` may be a str, bytes, or an iterable of lines (e.g. an open
    file).  ``#`` starts a comment (full-line or trailing).  Each remaining
    line must hold exactly two integer tokens.  Duplicate edges in either
    orientation collapse to one; self-loops are dropped but still register
    the label, so a node can exist with degree 0.  Labels are compacted to
    0..n-1 in first-appearance order.
    """
    if isinstance(source, bytes):
        lines: Iterable = source.decode("utf-8").splitlines()
    elif isinstance(source, str):
        lines = source.splitlines()
    else:
        lines = source
    id_map: dict[int, int] = {}
    labels: list[int] = []
    # packed edge keys, in first-appearance order
    seen: dict[int, None] = {}
    for lineno, raw in enumerate(lines, start=1):
        if isinstance(raw, bytes):
            raw = raw.decode("utf-8")
        line = raw
        if "#" in line:
            line = line[:line.index("#")]
        parts = line.split()
        if not parts:
            continue
        if len(parts) != 2:
            raise EdgeListParseError(
                f"expected two integer tokens, got {len(parts)}", lineno)
        try:
            a, b = int(parts[0]), int(parts[1])
        except ValueError:
            raise EdgeListParseError(
                f"non-integer token in {parts!r}", lineno) from None
        ia = id_map.get(a)
        if ia is None:
            ia = id_map[a] = len(labels)
            labels.append(a)
        ib = id_map.get(b)
        if ib is None:
            ib = id_map[b] = len(labels)
            labels.append(b)
        if ia == ib:
            continue
        seen[(ia << _SHIFT) | ib if ia < ib else (ib << _SHIFT) | ia] = None
    return Graph._from_edge_keys(len(labels), seen, labels)


def serialize_edge_list(g: Graph) -> str:
    """Edge-list text that reparses to an identical graph.

    Leads with one self-loop line per node in id order: the parser registers
    labels from dropped self-loops, so the reparse reproduces internal ids
    exactly (including isolated nodes).
    """
    out = []
    for v in range(g.n):
        lab = g.label_of(v)
        out.append(f"{lab} {lab}")
    for u, v in g.edges():
        out.append(f"{g.label_of(u)} {g.label_of(v)}")
    return "\n".join(out) + ("\n" if out else "")
