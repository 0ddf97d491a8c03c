"""Undirected simple graphs backed by CSR adjacency arrays.

Graphs are read from whitespace-separated edge lists (SNAP style) or built
from explicit edge iterables.  Every source is read in chunks of lines.
A chunk is plain when its lines broke at each "\\n" and nowhere else, and
each is blank or holds two integers of at most 18 digits once ``#``
comments are removed.  Plain chunks are parsed in bulk with numpy; from
the first chunk that is not plain on, the lines are parsed one at a time,
to the same graph.  Node labels are compacted to dense internal ids in
first-appearance order; original labels are kept so clusterings can be
written back in terms of the input file.  An edge's id is its position
0..m-1 in first-appearance order, which indexes per-edge arrays such as
relaxation values and weak masks; each CSR slot records the id of its
edge.  A graph is built from its endpoint arrays in edge-id order, as the
parser reads them.  It keeps a key index, the set of its edges' compact
keys ``lo * base + hi`` for ``base = n | 1``, to answer membership for
the wedge matcher and ``has_edge``.  An odd base spreads both endpoints
over a key's low bits, where set slots are chosen, and below 32,768
nodes every key is a one-digit int.  Outside the graph, edges are named
by packed keys (``pack_edge``), which do not depend on n.
"""

from __future__ import annotations

import io
import os
import re
from itertools import chain, islice
from typing import Iterable, Iterator

import numpy as np

_SHIFT = 32


def pack_edge(u: int, v: int) -> int:
    """Canonical integer key for the unordered pair {u, v}."""
    return (u << _SHIFT) | v if u < v else (v << _SHIFT) | u


def _int64(values: list[int]) -> np.ndarray:
    return np.array(values, dtype=np.int64)


class EdgeListParseError(ValueError):
    """Malformed edge-list input.  Carries the 1-based line number."""

    def __init__(self, message: str, lineno: int):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


class InvariantError(RuntimeError):
    """A computed result failed its self-check: a bug, not bad input."""


class Graph:
    """Immutable undirected simple graph with sorted CSR adjacency.

    ``labels`` maps internal id -> original label; it is None for graphs
    whose nodes are already dense ints.  ``_edge_keys`` is the key index,
    the set of the edges' compact keys ``lo * _base + hi``.  ``_bounds``
    is the pipelines' memo of the graph's certified lower bounds and
    stripped adjacency lists, filled only by ``pipelines._prepare``; it
    never changes what the graph is.
    """

    __slots__ = ("n", "m", "labels", "_indptr", "_nbrs", "_slot_eid",
                 "_edge_u", "_edge_v", "_base", "_edge_keys", "_bounds")

    def __init__(self, n: int, edge_u: np.ndarray, edge_v: np.ndarray,
                 labels: list[int] | None = None):
        # edge_u, edge_v: int64 endpoint arrays in edge-id order, with
        # edge_u < edge_v < n, a repeated edge keeping its first position;
        # the graph takes ownership of them.  Use from_edges/parse_edge_list.
        self.n = n
        self.labels = labels
        self._bounds = {}
        self._base = base = n | 1
        keys = edge_u * base + edge_v
        self._edge_keys = set(keys.tolist())
        if len(self._edge_keys) < len(keys):
            # np.unique returns the first position of each distinct key
            first = np.unique(keys, return_index=True)[1]
            first.sort()
            edge_u, edge_v = edge_u[first], edge_v[first]
        self.m = len(self._edge_keys)
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
            # slot s came from position order[s] of rows, which holds an
            # endpoint of edge order[s] % m
            self._slot_eid = np.remainder(order, self.m, out=order)
            counts = np.bincount(rows, minlength=n)
            np.cumsum(counts, out=self._indptr[1:])
        else:
            self._nbrs = np.zeros(0, dtype=np.int64)
            self._slot_eid = np.zeros(0, dtype=np.int64)
        for arr in (self._edge_u, self._edge_v, self._indptr, self._nbrs,
                    self._slot_eid):
            arr.flags.writeable = False

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        """Build a graph on nodes 0..n-1; drops self-loops and duplicates."""
        lo: list[int] = []
        hi: list[int] = []
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
            if u != v:
                lo.append(min(u, v))
                hi.append(max(u, v))
        return cls(n, _int64(lo), _int64(hi))

    def neighbors(self, v: int) -> np.ndarray:
        """Sorted array of neighbor ids (a read-only view)."""
        return self._nbrs[self._indptr[v]:self._indptr[v + 1]]

    def degree(self, v: int) -> int:
        return int(self._indptr[v + 1] - self._indptr[v])

    def has_edge(self, u: int, v: int) -> bool:
        # out of range, a compact key would name some other pair
        if not (0 <= u < self.n and 0 <= v < self.n):
            return False
        key = u * self._base + v if u < v else v * self._base + u
        return key in self._edge_keys

    def edges(self) -> Iterator[tuple[int, int]]:
        """Edges as (u, v) with u < v, in edge-id order."""
        return zip(self._edge_u.tolist(), self._edge_v.tolist())

    def packed_edges(self) -> list[int]:
        return ((self._edge_u << _SHIFT) | self._edge_v).tolist()

    def label_of(self, v: int) -> int:
        return self.labels[v] if self.labels is not None else v

    def drop_edges(self, packed_keys: set[int]) -> "Graph":
        """Copy of the graph without the given edges (packed keys)."""
        keep = np.fromiter((key not in packed_keys
                            for key in self.packed_edges()),
                           dtype=bool, count=self.m)
        return Graph(self.n, self._edge_u[keep], self._edge_v[keep],
                     self.labels)

    def masked_keys(self, mask: np.ndarray) -> set[int]:
        """Packed keys of the edges marked in mask, a boolean array over
        edge ids."""
        keys = (self._edge_u[mask] << _SHIFT) | self._edge_v[mask]
        return set(keys.tolist())


# A plain line of a chunk's text (see _chunk_text), from its start: blank,
# or two tokens of at most 18 digits (which always fit int64) between
# blanks, then its "\n" and the "\v" that follows each line but the last,
# or the end of the text.  Lines break at "\n" alone here, so "\r" inside
# a line is a blank.  (An empty alternative, where "?" would do, checks
# big-mfp's file 13% faster on CPython 3.11.)
_TOKEN = r"[+-]?[0-9]{1,18}"
_PLAIN_LINE = (rf"[ \t\r]*(?:{_TOKEN}[ \t\r]+{_TOKEN}[ \t\r]*|)"
               r"(?:\n\v|\n?\Z)")
# Each line is tried once from its start and can backtrack only within
# itself, so a text is checked in linear time and constant memory.  (One
# fullmatch of the whole text would keep state for every line, unless its
# quantifiers were possessive, which needs Python 3.11.)
_PLAIN_FIRST_LINE = re.compile(_PLAIN_LINE)
_NOT_PLAIN_LINE = re.compile(rf"\v(?!{_PLAIN_LINE})")
# a comment stops at a "\v" too, so that it cannot hide where a line
# without a "\n" broke
_COMMENT = re.compile("#[^\n\v]*")


def parse_edge_list(source) -> Graph:
    """Parse a whitespace-separated edge list into a Graph.

    ``source`` may be a str, bytes, an open file (text or binary), or any
    other iterable of str or bytes lines.  ``#`` starts a comment
    (full-line or trailing).  Each remaining line must hold exactly two
    integer tokens.  Duplicate edges in either orientation collapse to
    one; self-loops are dropped but still register the label, so a node
    can exist with degree 0.  Labels are compacted to 0..n-1 in
    first-appearance order.

    str and bytes (decoded as UTF-8) break into lines as
    ``splitlines(keepends=True)`` breaks them, and a file as iterating it
    does.  Lines are read ``_CHUNK_LINES`` at a time.  A chunk is plain
    when its lines broke at each ``"\\n"`` and nowhere else and, once
    comments are removed, every line is blank or holds two tokens of at
    most 18 ASCII digits (with an optional sign) between spaces, tabs or
    ``"\\r"``; such tokens always fit int64.  Plain chunks are parsed
    together in bulk with numpy.  The first chunk that is not plain goes,
    after the plain lines before it and followed by the rest of the
    source, through a loop over the lines, which raises
    ``EdgeListParseError`` with the line number of a malformed line.  Both
    routes give the same graph.  An error raised while reading the source
    is raised after the lines read before it are parsed, so an earlier
    malformed line fails first.

    A path (``os.PathLike``) raises ``TypeError``: open the file and pass
    that.  A str is always the text itself, never a file name.
    """
    if isinstance(source, os.PathLike):
        raise TypeError("parse_edge_list reads a str, bytes, an open file "
                        "or an iterable of lines, not a path: open "
                        f"{os.fspath(source)!r} and pass the file")
    if isinstance(source, bytes):
        source = source.decode("utf-8")
    if isinstance(source, str):
        source = source.splitlines(keepends=True)
    source = iter(source)
    texts: list[str] = []
    while True:
        chunk: list = []
        try:
            chunk.extend(islice(source, _CHUNK_LINES))
        except Exception:
            # a malformed line read before the failure fails first, as it
            # does when the loop reads the source
            _parse_lines(chain(_newline_lines("".join(texts)), chunk))
            raise
        if not chunk:
            text = "".join(texts)
            texts.clear()  # free the chunks' texts before the bulk parse
            return _parse_plain(text)
        # only the source's last line may end without a "\n"
        text = (_chunk_text(chunk) if not texts or texts[-1].endswith("\n")
                else None)
        plain = _plain(text) if text is not None else None
        if plain is None:
            return _parse_lines(chain(_newline_lines("".join(texts)), chunk,
                                      source))
        texts.append(plain)


# Lines read at a time.  Few enough that the line objects are freed and
# their memory reused chunk by chunk: a whole file's lines, held at once,
# left holes among the graph's objects that slowed later work on the graph
# by 3-7% on big-mfp.
_CHUNK_LINES = 4096


def _newline_lines(text: str) -> Iterator[str]:
    """The lines of a text that breaks at each "\n" and nowhere else."""
    return io.StringIO(text, newline="\n")


def _chunk_text(lines: list) -> str | None:
    """The text of a chunk of str lines, or of UTF-8 bytes lines, with a
    "\\v" after each line but the last, if no line holds a "\\v";
    otherwise None.  numpy and the line loop read a "\\v" as a blank, and
    _plain reads it as the place where two lines broke."""
    mark = b"\v" if isinstance(lines[0], bytes) else "\v"
    try:
        text = mark.join(lines)
        if text.count(mark) != len(lines) - 1:
            return None
        return text if isinstance(text, str) else text.decode("utf-8")
    except (TypeError, UnicodeDecodeError):  # mixed str and bytes, say
        return None


def _plain(text: str) -> str | None:
    """A chunk's text (see _chunk_text) without its comments if its lines
    broke at each "\\n" and nowhere else and are then plain, or None."""
    if "#" in text:
        # a comment becomes a blank, not nothing, so that a last line that
        # held only a comment and no "\n" is still a line without a "\n"
        text = _COMMENT.sub(" ", text)
    if (_PLAIN_FIRST_LINE.match(text) is None
            or _NOT_PLAIN_LINE.search(text) is not None):
        return None
    return text


def _parse_plain(text: str) -> Graph:
    """The graph of a plain text without comments, in bulk."""
    if not text or text.isspace():  # fromstring would read blanks as [0]
        return Graph(0, _int64([]), _int64([]), [])
    labels, ids = _first_appearance_ids(
        np.fromstring(text, dtype=np.int64, sep=" "))
    a, b = ids[0::2], ids[1::2]
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    edge = lo != hi
    return Graph(len(labels), lo[edge], hi[edge], labels)


def _first_appearance_ids(tokens: np.ndarray) -> tuple[list[int],
                                                       np.ndarray]:
    """The distinct tokens in first-appearance order, and each token's
    index among them."""
    # an unstable sort is cheaper than np.unique's stable one; each value's
    # first position is the least position in its run of the sorted tokens
    perm = np.argsort(tokens)
    ordered = tokens[perm]
    run_start = np.empty(len(ordered), dtype=bool)
    run_start[0] = True
    np.not_equal(ordered[1:], ordered[:-1], out=run_start[1:])
    starts = np.flatnonzero(run_start)
    order = np.argsort(np.minimum.reduceat(perm, starts))
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    ids = np.empty_like(perm)
    ids[perm] = rank[np.cumsum(run_start) - 1]
    return ordered[starts[order]].tolist(), ids


def _parse_lines(lines: Iterable) -> Graph:
    """The graph of an iterable of str or bytes lines, one at a time."""
    id_map: dict[int, int] = {}
    labels: list[int] = []
    # the ids of each line's two ends, for the lines that are not loops
    ends_a: list[int] = []
    ends_b: list[int] = []
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
        if ia != ib:
            ends_a.append(ia)
            ends_b.append(ib)
    a, b = _int64(ends_a), _int64(ends_b)
    return Graph(len(labels), np.minimum(a, b), np.maximum(a, b), labels)


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
