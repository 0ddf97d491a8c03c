"""Undirected simple graphs backed by CSR adjacency arrays.

Graphs are read from whitespace-separated edge lists (SNAP style) or built
from explicit edge iterables.  A plain edge list in a str, bytes or open
file, whose lines are blank or hold two integers of at most 18 digits once
``#`` comments are removed, is parsed in bulk with numpy; any other text,
and any other iterable of lines, is parsed one line at a time to the same
graph.  Node labels are compacted
to dense internal ids in first-appearance order; original labels are kept
so clusterings can be written back in terms of the input file.  An edge's
id is its position 0..m-1 in first-appearance order, which indexes
per-edge arrays such as relaxation values and weak masks; each CSR slot
records the id of its edge.  A graph is built from its key index, a dict
of packed endpoint pairs in edge-id order, which it keeps to answer
membership for the wedge matcher and ``has_edge``.
"""

from __future__ import annotations

import io
import re
from itertools import chain, islice
from typing import Iterable, Iterator

import numpy as np

_SHIFT = 32
_MASK = (1 << _SHIFT) - 1


def pack_edge(u: int, v: int) -> int:
    """Canonical integer key for the unordered pair {u, v}."""
    return (u << _SHIFT) | v if u < v else (v << _SHIFT) | u


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
    whose nodes are already dense ints.
    """

    __slots__ = ("n", "m", "labels", "_indptr", "_nbrs", "_slot_eid",
                 "_edge_u", "_edge_v", "_edge_keys")

    def __init__(self, n: int, edge_keys: dict[int, None],
                 labels: list[int] | None = None):
        # edge_keys holds each edge's packed key (canonical, self-loop
        # free), in edge-id order; the graph takes ownership of it as its
        # key index.  Use from_edges/parse_edge_list.
        self.n = n
        self.m = len(edge_keys)
        self.labels = labels
        self._edge_keys = edge_keys
        keys = np.fromiter(edge_keys, dtype=np.int64, count=self.m)
        self._edge_u = keys >> _SHIFT
        self._edge_v = keys & _MASK
        self._indptr = np.zeros(n + 1, dtype=np.int64)
        if self.m:
            rows = np.concatenate([self._edge_u, self._edge_v])
            cols = np.concatenate([self._edge_v, self._edge_u])
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
        return cls(n, seen, labels)

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
        return Graph(self.n, {key: None for key in self._edge_keys
                              if key not in packed_keys}, self.labels)

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

    def masked_keys(self, mask: np.ndarray) -> set[int]:
        """Packed keys of the edges marked in mask: inverts edge_mask."""
        keys = (self._edge_u[mask] << _SHIFT) | self._edge_v[mask]
        return set(keys.tolist())


# A plain line, from its start: blank, or two tokens of at most 18 digits
# (which always fit int64) between blanks.  The bulk path reads text whose
# lines break at "\n" alone, so "\r" inside a line is a blank.
_TOKEN = r"[+-]?[0-9]{1,18}"
_PLAIN_LINE = rf"[ \t\r]*(?:{_TOKEN}[ \t\r]+{_TOKEN}[ \t\r]*)?(?:\n|\Z)"
# Each line is tried once from its start and can backtrack only within
# itself, so a text is checked in linear time and constant memory.  (One
# fullmatch of the whole text would keep state for every line, unless its
# quantifiers were possessive, which needs Python 3.11.)
_PLAIN_FIRST_LINE = re.compile(_PLAIN_LINE)
_NOT_PLAIN_LINE = re.compile(rf"\n(?!{_PLAIN_LINE})")
_COMMENT = re.compile("#[^\n]*")


def parse_edge_list(source) -> Graph:
    """Parse a whitespace-separated edge list into a Graph.

    ``source`` may be a str, bytes, an open file (an ``io.IOBase``, text
    or binary), or any other iterable of lines.  ``#`` starts a comment
    (full-line or trailing).  Each remaining line must hold exactly two
    integer tokens.  Duplicate edges in either orientation collapse to
    one; self-loops are dropped but still register the label, so a node
    can exist with degree 0.  Labels are compacted to 0..n-1 in
    first-appearance order.

    str and bytes (decoded as UTF-8) break into lines as ``splitlines()``
    breaks them, and a file as iterating it does.  Plain text, where every
    line is blank or holds two tokens of at most 18 ASCII digits (with an
    optional sign) between spaces, tabs or ``"\\r"``, is parsed in bulk
    with numpy: such tokens always fit int64.  A file takes this path only
    when its lines broke at every ``"\\n"`` and nowhere else.  Anything
    else, and every iterable that is not a file, goes through a loop over
    the lines, which raises ``EdgeListParseError`` with the line number of
    a malformed line.  Both routes give the same graph.
    """
    if isinstance(source, bytes):
        source = source.decode("utf-8")
    if isinstance(source, str):
        plain = _plain("\n".join(source.splitlines()))
        return (_parse_plain(plain) if plain is not None
                else _parse_lines(source.splitlines()))
    if not isinstance(source, io.IOBase):
        return _parse_lines(source)
    text, lines = _read_file(source)
    plain = _plain(text) if text is not None else None
    if plain is not None:
        return _parse_plain(plain)
    return _parse_lines(lines if text is None else _newline_lines(text))


# Lines read from a file at a time.  Few enough that the line objects are
# freed and their memory reused chunk by chunk: a whole file's lines, held
# at once, left holes among the graph's objects that slowed later work on
# the graph by 3-7% on big-mfp.
_CHUNK_LINES = 4096


def _read_file(source) -> tuple[str | None, Iterable | None]:
    """Read an open file by iterating it, so that its lines break where
    its newline mode breaks them.  Returns its text if every chunk of
    lines broke at each "\n" and nowhere else, else None and its lines,
    the rest of them still unread."""
    texts: list[str] = []
    while True:
        chunk: list = []
        try:
            chunk.extend(islice(source, _CHUNK_LINES))
        except UnicodeDecodeError:
            # a malformed line read before the bad bytes fails first, as
            # it did when the loop iterated the file
            _parse_lines(chain(_newline_lines("".join(texts)), chunk))
            raise
        if not chunk:
            return "".join(texts), None
        text = _file_text(chunk)
        # only the file's last line may end without a "\n"
        if text is None or (texts and not texts[-1].endswith("\n")):
            return None, chain(_newline_lines("".join(texts)), chunk, source)
        texts.append(text)


def _newline_lines(text: str) -> Iterator[str]:
    """The lines of a text that breaks at each "\n" and nowhere else."""
    return io.StringIO(text, newline="\n")


def _file_text(lines: list) -> str | None:
    """The text of lines read from a file if they are UTF-8 and broke at
    every "\n" and nowhere else, or None."""
    if lines and isinstance(lines[0], bytes):
        # a binary file breaks lines after b"\n" alone
        try:
            return b"".join(lines).decode("utf-8")
        except UnicodeDecodeError:
            return None
    text = "".join(lines)
    # a text file breaks lines after "\n", or after "\r" in some newline
    # modes, or not at all; so it broke at every "\n" and nowhere else when
    # it broke as often as text holds a "\n", and either text holds no
    # "\r" or every line but the last ends in "\n"
    if (text.count("\n") == len(lines) - (not text.endswith("\n"))
            and ("\r" not in text
                 or all(line.endswith("\n") for line in lines[:-1]))):
        return text
    return None


def _plain(text: str) -> str | None:
    """text without its comments if it is then plain, or None."""
    if "#" in text:
        text = _COMMENT.sub("", text)
    if (_PLAIN_FIRST_LINE.match(text) is None
            or _NOT_PLAIN_LINE.search(text) is not None):
        return None
    return text


def _parse_plain(text: str) -> Graph:
    """The graph of a plain text without comments, in bulk."""
    if not text or text.isspace():  # fromstring would read blanks as [0]
        return Graph(0, {}, [])
    labels, ids = _first_appearance_ids(
        np.fromstring(text, dtype=np.int64, sep=" "))
    a, b = ids[0::2], ids[1::2]
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    keys = ((lo << _SHIFT) | hi)[lo != hi]
    # the dict keeps each edge at its first appearance
    return Graph(len(labels), dict.fromkeys(keys.tolist()), labels)


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
    return Graph(len(labels), seen, labels)


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
