from __future__ import annotations

import gzip
import io
import random
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import clusterdel.graph
from clusterdel import (
    EdgeListParseError,
    Graph,
    er_graph,
    pack_edge,
    parse_edge_list,
    serialize_edge_list,
)
from clusterdel.pivoting import adjacency_lists
from helpers import brute_force_wedges, edge_ids, edge_mask, unpack_edge
from oracles import enumerate_open_wedges


@given(st.integers(0, 2**31 - 1), st.integers(0, 2**31 - 1))
def test_pack_unpack_roundtrip(u, v):
    if u == v:
        v += 1
    key = pack_edge(u, v)
    assert key == pack_edge(v, u)
    assert unpack_edge(key) == (min(u, v), max(u, v))


def test_parse_collapses_duplicates_and_self_loops():
    g = parse_edge_list("1 2\n2 1\n1 1\n")
    assert g.n == 2
    assert g.m == 1
    assert g.labels == [1, 2]
    assert g.has_edge(0, 1)


def test_parse_self_loop_registers_isolated_node():
    g = parse_edge_list("5 5\n1 2\n")
    assert g.n == 3
    assert g.m == 1
    assert g.label_of(0) == 5
    assert g.degree(0) == 0


def test_parse_comments_and_blank_lines():
    text = "# header\n\n1 2  # trailing\n   \n2 3\n"
    g = parse_edge_list(text)
    assert g.n == 3
    assert g.m == 2


def test_parse_accepts_bytes_and_line_iterables():
    text = "1 2\n2 3\n"
    for source in (text, text.encode(), text.splitlines(), iter(text.splitlines())):
        g = parse_edge_list(source)
        assert (g.n, g.m) == (3, 2)


@pytest.mark.parametrize("text,lineno", [
    ("1 2 3\n", 1),
    ("1 2\n7\n", 2),
    ("1 2\n\na b\n", 3),
    ("1 2.5\n", 1),
])
def test_parse_errors_carry_line_numbers(text, lineno):
    with pytest.raises(EdgeListParseError) as exc:
        parse_edge_list(text)
    assert exc.value.lineno == lineno
    assert f"line {lineno}:" in str(exc.value)


def parse_outcome(source, parse=parse_edge_list):
    """The parsed graph's full state, or the error it raised."""
    try:
        g = parse(source)
    except Exception as exc:
        return type(exc), str(exc), getattr(exc, "lineno", None)
    return (g.n, g.labels, g._edge_u.tolist(), g._edge_v.tolist(),
            list(g._edge_keys), g._indptr.tolist(), g._nbrs.tolist())


# Plain pieces, which the bulk path reads, and odd pieces, which make it
# leave the text to the line loop: 19-digit and out-of-int64 labels,
# underscores, non-ASCII digits, junk, lines of one or three tokens, other
# whitespace and other line breaks, also inside comments.
_TOKENS = ["0", "1", "2", "3", "17", "-4", "+5", "007", "-0", "9" * 18,
           "-" + "9" * 18]
_ODD_TOKENS = ["1" + "0" * 18, str(2**63 - 1), str(2**63), str(-2**63),
               str(-2**63 - 1), "1_000", "\u0661\u0662", "x", "2.5", "+",
               "1-2"]
_BLANKS = [" ", "\t", "  ", " \t"]
_ODD_BLANKS = ["\r", "\x0b", "\x0c", "\x85", "\xa0", "\u3000"]
_BREAKS = ["\n", "\n", "\r\n"]
_ODD_BREAKS = ["\r", "\x0b", "\x0c", "\x1c", "\x85", "\u2028", "\u2029"]
_COMMENTS = ["", "", "", "#", "# header", "#1 2", "\t# caf\xe9"]
_ODD_COMMENTS = ["\n# a\r1 2", "\n#\x0b3 4", "# a\x85b"]


@st.composite
def edge_list_texts(draw):
    """Plain edge-list text (comments and CRLF included) in which up to
    three pieces may be swapped for odd ones."""
    slots = []  # (piece, its odd alternatives)
    for _ in range(draw(st.integers(0, 8))):
        k = draw(st.sampled_from([0, 2, 2, 2]))
        slots.append((draw(st.sampled_from(["", ""] + _BLANKS)),
                      _ODD_BLANKS))
        for i in range(k):
            if i:
                slots.append((draw(st.sampled_from(_BLANKS)), _ODD_BLANKS))
            slots.append((draw(st.sampled_from(_TOKENS)),
                          _ODD_TOKENS + ["", "1 2", "1 2 3"]))
        slots.append((draw(st.sampled_from(["", ""] + _BLANKS)),
                      _ODD_BLANKS))
        slots.append((draw(st.sampled_from(_COMMENTS)), _ODD_COMMENTS))
        slots.append((draw(st.sampled_from(_BREAKS)), _ODD_BREAKS))
    pieces = [piece for piece, _ in slots]
    if slots:
        for i in draw(st.lists(st.integers(0, len(slots) - 1),
                               max_size=3)):
            pieces[i] = draw(st.sampled_from(slots[i][1]))
    text = "".join(pieces)
    if draw(st.booleans()):
        text = text.rstrip("\n")  # no final break
    return text


# Every newline mode of a text file: each breaks lines in its own places.
_NEWLINE_MODES = [None, "", "\n", "\r", "\r\n"]


@settings(max_examples=500, deadline=None)
@given(edge_list_texts(), st.sampled_from([1, 2, 3, 4096]))
@example("", 1)
@example(" \t\n\r\n", 1)
@example("1\r2\n", 1)
@example("1\x0b2\n3\x0c4\x855\u30006\n", 2)
@example("# a\r1 2\n#\x0b3 4\n", 1)
@example("1_000 2\n" + "1" * 19 + " 2\n", 1)
@example("1 2\n3 4\n", 4096)
@example("#\r\n\n0 0\n0 0\n", 1)
@example("1 2\n\x0b3 4\n", 4096)
@example("1\r2\n3 4", 4096)
def test_parse_matches_line_loop_for_every_source_kind(tmp_path_factory,
                                                      text, chunk_lines):
    # the line loop over the source's lines is the reference; sources are
    # read in chunks of chunk_lines lines
    def loop(lines):
        return parse_outcome(lines, clusterdel.graph._parse_lines)

    data = text.encode("utf-8")
    path = tmp_path_factory.getbasetemp() / "edges.txt"
    path.write_bytes(data)
    gz = path.with_suffix(".txt.gz")
    gz.write_bytes(gzip.compress(data))
    makers = [lambda: io.BytesIO(data)]
    for newline in _NEWLINE_MODES:
        makers.append(lambda newline=newline: io.StringIO(text,
                                                          newline=newline))
    for target in (path, gz):
        opener = gzip.open if target == gz else open
        modes = [dict(mode="rt", encoding="utf-8", newline=newline)
                 for newline in _NEWLINE_MODES] + [dict(mode="rb")]
        for mode in modes:
            makers.append(lambda opener=opener, target=target, mode=mode:
                          opener(target, **mode))
    with mock.patch.object(clusterdel.graph, "_CHUNK_LINES", chunk_lines):
        lines = text.splitlines(keepends=True)
        for source in (text, data, lines,
                       iter([line.encode("utf-8") for line in lines])):
            assert parse_outcome(source) == loop(text.splitlines())
        for make in makers:
            with make() as a, make() as b, make() as c:
                expected = loop(list(b))
                assert parse_outcome(a) == expected
                assert parse_outcome(list(c)) == expected


@settings(max_examples=300, deadline=None)
@given(edge_list_texts(), st.lists(st.integers(0, 80), max_size=8),
       st.sampled_from([1, 2, 4096]), st.booleans())
def test_lines_cut_anywhere_parse_as_the_line_loop(text, cuts, chunk_lines,
                                                   as_bytes):
    # lines need not break at line breaks: a line without a "\n" and one
    # holding two must not pass for two lines that broke at each "\n"
    bounds = sorted({0, len(text)} | {min(c, len(text)) for c in cuts})
    lines = [text[a:b] for a, b in zip(bounds, bounds[1:])]
    if as_bytes:
        lines = [line.encode("utf-8") for line in lines]
    with mock.patch.object(clusterdel.graph, "_CHUNK_LINES", chunk_lines):
        assert parse_outcome(lines) == parse_outcome(
            lines, clusterdel.graph._parse_lines)


@pytest.mark.parametrize("chunk_lines", [1, 2, 4096])
@pytest.mark.parametrize("lines", [
    ["1 2 # x", "3 4\n\n"], ["1 2", "\n3 4\n"], ["1 2\n3 4\n"],
    ["1", " 2\n"], ["1 2\n", b"3 4\n"], [b"1 2\n", "3 4\n"],
    ["1 2\n", "3 \x00\n"], ["1 2\n\x003 4\n", "5 6"], [b"1 2\n", b"\xff"],
    ["1 2\n", "# c", "3 4\n", "5\n"], ["# c", "\n5\n"],
    ["1 2\n\x0b3 4\n"], [b"1 2\n\x0b3 4\n"], ["1 2 #\x0b", "3 4\n"],
])
def test_lines_that_are_not_newline_broken_take_the_line_loop(lines,
                                                             chunk_lines):
    with mock.patch.object(clusterdel.graph, "_CHUNK_LINES", chunk_lines):
        assert parse_outcome(lines) == parse_outcome(
            lines, clusterdel.graph._parse_lines)


def test_files_are_read_in_chunks_of_lines():
    # a file longer than one chunk, plain or with an odd line in any chunk
    lines = [f"{i} {i + 1}\n" for i in range(3 * 4096 + 5)]
    for odd in (None, 0, 4095, 4096, 9000, len(lines) - 1):
        text = "".join(lines if odd is None else
                       lines[:odd] + ["1 2 3\n"] + lines[odd:])
        for source in (io.StringIO(text), io.BytesIO(text.encode())):
            expected = parse_outcome(text.splitlines())
            assert parse_outcome(source) == expected


def test_only_the_first_chunk_is_checked_before_a_non_plain_line(
        monkeypatch):
    # a 19-digit label on the first line sends the file to the line loop
    # without the rest of it being read as text first
    lines = ["1000000000000000000 1\n"] + [f"{i} {i + 1}\n"
                                         for i in range(3 * 4096)]
    text = "".join(lines)
    checked = []  # the number of lines in each text checked
    plain = clusterdel.graph._plain
    monkeypatch.setattr(clusterdel.graph, "_plain", lambda text: (
        checked.append(text.count("\n")) or plain(text)))
    expected = parse_outcome(lines, clusterdel.graph._parse_lines)
    for source in (io.StringIO(text), io.BytesIO(text.encode())):
        checked.clear()
        assert parse_outcome(source) == expected
        assert sum(checked) <= 4096


@pytest.mark.parametrize("chunk_lines", [1, 2, 4096])
def test_read_error_after_a_malformed_line_fails_at_that_line(chunk_lines):
    def lines(malformed):
        yield "1 2\n"
        yield "1 2 3\n" if malformed else "2 3\n"
        raise OSError("read failed")

    with mock.patch.object(clusterdel.graph, "_CHUNK_LINES", chunk_lines):
        with pytest.raises(EdgeListParseError) as exc:
            parse_edge_list(lines(malformed=True))
        assert exc.value.lineno == 2
        with pytest.raises(OSError, match="read failed"):
            parse_edge_list(lines(malformed=False))


@pytest.mark.parametrize("data", [
    b"1 2\n3 \xff\n", b"1 2 3\n\xff\n", b"1 2\n# caf\xe9\n", b"1 2\n# caf\xe9",
    b"1 2\r# \xe9\r\n3 4",
])
def test_undecodable_stream_fails_as_its_lines_do(data):
    assert parse_outcome(io.BytesIO(data)) == parse_outcome(
        list(io.BytesIO(data)))


def test_malformed_line_fails_before_later_undecodable_bytes(tmp_path):
    # a text file decodes in chunks: the loop met the bad line first
    path = tmp_path / "edges.txt"
    path.write_bytes(b"1 2 3\n" + b"4 5\n" * 5000 + b"\xff\n")
    with open(path, encoding="utf-8") as fh, pytest.raises(
            EdgeListParseError) as exc:
        parse_edge_list(fh)
    assert exc.value.lineno == 1


def test_parser_patterns_compile_on_python_3_10():
    # possessive quantifiers and atomic groups need Python 3.11
    patterns = [value.pattern for value in vars(clusterdel.graph).values()
                if isinstance(value, re.Pattern)]
    assert patterns
    for pattern in patterns:
        assert not re.search(r"[*+?}]\+|\(\?>", pattern), pattern


def test_plain_and_snap_text_take_the_bulk_path(monkeypatch, tmp_path):
    def no_line_loop(lines):
        raise AssertionError("fell back to the line loop")

    monkeypatch.setattr(clusterdel.graph, "_parse_lines", no_line_loop)
    plain = "1 2\n2 3\n-7 +008\n\n3\t1\r\n"
    snap = ("# Undirected graph: example.txt\n"
            "# Nodes: 4 Edges: 4\n"
            "# FromNodeId\tToNodeId\n"
            "1\t2\n2\t3\n3\t1\n1\t2\n4\t4  # self-loop\n")
    path = tmp_path / "snap.txt"
    path.write_text(snap)
    for text, labels, m in ((plain, [1, 2, 3, -7, 8], 4),
                            (snap, [1, 2, 3, 4], 3)):
        lines = text.splitlines(keepends=True)
        for source in (text, text.encode(), io.StringIO(text),
                       io.BytesIO(text.encode()), lines, iter(lines),
                       [line.encode() for line in lines]):
            g = parse_edge_list(source)
            assert (g.labels, g.m) == (labels, m)
    with open(path, encoding="utf-8") as fh:
        g = parse_edge_list(fh)
    assert (g.labels, g.m) == ([1, 2, 3, 4], 3)


def test_labels_compact_in_first_appearance_order():
    g = parse_edge_list("10 30\n20 10\n")
    assert g.labels == [10, 30, 20]
    assert g.label_of(2) == 20


def test_from_edges_rejects_out_of_range():
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(0, 3)])
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(-1, 0)])


def test_from_edges_drops_self_loops_and_duplicates():
    g = Graph.from_edges(4, [(0, 1), (1, 0), (2, 2), (1, 2)])
    assert g.m == 2
    assert not g.has_edge(2, 2)


def test_adjacency_accessors():
    g = Graph.from_edges(5, [(0, 1), (0, 3), (0, 2), (2, 3)])
    assert g.neighbors(0).tolist() == [1, 2, 3]
    assert g.degree(0) == 3
    assert g.degree(4) == 0
    assert g.has_edge(3, 0)
    assert not g.has_edge(1, 2)
    assert list(g.edges()) == [(0, 1), (0, 3), (0, 2), (2, 3)]


@pytest.mark.parametrize("edges", [[(0, 1), (1, 2), (2, 3)], []])
def test_graph_arrays_are_read_only(edges):
    g = Graph.from_edges(4, edges)
    for arr in (g._edge_u, g._edge_v, g._indptr, g._nbrs, g._slot_eid):
        assert not arr.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        g.neighbors(1)[:1] = 3
    if edges:
        assert g.neighbors(1).tolist() == [0, 2]
        assert g.has_edge(1, 0)


def test_edge_ids_follow_first_appearance():
    g = Graph.from_edges(4, [(2, 3), (0, 1), (3, 2)])
    ids = edge_ids(g)
    assert ids[pack_edge(2, 3)] == 0
    assert ids[pack_edge(1, 0)] == 1
    assert pack_edge(0, 2) not in g._edge_keys
    assert g.packed_edges() == [pack_edge(2, 3), pack_edge(0, 1)]


def assert_key_index_is_packed_edges(g):
    # the index holds each edge's key once, in edge-id order, and no other
    assert list(g._edge_keys) == g.packed_edges()


@pytest.mark.parametrize("seed", range(6))
def test_key_index_holds_exactly_the_edges(seed):
    rng = random.Random(seed)
    n = rng.randrange(1, 30)
    pairs = [(rng.randrange(n), rng.randrange(n))
             for _ in range(rng.randrange(0, 3 * n))]
    text = "".join(f"{100 + u} {100 + v}\n" for u, v in pairs)
    for g in (parse_edge_list(text), Graph.from_edges(n, pairs)):
        assert_key_index_is_packed_edges(g)
        keys = g.packed_edges()
        for drop in (set(), set(keys), set(keys[::3]),
                     set(keys[1::2]) | {pack_edge(n, n + 1)}):
            assert_key_index_is_packed_edges(g.drop_edges(drop))


def assert_slots_name_their_edges(g):
    # slot s of row v holds neighbour _nbrs[s] over edge _slot_eid[s]
    ends = [{u, v} for u, v in g.edges()]
    assert len(g._slot_eid) == 2 * g.m
    for v in range(g.n):
        for s in range(g._indptr[v], g._indptr[v + 1]):
            assert ends[g._slot_eid[s]] == {v, int(g._nbrs[s])}


@pytest.mark.parametrize("seed", range(6))
def test_slot_edge_ids_name_the_slot_edges(seed):
    rng = random.Random(seed)
    n = rng.randrange(1, 30)
    pairs = [(rng.randrange(n), rng.randrange(n))
             for _ in range(rng.randrange(0, 3 * n))]
    text = "".join(f"{100 + u} {100 + v}\n" for u, v in pairs)
    # in bulk, line by line, from explicit edges with two isolated nodes,
    # and without edges
    for g in (parse_edge_list(text), parse_edge_list(text.splitlines()),
              Graph.from_edges(n + 2, pairs), Graph.from_edges(n, [])):
        assert_slots_name_their_edges(g)
        for keep in (np.array([rng.random() < 0.6 for _ in range(g.m)],
                              dtype=bool),
                     np.ones(g.m, dtype=bool), np.zeros(g.m, dtype=bool)):
            copy = g.drop_edges(g.masked_keys(~keep))
            assert_slots_name_their_edges(copy)
            # the lists read through the mask are the copy's rows
            assert adjacency_lists(g, keep) == [
                copy.neighbors(v).tolist() for v in range(g.n)]


def test_drop_edges_returns_pruned_copy():
    g = parse_edge_list("1 2\n2 3\n3 1\n")
    g2 = g.drop_edges({pack_edge(0, 1)})
    assert g2.m == 2 and g.m == 3
    assert not g2.has_edge(0, 1)
    assert g2.has_edge(1, 2) and g2.has_edge(0, 2)
    assert g2.labels == g.labels


def drop_edges_by_comprehension(g, packed_keys):
    """The loop drop_edges replaced, kept as its reference: the keys come
    from the edge arrays, not the key index."""
    keep = [key for key in g.packed_edges() if key not in packed_keys]
    return Graph(g.n, dict.fromkeys(keep), g.labels)


@pytest.mark.parametrize("seed", range(12))
def test_drop_edges_matches_comprehension(seed):
    rng = random.Random(seed)
    g = er_graph(rng.randrange(1, 40), rng.choice((0.1, 0.3, 0.6)),
                 seed=seed)
    keys = g.packed_edges()
    absent = [pack_edge(u, v) for u in range(g.n + 2)
              for v in range(u + 1, g.n + 2) if not g.has_edge(u, v)]
    for drop in (set(), set(keys), set(rng.sample(keys, len(keys) // 3)),
                 set(rng.sample(absent, min(5, len(absent))))
                 | set(keys[::4])):
        got = g.drop_edges(drop)
        want = drop_edges_by_comprehension(g, drop)
        assert (got.n, got.labels) == (g.n, g.labels)
        assert got.packed_edges() == want.packed_edges()
        assert_key_index_is_packed_edges(got)
        assert all(got.neighbors(v).tolist() == want.neighbors(v).tolist()
                   for v in range(g.n))
        # masked_keys inverts edge_mask on the keys of present edges
        assert g.masked_keys(edge_mask(g, drop)) == drop & set(keys)


@pytest.mark.parametrize("seed", range(8))
def test_serialize_roundtrip_preserves_ids(seed):
    g = er_graph(12, 0.3, seed=seed)
    g2 = parse_edge_list(serialize_edge_list(g))
    assert g2.n == g.n and g2.m == g.m
    assert [g2.label_of(v) for v in range(g2.n)] == list(range(g.n))
    assert g2.packed_edges() == g.packed_edges()


def test_serialize_roundtrip_keeps_isolated_nodes():
    g = parse_edge_list("7 7\n1 2\n")
    g2 = parse_edge_list(serialize_edge_list(g))
    assert g2.n == 3
    assert g2.labels == g.labels


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 16), st.floats(0.0, 1.0), st.integers(0, 10**6))
def test_wedge_enumeration_matches_brute_force(n, p, seed):
    g = er_graph(n, p, seed=seed)
    seen: list[tuple[int, int, int]] = []
    count = enumerate_open_wedges(g, lambda i, j, k: seen.append((i, j, k)))
    assert count == len(seen)
    assert seen == brute_force_wedges(g)


def test_wedge_enumeration_canonical_form():
    g = Graph.from_edges(3, [(0, 1), (1, 2)])
    triples: list[tuple[int, int, int]] = []
    enumerate_open_wedges(g, lambda i, j, k: triples.append((i, j, k)))
    assert triples == [(0, 2, 1)]


def test_empty_graph_edge_cases():
    g = Graph.from_edges(0, [])
    assert g.n == 0 and g.m == 0
    assert enumerate_open_wedges(g) == 0
    assert serialize_edge_list(g) == ""
    g1 = parse_edge_list("")
    assert g1.n == 0 and g1.m == 0
