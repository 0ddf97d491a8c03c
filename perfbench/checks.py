"""Output checks made apart from the program.

Everything here is rebuilt from the edge-list file with numpy and scipy;
nothing reuses the program's ``Graph`` or its wedge code.  A program
result is read only for what it claims: its clusters (mapped back to
file labels), its deletion count, its certified lower bound, its weak
edges and, for the relaxation, its value.  Every check raises
``CheckFailed`` with the first counterexample it finds.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

# Upper limit on the neighbour pairs enumerated for the relaxation value;
# beyond it the value is not recomputed and the LP checks are skipped.
MAX_LP_PAIRS = 4_000_000
_CHUNK_PAIRS = 1_000_000


class CheckFailed(Exception):
    """A program output failed an independent check."""


class EdgeIndex:
    """The input graph as read from its edge-list file.

    Nodes are the distinct labels in sorted order; edges are stored once,
    as sorted keys ``u * n + v`` over node indices with u < v.
    """

    def __init__(self, edges: np.ndarray):
        self.labels, inverse = np.unique(edges, return_inverse=True)
        self.n = len(self.labels)
        pairs = inverse.reshape(-1, 2)
        keys = np.unique(pairs.min(axis=1) * self.n + pairs.max(axis=1))
        self.keys = keys
        self.u = keys // self.n
        self.v = keys % self.n

    @classmethod
    def from_file(cls, path) -> "EdgeIndex":
        return cls(np.loadtxt(path, dtype=np.int64, ndmin=2))

    @property
    def m(self) -> int:
        return len(self.keys)

    def nodes_of(self, labels: np.ndarray) -> np.ndarray:
        """Node indices of file labels; CheckFailed on a foreign label."""
        idx = np.searchsorted(self.labels, labels)
        idx[idx == self.n] = 0
        bad = self.labels[idx] != labels
        if bad.any():
            raise CheckFailed(f"label {labels[bad][0]} is not in the input")
        return idx

    def edge_positions(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Position of edge {a, b} in ``keys``, or -1 where it is absent."""
        keys = np.minimum(a, b) * self.n + np.maximum(a, b)
        pos = np.searchsorted(self.keys, keys)
        pos[pos == self.m] = 0
        return np.where(self.keys[pos] == keys, pos, -1)


def neighbour_pairs(n: int, u: np.ndarray, v: np.ndarray
                    ) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Every (a, b, c) with a, b distinct neighbours of c, in chunks.

    Centres of equal degree are handled together as one rectangular block
    of neighbour rows, so the work is vectorised.
    """
    src = np.concatenate([u, v])
    dst = np.concatenate([v, u])
    order = np.lexsort((dst, src))
    src, dst = src[order], dst[order]
    deg = np.bincount(src, minlength=n)
    start = np.concatenate([[0], np.cumsum(deg)[:-1]])
    for d in np.unique(deg[deg >= 2]):
        ia, ib = np.triu_indices(int(d), k=1)
        centres = np.flatnonzero(deg == d)
        step = max(1, _CHUNK_PAIRS // len(ia))
        for lo in range(0, len(centres), step):
            block = centres[lo:lo + step]
            rows = dst[start[block][:, None] + np.arange(d)]
            yield (rows[:, ia].ravel(), rows[:, ib].ravel(),
                   np.repeat(block, len(ia)))


def pair_count(index: EdgeIndex) -> int:
    deg = np.bincount(np.concatenate([index.u, index.v]), minlength=index.n)
    return int((deg * (deg - 1) // 2).sum())


def check_clustering(index: EdgeIndex, clusters: list[np.ndarray]) -> int:
    """Check that the clusters (file labels) partition the input's nodes
    into cliques of the input; return the deletions, recounted."""
    sizes = np.array([len(c) for c in clusters], dtype=np.int64)
    nodes = index.nodes_of(np.concatenate(clusters))
    if len(nodes) != index.n or (np.bincount(nodes, minlength=index.n)
                                 != 1).any():
        raise CheckFailed("clusters do not partition the input's nodes")
    cid = np.empty(index.n, dtype=np.int64)
    cid[nodes] = np.repeat(np.arange(len(clusters)), sizes)
    inside = int((cid[index.u] == cid[index.v]).sum())
    if inside != int((sizes * (sizes - 1) // 2).sum()):
        raise CheckFailed("a cluster is not a clique of the input")
    return index.m - inside


def check_weak_set(index: EdgeIndex, weak: np.ndarray) -> None:
    """Check that the weak edges (file-label pairs, shape (k, 2)) are
    input edges and that, without them, the strong neighbours of every
    node are pairwise adjacent."""
    a, b = index.nodes_of(weak[:, 0]), index.nodes_of(weak[:, 1])
    pos = index.edge_positions(a, b)
    if (pos < 0).any():
        raise CheckFailed("a weak edge is not an input edge")
    strong = np.ones(index.m, dtype=bool)
    strong[pos] = False
    for x, y, c in neighbour_pairs(index.n, index.u[strong],
                                   index.v[strong]):
        open_ = index.edge_positions(x, y) < 0
        if open_.any():
            i = int(np.flatnonzero(open_)[0])
            raise CheckFailed(
                f"open wedge with two strong legs at centre "
                f"{index.labels[c[i]]}: the weak set is not maximal")


def relaxation_value(index: EdgeIndex) -> int | None:
    """Optimal value, in half-units, of the half-integral STC relaxation.

    By Konig's theorem it equals a maximum matching in the bipartite graph
    with one left and one right copy of every edge, and an arc from each
    leg of an open wedge to the other leg.  Returns None when the input
    has more than MAX_LP_PAIRS neighbour pairs.
    """
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import maximum_bipartite_matching

    if pair_count(index) > MAX_LP_PAIRS:
        return None
    rows, cols = [], []
    for a, b, c in neighbour_pairs(index.n, index.u, index.v):
        open_ = index.edge_positions(a, b) < 0
        leg1 = index.edge_positions(a[open_], c[open_])
        leg2 = index.edge_positions(b[open_], c[open_])
        rows += [leg1, leg2]
        cols += [leg2, leg1]
    m = index.m
    if not rows:
        return 0
    r = np.concatenate(rows)
    graph = csr_matrix((np.ones(len(r), dtype=np.int8),
                        (r, np.concatenate(cols))), shape=(m, m))
    return int((maximum_bipartite_matching(graph, perm_type="column")
                >= 0).sum())


def check_result(index: EdgeIndex, labels: np.ndarray, result,
                 lp_value: int | None) -> int:
    """Check one pipeline result against the input; return its recounted
    deletions.  ``labels`` maps the program's node ids to file labels."""
    clusters = [labels[np.asarray(c, dtype=np.int64)]
                for c in result.clustering.clusters]
    deletions = check_clustering(index, clusters)
    if deletions != result.deletions:
        raise CheckFailed(f"{result.deletions} deletions reported, "
                          f"{deletions} recounted")
    bound = result.lower_bound_half_units
    if not bound <= 2 * deletions <= 3 * bound:
        raise CheckFailed(f"ratio {2 * deletions}/{bound} outside [1, 3]")
    if lp_value is not None:
        if result.algorithm == "stclp":
            if result.lp_value_half_units != lp_value:
                raise CheckFailed(
                    f"relaxation value {result.lp_value_half_units}, "
                    f"maximum matching {lp_value}")
        elif 2 * result.wedges > lp_value:
            raise CheckFailed(f"2|W| = {2 * result.wedges} exceeds the "
                              f"relaxation value {lp_value}")
    return deletions


def weak_label_pairs(weak_set: set[int], labels: np.ndarray) -> np.ndarray:
    """File-label pairs of a result's weak set (packed id pairs)."""
    keys = np.fromiter(weak_set, dtype=np.int64, count=len(weak_set))
    return np.stack([labels[keys >> 32], labels[keys & 0xFFFFFFFF]], axis=1)
