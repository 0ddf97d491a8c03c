"""Graph generators: the tight lower-bound family and Erdos-Renyi graphs."""

from __future__ import annotations

import math
import random

from .graph import Graph


def tight_instance(n: int) -> Graph:
    """Clique-with-pendants family on which the matching bound is tight.

    For even n >= 8: a clique on q = n/2 nodes 0..q-1, plus a pendant node
    q+i attached to each clique node i.  The optimum deletes the q pendant
    edges.  Pairing each clique-cycle edge (i, i+1 mod q) with the pendant
    edge of i+1 gives q edge-disjoint open wedges, a maximal set on which
    greedy rounding deletes 3n/2 - 4 edges no matter how pivots are chosen.
    """
    if n < 8 or n % 2:
        raise ValueError("n must be even and at least 8")
    q = n // 2
    edges = [(i, j) for i in range(q) for j in range(i + 1, q)]
    edges += [(i, q + i) for i in range(q)]
    return Graph.from_edges(n, edges)


def er_graph(n: int, p: float, seed: int) -> Graph:
    """G(n, p) sampled with geometric skips, O(n + m) time."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    edges: list[tuple[int, int]] = []
    total = n * (n - 1) // 2
    if p >= 1.0:
        edges = [(u, v) for u in range(n) for v in range(u + 1, n)]
    elif p > 0.0 and total > 0:
        rng = random.Random(seed)
        log_q = math.log1p(-p)
        idx = -1
        row = 0
        row_start = 0
        row_len = n - 1
        while True:
            skip = math.log(1.0 - rng.random()) / log_q
            if skip >= total:  # also catches inf when p underflows log1p
                break
            idx += 1 + int(skip)
            if idx >= total:
                break
            while idx >= row_start + row_len:
                row += 1
                row_start += row_len
                row_len -= 1
            edges.append((row, row + 1 + (idx - row_start)))
    return Graph.from_edges(n, edges)
