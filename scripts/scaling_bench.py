#!/usr/bin/env python3
"""Scaling benchmark for the fast matcher, the combinatorial LP, the
pivot strategies, cluster merging and the whole mfp pipeline.

Prints one CSV row per instance: stage, n, m, problem size, wall seconds,
resident-memory delta in MiB.  The problem size is the matched wedge
count for the matcher and for mfp, edges plus open wedges for the LP,
the stripped graph's edge count for the pivot rows, and the number of
clusters fed to the merge.  The pivot and merge rows run on the graph
left after the fast matcher's weak edges are stripped, as the mfp
pipeline does; the random pivot uses --seed, and the merge input is the
degree-pivot clustering.  The mfp row times one whole match_flip_pivot
call with the degree strategy: matcher, strip, pivot and scoring.
Sizes default to a quick sweep; --big adds the acceptance-scale
instances (m around 10^6 for the matcher, and edges plus open wedges
around half a million for the LP).
"""
from __future__ import annotations

import argparse
import gc
import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from clusterdel import (  # noqa: E402
    PivotStrategy,
    er_graph,
    match_flip_pivot,
    maximal_wedge_set_fast,
    merge_clusters,
    pivot,
    solve_stc_lp,
)

MATCHER_SWEEP = [(2_000, 0.01), (5_000, 0.008), (10_000, 0.006)]
MATCHER_BIG = [(20_000, 0.005)]
LP_SWEEP = [(30_000, 1.5 / 30_000), (100_000, 1.5 / 100_000)]
LP_BIG = [(260_000, 1.5 / 260_000)]
PIVOT_MERGE = [(2_000, 0.01), (5_000, 0.004)]


def rss_bytes() -> int:
    try:
        import psutil
        return psutil.Process().memory_info().rss
    except ImportError:
        import resource
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


def bench_matcher(n: int, p: float, seed: int) -> None:
    gc.collect()
    before = rss_bytes()
    g = er_graph(n, p, seed=seed)
    t0 = perf_counter()
    ws = maximal_wedge_set_fast(g)
    elapsed = perf_counter() - t0
    delta = (rss_bytes() - before) / 2**20
    print(f"matcher,{g.n},{g.m},{len(ws.wedges)},{elapsed:.3f},{delta:.0f}")


def open_wedges(g) -> int:
    """Number of open wedges: pairs of a node's neighbours that are not
    adjacent."""
    count = 0
    for k in range(g.n):
        nbrs = g.neighbors(k).tolist()
        for i, a in enumerate(nbrs):
            count += sum(not g.has_edge(a, b) for b in nbrs[i + 1:])
    return count


def bench_lp(n: int, p: float, seed: int) -> None:
    gc.collect()
    before = rss_bytes()
    g = er_graph(n, p, seed=seed)
    size = g.m + open_wedges(g)
    t0 = perf_counter()
    sol = solve_stc_lp(g)
    elapsed = perf_counter() - t0
    delta = (rss_bytes() - before) / 2**20
    print(f"lp,{g.n},{g.m},{size},{elapsed:.3f},{delta:.0f}")
    assert sol.objective_half_units >= 0


def timed(fn, *args):
    """(result, wall seconds, resident-memory delta in MiB) of one call."""
    gc.collect()
    before = rss_bytes()
    t0 = perf_counter()
    out = fn(*args)
    elapsed = perf_counter() - t0
    return out, elapsed, (rss_bytes() - before) / 2**20


def bench_pivot_and_merge(n: int, p: float, seed: int) -> None:
    g = er_graph(n, p, seed=seed)
    ghat = g.drop_edges(maximal_wedge_set_fast(g).weak_edges)
    for stage, strategy in (("pivot-degree", PivotStrategy.degree()),
                            ("pivot-ratio", PivotStrategy.ratio()),
                            ("pivot-random", PivotStrategy.random(seed))):
        _, elapsed, delta = timed(pivot, ghat, strategy)
        print(f"{stage},{g.n},{g.m},{ghat.m},{elapsed:.3f},{delta:.0f}")
    clustering, _ = pivot(ghat, PivotStrategy.degree())
    _, elapsed, delta = timed(merge_clusters, g, clustering)
    print(f"merge,{g.n},{g.m},{clustering.num_clusters},{elapsed:.3f},"
          f"{delta:.0f}")
    res, elapsed, delta = timed(match_flip_pivot, g, PivotStrategy.degree())
    print(f"mfp,{g.n},{g.m},{res.wedges},{elapsed:.3f},{delta:.0f}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--big", action="store_true",
                    help="include the acceptance-scale instances")
    ap.add_argument("--seed", type=int, default=42)
    args = ap.parse_args()
    print("stage,n,m,size,seconds,rss_delta_mib")
    for n, p in MATCHER_SWEEP + (MATCHER_BIG if args.big else []):
        bench_matcher(n, p, args.seed)
    for n, p in LP_SWEEP + (LP_BIG if args.big else []):
        bench_lp(n, p, args.seed)
    for n, p in PIVOT_MERGE:
        bench_pivot_and_merge(n, p, args.seed)
    return 0


if __name__ == "__main__":
    sys.exit(main())
