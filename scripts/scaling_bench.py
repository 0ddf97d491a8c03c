#!/usr/bin/env python3
"""Scaling benchmark for the fast matcher, the combinatorial LP, the
pivot strategies, cluster merging and the whole mfp pipeline.

Prints one CSV row per instance: stage, n, m, problem size, wall seconds,
and the change in current resident memory in MiB.  The problem size is
the matched wedge count for the matcher and for mfp, edges plus open
wedges for the LP, the number of edges kept after the strip for the
adjacency and pivot rows, and the number of clusters fed to the merge.
These rows strip and pivot as the mfp pipeline does: the adjacency row
times ``adjacency_lists``, which reads the kept edges' lists off the
input graph through the fast matcher's weak mask, and each pivot row
times ``pivot_lists`` on those lists; the random pivot uses --seed, and
the merge input is the degree-pivot clustering.  The mfp row times one
whole match_flip_pivot call with the degree strategy: matcher, strip,
pivot and scoring.
Sizes default to a quick sweep; --big adds the acceptance-scale
instances (m around 10^6 for the matcher, and edges plus open wedges
around half a million for the LP) and the parse rows.  The parse row
times ``parse_edge_list`` on the million-edge matcher instance, written to
a temporary file and read from an open file as the CLI reads it; the
parse-nonplain row times the same file with one line first whose
19-digit label sends the parser to its line loop.  Their problem size is
the number of lines.

With --json BENCH_<label>.json the script also runs the benchmark,
``perfbench/run.py``, once per workload, seed 11..15 and --trace 0 and 1,
each in its own process for the run length BENCHMARK.json sets, and
writes one file with those results (each run's checked deletions and
ratio beside its times), the CSV rows, the commit, the tracked files that
differ from it, and the Python and numpy versions.  Every BENCH file is
made by this one command, so the files compare run for run:

    python3 scripts/scaling_bench.py --big --json BENCH_<label>.json
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from clusterdel import (  # noqa: E402
    PivotStrategy,
    er_graph,
    match_flip_pivot,
    maximal_wedge_set_fast,
    merge_clusters,
    parse_edge_list,
    serialize_edge_list,
    solve_stc_lp,
)
from clusterdel.pivoting import adjacency_lists, pivot_lists  # noqa: E402

MATCHER_SWEEP = [(2_000, 0.01), (5_000, 0.008), (10_000, 0.006)]
MATCHER_BIG = [(20_000, 0.005)]
LP_SWEEP = [(30_000, 1.5 / 30_000), (100_000, 1.5 / 100_000)]
LP_BIG = [(260_000, 1.5 / 260_000)]
PIVOT_MERGE = [(2_000, 0.01), (5_000, 0.004)]
BENCH_SEEDS = range(11, 16)
CSV_FIELDS = ("stage", "n", "m", "size", "seconds", "rss_delta_mib")


def rss_bytes() -> int:
    """Current resident set size: resident pages times the page size from
    /proc/self/statm.  Where /proc is missing, the peak (ru_maxrss), so a
    delta there reads 0 unless the step raises the peak."""
    try:
        with open("/proc/self/statm") as fh:
            return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")
    except OSError:
        import resource
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


def row(stage: str, n: int, m: int, size: int, seconds: float,
        delta: float) -> dict:
    return dict(zip(CSV_FIELDS, (stage, n, m, size, round(seconds, 3),
                                 round(delta))))


def csv_line(r: dict) -> str:
    return (f"{r['stage']},{r['n']},{r['m']},{r['size']},{r['seconds']:.3f},"
            f"{r['rss_delta_mib']}")


def bench_matcher(n: int, p: float, seed: int) -> list[dict]:
    gc.collect()
    before = rss_bytes()
    g = er_graph(n, p, seed=seed)
    t0 = perf_counter()
    ws = maximal_wedge_set_fast(g)
    elapsed = perf_counter() - t0
    delta = (rss_bytes() - before) / 2**20
    return [row("matcher", g.n, g.m, ws.wedge_count, elapsed, delta)]


def bench_parse(n: int, p: float, seed: int) -> list[dict]:
    g = er_graph(n, p, seed=seed)
    text = serialize_edge_list(g)
    lines = g.n + g.m
    del g
    rows = []
    with tempfile.TemporaryDirectory() as tmp:
        plain, nonplain = Path(tmp) / "plain.txt", Path(tmp) / "nonplain.txt"
        plain.write_text(text, encoding="utf-8")
        # one line first whose 19-digit label is not plain sends the parser
        # to its line loop for the rest of the file
        nonplain.write_text(f"{10**18} 0\n" + text, encoding="utf-8")
        del text
        for stage, path, size in (("parse", plain, lines),
                                  ("parse-nonplain", nonplain, lines + 1)):
            with open(path, encoding="utf-8") as fh:
                parsed, elapsed, delta = timed(parse_edge_list, fh)
            rows.append(row(stage, parsed.n, parsed.m, size, elapsed, delta))
            del parsed
    return rows


def open_wedges(g) -> int:
    """Number of open wedges: pairs of a node's neighbours that are not
    adjacent."""
    count = 0
    for k in range(g.n):
        nbrs = g.neighbors(k).tolist()
        for i, a in enumerate(nbrs):
            count += sum(not g.has_edge(a, b) for b in nbrs[i + 1:])
    return count


def bench_lp(n: int, p: float, seed: int) -> list[dict]:
    gc.collect()
    before = rss_bytes()
    g = er_graph(n, p, seed=seed)
    size = g.m + open_wedges(g)
    t0 = perf_counter()
    sol = solve_stc_lp(g)
    elapsed = perf_counter() - t0
    delta = (rss_bytes() - before) / 2**20
    assert sol.objective_half_units >= 0
    return [row("lp", g.n, g.m, size, elapsed, delta)]


def timed(fn, *args):
    """(result, wall seconds, resident-memory delta in MiB) of one call."""
    gc.collect()
    before = rss_bytes()
    t0 = perf_counter()
    out = fn(*args)
    elapsed = perf_counter() - t0
    return out, elapsed, (rss_bytes() - before) / 2**20


def bench_pivot_and_merge(n: int, p: float, seed: int) -> list[dict]:
    g = er_graph(n, p, seed=seed)
    keep = ~maximal_wedge_set_fast(g).weak_mask
    kept = int(np.count_nonzero(keep))
    adj, elapsed, delta = timed(adjacency_lists, g, keep)
    rows = [row("adjacency", g.n, g.m, kept, elapsed, delta)]
    for stage, strategy in (("pivot-degree", PivotStrategy.degree()),
                            ("pivot-ratio", PivotStrategy.ratio()),
                            ("pivot-random", PivotStrategy.random(seed))):
        _, elapsed, delta = timed(pivot_lists, adj, strategy)
        rows.append(row(stage, g.n, g.m, kept, elapsed, delta))
    clustering, _ = pivot_lists(adj, PivotStrategy.degree())
    _, elapsed, delta = timed(merge_clusters, g, clustering)
    rows.append(row("merge", g.n, g.m, clustering.num_clusters, elapsed,
                    delta))
    res, elapsed, delta = timed(match_flip_pivot, g, PivotStrategy.degree())
    rows.append(row("mfp", g.n, g.m, res.wedges, elapsed, delta))
    return rows


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                          text=True, check=True).stdout.strip()


def perfbench_runs() -> list[dict]:
    """One benchmark run per workload, seed and trace setting, each in its
    own process; a run that prints no result records its exit code and
    the end of its standard error."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    runs = []
    for workload in spec["workloads"]:
        for seed in BENCH_SEEDS:
            for trace in (0, 1):
                argv = [sys.executable, "perfbench/run.py", "--workload",
                        workload["name"], "--seed", str(seed), "--seconds",
                        str(seconds), "--trace", str(trace)]
                proc = subprocess.run(argv, cwd=ROOT, capture_output=True,
                                      text=True)
                run = {"workload": workload["name"], "seed": seed,
                       "trace": trace, "seconds": seconds}
                lines = proc.stdout.splitlines()
                if proc.returncode == 0 and lines:
                    run["result"] = json.loads(lines[-1])
                else:
                    run["exit_code"] = proc.returncode
                    run["stderr_tail"] = proc.stderr[-2000:]
                print(f"perfbench {workload['name']} seed {seed} trace "
                      f"{trace}: exit {proc.returncode}", file=sys.stderr)
                runs.append(run)
    return runs


def write_bench(path: Path, argv: list[str], runs: list[dict],
                rows: list[dict]) -> None:
    record = {
        "label": path.stem.removeprefix("BENCH_"),
        "command": " ".join(["scripts/scaling_bench.py", *argv]),
        "commit": git("rev-parse", "HEAD"),
        "changed_files": git("diff", "--name-only", "HEAD").splitlines(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "perfbench": runs,
        "rows": rows,
    }
    path.write_text(json.dumps(record, indent=1) + "\n")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--big", action="store_true",
                    help="include the acceptance-scale instances")
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--json", type=Path, default=None,
                    metavar="BENCH_<label>.json",
                    help="also run the benchmark and write both to this file")
    argv = sys.argv[1:] if argv is None else argv
    args = ap.parse_args(argv)
    # The benchmark runs go first: a child's peak RSS includes this
    # process's peak at the time it is started, which the rows below raise
    # to hundreds of MiB.
    runs = perfbench_runs() if args.json is not None else []
    benches = [(bench_matcher, n, p)
               for n, p in MATCHER_SWEEP + (MATCHER_BIG if args.big else [])]
    benches += [(bench_parse, n, p)
                for n, p in (MATCHER_BIG if args.big else [])]
    benches += [(bench_lp, n, p)
                for n, p in LP_SWEEP + (LP_BIG if args.big else [])]
    benches += [(bench_pivot_and_merge, n, p) for n, p in PIVOT_MERGE]
    print(",".join(CSV_FIELDS))
    rows = []
    for bench, n, p in benches:
        for r in bench(n, p, args.seed):
            print(csv_line(r), flush=True)
            rows.append(r)
    if args.json is not None:
        write_bench(args.json, argv, runs, rows)
    return 0


if __name__ == "__main__":
    sys.exit(main())
