#!/usr/bin/env python3
"""Benchmark of the cluster deletion pipelines, one workload per process.

Usage, from the repository root:

    python3 perfbench/run.py --workload planted-lp --seed 1 --seconds 30 \\
        --trace 0

The run generates its input graphs from --seed (once; they are cached as
edge-list files), then repeats whole rounds for about --seconds seconds.
A round parses every input file anew with ``parse_edge_list`` (set-up)
and runs the workload's pipeline calls on the fresh graphs (solve).  The
outputs of the last round are checked independently, and every round must
reproduce them.  The last line of standard output is one JSON object:
``correct``, the ``attempted`` and ``failed`` pipeline calls, and the
metrics.  --trace 0 reports the end-to-end metrics; --trace 1 instead
also replays each pipeline call through its public building blocks, each
in a span, and reports per-layer self times and counts.  See README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import traceback
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import numpy as np

from checks import (CheckFailed, EdgeIndex, check_result, check_weak_set,
                    relaxation_value, weak_label_pairs)
from inputs import ensure_inputs
from workloads import RANDOM_BASE_SEED, WORKLOADS, Workload

ROOT = Path(__file__).resolve().parent.parent
CACHE_DIR = ROOT / ".perfbench_cache"
TRACE_DIR = ROOT / ".perfbench_traces"

# Times are reported at a reference interpreter speed: a measured call's
# wall time is scaled by REFERENCE_S over the mean duration of the speed
# probes taken just before and after it (see speed_probe and Clock);
# per-layer times by the mean probe of their round.
REFERENCE_S = 0.010
_PROBE_ITERATIONS = 20_000

# Per-layer metric -> span whose self time it sums.
LAYER_SPANS = {
    "graph.parse_s": "graph.parse",
    "graph.drop_edges_s": "graph.drop_edges",
    "wedges.match_s": "wedges.match",
    "stc.lp_s": "stc.lp",
    "pivoting.degree_s": "pivoting.degree",
    "pivoting.random_s": "pivoting.random",
    "pivoting.ratio_s": "pivoting.ratio",
    "pipelines.merge_s": "pipelines.merge",
}
COUNTS = ("wedges.inspections", "wedges.matched", "pivoting.boundary_edges",
          "pivoting.internal_nonedges", "pipelines.merges")
UNITS = {"setup_s": "s", "solve_s": "s", "peak_rss_mib": "MiB",
         "deletions": "count", "ratio": "ratio"}


def load_program():
    """Import clusterdel from this checkout's src/, and nowhere else."""
    src = ROOT / "src"
    if not (src / "clusterdel" / "__init__.py").is_file():
        raise ImportError(f"no clusterdel package under {src}")
    sys.path.insert(0, str(src))
    import clusterdel
    if Path(clusterdel.__file__).resolve().parent.parent != src:
        raise ImportError(f"clusterdel imported from {clusterdel.__file__}")
    return clusterdel


def speed_probe() -> float:
    """Seconds taken by a fixed pure-Python kernel of integer, dict, list
    and sort work, the operations the program's inner loops are made of.

    The host's CPU is shared, and its speed for this process drifts by up
    to 1.6x over tens of seconds; probes taken between the measured calls
    track that drift, so scaling by them leaves the program's own cost.
    The collector is paused so that a probe never pays for the program's
    heap.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        seen: dict[int, int] = {}
        keys = []
        x = 1
        for i in range(_PROBE_ITERATIONS):
            x = (x * 1103515245 + 12345) & 0x7FFFFFFF
            k = x >> 14
            if seen.get(k) is None:
                seen[k] = i
            keys.append(k)
        keys.sort()
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class Clock:
    """Wall time of one round's measured calls, per phase, and that time
    scaled to the reference speed.

    A speed probe runs before the first call and after every call; each
    call is scaled by the mean of the probes on either side of it.
    """

    def __init__(self):
        self.probes = [speed_probe()]
        self.wall = {"setup": 0.0, "solve": 0.0}
        self.scaled = {"setup": 0.0, "solve": 0.0}

    @contextmanager
    def measure(self, phase: str):
        start = perf_counter()
        try:
            yield
        finally:
            wall = perf_counter() - start
            self.probes.append(speed_probe())
            self.wall[phase] += wall
            self.scaled[phase] += (wall * 2 * REFERENCE_S
                                   / (self.probes[-2] + self.probes[-1]))

    @property
    def scale(self) -> float:
        """Mean factor from this round's wall times to reference speed."""
        return REFERENCE_S / statistics.mean(self.probes)


@dataclass
class Span:
    name: str
    parent: int | None
    start: float
    end: float = 0.0


class Tracer:
    """One round's spans (name, start, end, parent), kept in memory, and
    the counts read from the objects the layers return."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, int] = dict.fromkeys(COUNTS, 0)
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        rec = Span(name, parent, perf_counter())
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec.end = perf_counter()
            self._stack.pop()

    def count(self, name: str, amount: int) -> None:
        self.counts[name] += amount

    def self_times(self) -> dict[str, float]:
        """Summed self time (duration minus child durations) per name."""
        own = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.end - s.start
        totals: dict[str, float] = {}
        for s, t in zip(self.spans, own):
            totals[s.name] = totals.get(s.name, 0.0) + t
        return totals

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer self times and counts of the round.

        pipelines.score_s is what the pipeline calls took beyond their
        replayed layer calls: scoring, bookkeeping and merge rescoring.
        """
        own = self.self_times()
        out = {metric: own.get(name, 0.0)
               for metric, name in LAYER_SPANS.items()}
        calls = sum(s.end - s.start for s in self.spans
                    if s.name == "pipelines.call")
        layers = sum(s.end - s.start for s in self.spans
                     if s.parent is not None
                     and self.spans[s.parent].name == "layers")
        out["pipelines.score_s"] = calls - layers
        out.update(self.counts)
        return out


class Calls:
    """Runs pipeline calls, counting attempts and failures.

    A call that raises is counted as failed and yields None; calls that
    take its result are attempted and fail too, so every round attempts
    the same calls.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def __call__(self, fn, *args):
        self.attempted += 1
        if any(a is None for a in args):
            self.failed += 1
            return None
        try:
            return fn(*args)
        except Exception:  # a failing call is reported, not fatal
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            return None


@dataclass
class Outcome:
    """One pipeline result and, on merging workloads, its merged form."""

    raw: object | None
    final: object | None


@dataclass
class Round:
    clock: Clock
    graphs: list | None = field(repr=False)
    outcomes: list[list[Outcome]] | None = field(repr=False)
    tracer: Tracer | None = field(repr=False, default=None)

    def signature(self) -> list:
        return [[None if r is None else
                 (r.deletions, r.lower_bound_half_units,
                  r.clustering.num_clusters)
                 for o in per_graph for r in (o.raw, o.final)]
                for per_graph in self.outcomes]


def replay(cd, w: Workload, g, strategies, tracer: Tracer) -> None:
    """Redo one pipeline call's layer work through the public building
    blocks, each in its own span."""
    if w.algorithm == "mfp":
        with tracer.span("wedges.match"):
            ws = cd.maximal_wedge_set_fast(g)
        tracer.count("wedges.inspections", ws.inspections)
        tracer.count("wedges.matched", len(ws.wedges))
        weak = ws.weak_edges
    else:
        with tracer.span("stc.lp"):
            sol = cd.solve_stc_lp(g)
        with tracer.span("stc.labeling"):
            weak = cd.labeling_from_lp(sol)
    with tracer.span("graph.drop_edges"):
        ghat = g.drop_edges(weak)
    for strategy in strategies:
        with tracer.span(f"pivoting.{strategy.kind}"):
            cd.pivot(ghat, strategy)


def run_pipelines(cd, w: Workload, g, calls: Calls, clock: Clock,
                  tracer: Tracer | None) -> list[Outcome]:
    """The workload's pipeline calls on one graph.  When traced, each
    call is followed by its replay, and the collector runs before each,
    so that neither pays for garbage the other left."""

    def call(fn, *args):
        if tracer:
            gc.collect()
        span = tracer.span("pipelines.call") if tracer else nullcontext()
        with clock.measure("solve"), span:
            return calls(fn, *args)

    def layers():
        gc.collect()
        return tracer.span("layers")

    def best_random(g):
        return cd.best_of_random(g, w.trials, RANDOM_BASE_SEED,
                                 algorithm=w.algorithm)[0]

    pipeline = (cd.match_flip_pivot if w.algorithm == "mfp"
                else cd.stc_lp_round)
    jobs = [(pipeline, (g, s), [s])
            for s in map(cd.PivotStrategy, w.strategies)]
    if w.trials:
        seeds = range(RANDOM_BASE_SEED, RANDOM_BASE_SEED + w.trials)
        jobs.append((best_random, (g,),
                     [cd.PivotStrategy.random(s) for s in seeds]))
    raws = []
    for fn, args, strategies in jobs:
        raws.append(call(fn, *args))
        if tracer and raws[-1] is not None:
            with layers():
                replay(cd, w, g, strategies, tracer)
    outcomes = []
    for res in raws:
        final = res
        if w.merge:
            final = call(cd.apply_merge, g, res)
            if tracer and res is not None:
                with layers(), tracer.span("pipelines.merge"):
                    cd.merge_clusters(g, res.clustering)
        if tracer and res is not None:
            tracer.count("pivoting.boundary_edges", res.boundary_edges)
            tracer.count("pivoting.internal_nonedges", res.internal_nonedges)
            if final is not None:
                tracer.count("pipelines.merges",
                             res.clustering.num_clusters
                             - final.clustering.num_clusters)
        outcomes.append(Outcome(res, final))
    return outcomes


def run_round(cd, w: Workload, paths: list[Path], calls: Calls,
              traced: bool) -> Round:
    tracer = Tracer() if traced else None
    clock = Clock()
    graphs = []
    for path in paths:
        span = tracer.span("graph.parse") if tracer else nullcontext()
        with clock.measure("setup"), span, open(path, encoding="utf-8") as fh:
            graphs.append(cd.parse_edge_list(fh))
    outcomes = [run_pipelines(cd, w, g, calls, clock, tracer)
                for g in graphs]
    return Round(clock, graphs, outcomes, tracer)


def check_round(rnd: Round, paths: list[Path]) -> None:
    """Independent checks of one round's outputs (see checks.py)."""
    for g, outcomes, path in zip(rnd.graphs, rnd.outcomes, paths):
        index = EdgeIndex.from_file(path)
        labels = np.asarray(g.labels, dtype=np.int64)
        lp_value = relaxation_value(index)
        checked_weak = []
        for o in outcomes:
            if o.raw is None:
                continue
            raw_del = check_result(index, labels, o.raw, lp_value)
            if not any(o.raw.weak_set == s for s in checked_weak):
                check_weak_set(index, weak_label_pairs(o.raw.weak_set,
                                                       labels))
                checked_weak.append(o.raw.weak_set)
            if o.final is not None and o.final is not o.raw:
                if check_result(index, labels, o.final, lp_value) > raw_del:
                    raise CheckFailed("merging raised the deletions")


def end_to_end_metrics(rounds: list[Round],
                       peak_rss_mib: float) -> dict[str, float]:
    finals = [o.final for per_graph in rounds[-1].outcomes
              for o in per_graph if o.final is not None]
    deletions = sum(r.deletions for r in finals)
    bound = sum(r.lower_bound_half_units for r in finals)
    return {
        "setup_s": statistics.median(r.clock.scaled["setup"] for r in rounds),
        "solve_s": statistics.median(r.clock.scaled["solve"] for r in rounds),
        "peak_rss_mib": peak_rss_mib,
        "deletions": deletions,
        "ratio": float(Fraction(2 * deletions, bound)) if bound else None,
    }


def layer_metrics(rounds: list[Round]) -> dict[str, float]:
    """Per-layer times as medians over rounds, each round scaled by its
    mean probe; counts as read in the last round."""
    per_round = [{k: v * r.clock.scale if k.endswith("_s") else v
                  for k, v in r.tracer.layer_metrics().items()}
                 for r in rounds]
    return {k: (statistics.median(m[k] for m in per_round)
                if k.endswith("_s") else per_round[-1][k])
            for k in per_round[0]}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        cd = load_program()
    except ImportError as exc:
        print(f"perfbench: cannot load the program: {exc}", file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]
    paths = ensure_inputs(CACHE_DIR, list(w.specs), args.seed)
    calls = Calls()
    rounds: list[Round] = []
    signatures = []
    start = perf_counter()
    while True:
        if rounds:  # keep the timings, free the graphs and results
            rounds[-1].graphs = rounds[-1].outcomes = None
        gc.collect()
        t0 = perf_counter()
        rounds.append(run_round(cd, w, paths, calls, bool(args.trace)))
        took = perf_counter() - t0
        signatures.append(rounds[-1].signature())
        if len(rounds) == 1:
            # Later rounds only add allocator fragmentation, which varies
            # with their number; the first round's peak repeats exactly.
            peak_rss_mib = (resource.getrusage(resource.RUSAGE_SELF)
                            .ru_maxrss / 1024)
        clock = rounds[-1].clock
        print(f"round {len(rounds)}: {took:.3f} s, setup "
              f"{clock.wall['setup']:.4f} s, solve {clock.wall['solve']:.4f}"
              f" s, scale {clock.scale:.3f}", file=sys.stderr)
        if perf_counter() - start + took > args.seconds:
            break
    correct = True
    try:
        if any(s != signatures[0] for s in signatures):
            raise CheckFailed("rounds on the same input gave different "
                              "results")
        check_round(rounds[-1], paths)
    except CheckFailed as exc:
        print(f"perfbench: check failed: {exc}", file=sys.stderr)
        correct = False
    if args.trace:
        TRACE_DIR.mkdir(exist_ok=True)
        (TRACE_DIR / f"{w.name}-{args.seed}.json").write_text(json.dumps(
            [{"scale": r.clock.scale,
              "spans": [vars(s) for s in r.tracer.spans]} for r in rounds]))
        metrics = {k: {"value": v, "unit": "s" if k.endswith("_s")
                       else "count"}
                   for k, v in layer_metrics(rounds).items()}
    else:
        metrics = {k: {"value": v, "unit": UNITS[k]}
                   for k, v in end_to_end_metrics(rounds,
                                                  peak_rss_mib).items()}
    print(json.dumps({"correct": correct, "attempted": calls.attempted,
                      "failed": calls.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
