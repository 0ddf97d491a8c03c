"""Command-line interface.

Subcommands:
  run   cluster an edge list and report deletions, bounds, and ratio
  lb    report lower-bound quantities only (wedge match and relaxation)
  gen   emit generator instances as edge lists

Examples:
  clusterdel run --in graph.txt --algo mfp --strategy degree --stats out.json
  clusterdel run --in graph.txt.gz --algo mfp --strategy random --trials 100
  clusterdel lb --in graph.txt
  clusterdel gen --tight 16 --out tight16.txt

Exit codes: 0 ok, 1 unreadable input or an output that cannot be written
(a missing file, bytes that are not UTF-8, a truncated or corrupted .gz, a
bad line, or an --out or --stats path that cannot be opened), 2 relaxation
arc budget exceeded, 3 invalid flags or parameters (among them a negative
--lp-arc-budget, and a --merge-budget-ms that is NaN or negative; both are
checked before the input is read), 4 internal error (a result failed one
of its invariant checks; this is a bug, not a problem with the input).
"""

from __future__ import annotations

import argparse
import gzip
import json
import sys
import zlib

from .generators import er_graph, tight_instance
from .graph import (EdgeListParseError, InvariantError, parse_edge_list,
                    serialize_edge_list)
from .pipelines import (apply_merge, best_of_random, match_flip_pivot,
                        stc_lp_round)
from .pivoting import PivotStrategy, clustering_lines
from .stc import DEFAULT_ARC_BUDGET, ArcBudgetError, solve_stc_lp
from .wedges import maximal_wedge_set_fast


class _Parser(argparse.ArgumentParser):
    # reserve exit code 2 for the arc budget; argparse misuse exits 3
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(3, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    parser = _Parser(prog="clusterdel",
                     description="cluster deletion with certified bounds")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    run = sub.add_parser("run", help="cluster an edge list")
    run.add_argument("--in", dest="infile", required=True,
                     help="edge list path (.gz ok)")
    run.add_argument("--algo", choices=("mfp", "stclp"), default="mfp")
    run.add_argument("--strategy", choices=("degree", "ratio", "random"),
                     default="degree")
    run.add_argument("--trials", type=int, default=1,
                     help="random-strategy restarts (seeds seed..seed+T-1)")
    run.add_argument("--seed", type=int, default=None,
                     help="base seed for the random strategy (default 0)")
    run.add_argument("--merge", action="store_true",
                     help="post-process with clique-preserving merges")
    run.add_argument("--merge-budget-ms", type=float, default=None)
    run.add_argument("--lp-arc-budget", type=int,
                     default=DEFAULT_ARC_BUDGET)
    run.add_argument("--out", default=None,
                     help="write 'label cluster_id' lines here")
    run.add_argument("--stats", default=None, help="write stats JSON here")

    lb = sub.add_parser("lb", help="report lower bounds only")
    lb.add_argument("--in", dest="infile", required=True)
    lb.add_argument("--lp-arc-budget", type=int, default=DEFAULT_ARC_BUDGET)

    gen = sub.add_parser("gen", help="generate instances")
    group = gen.add_mutually_exclusive_group(required=True)
    group.add_argument("--tight", type=int, metavar="N",
                       help="tight clique-with-pendants instance")
    group.add_argument("--er", nargs=2, metavar=("N", "P"),
                       help="Erdos-Renyi G(n, p)")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", default=None, help="default stdout")
    return parser


# What loading --in raises on a missing, unreadable or malformed file: an
# OS error, bytes that are not UTF-8, or a truncated or corrupted .gz.
_LOAD_ERRORS = (EdgeListParseError, OSError, UnicodeDecodeError, EOFError,
                zlib.error)


def _load_graph(path: str):
    opener = gzip.open if path.endswith(".gz") else open
    with opener(path, "rt", encoding="utf-8") as fh:
        return parse_edge_list(fh)


def _write(path: str, text: str) -> int:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        return _fail(str(exc), 1)
    return 0


def _fail(message: str, code: int) -> int:
    print(f"clusterdel: error: {message}", file=sys.stderr)
    return code


def _cmd_run(args) -> int:
    if args.trials < 1:
        return _fail("--trials must be at least 1", 3)
    if args.trials > 1 and args.strategy != "random":
        return _fail("--trials needs --strategy random", 3)
    if args.seed is not None and args.strategy != "random":
        return _fail("--seed only applies to --strategy random", 3)
    if args.merge_budget_ms is not None and not args.merge:
        return _fail("--merge-budget-ms needs --merge", 3)
    if args.merge_budget_ms is not None and not args.merge_budget_ms >= 0:
        return _fail("--merge-budget-ms must be a non-negative number", 3)
    if args.lp_arc_budget < 0:
        return _fail("--lp-arc-budget must not be negative", 3)
    try:
        g = _load_graph(args.infile)
    except _LOAD_ERRORS as exc:
        return _fail(str(exc), 1)
    strategy = (PivotStrategy.random(args.seed or 0)
                if args.strategy == "random"
                else PivotStrategy(args.strategy))
    summary = None
    try:
        if args.trials > 1:
            result, summary = best_of_random(
                g, args.trials, base_seed=strategy.seed, algorithm=args.algo,
                arc_budget=args.lp_arc_budget)
        elif args.algo == "mfp":
            result = match_flip_pivot(g, strategy)
        else:
            result = stc_lp_round(g, strategy,
                                  arc_budget=args.lp_arc_budget)
    except ArcBudgetError as exc:
        return _fail(str(exc), 2)
    if args.merge:
        result = apply_merge(g, result, budget_ms=args.merge_budget_ms)
    ratio = "n/a" if result.ratio is None else f"{float(result.ratio):.4f}"
    print(f"deletions={result.deletions} "
          f"lower_bound_half_units={result.lower_bound_half_units} "
          f"ratio={ratio} clusters={result.clustering.num_clusters}")
    if summary is not None:
        mean_ratio = summary["mean_ratio"]
        mr = "n/a" if mean_ratio is None else f"{mean_ratio:.4f}"
        print(f"trials={summary['trials']} "
              f"mean_deletions={summary['mean_deletions']:.2f} "
              f"mean_ratio={mr}")
    if args.out and _write(args.out, "\n".join(
            clustering_lines(result.clustering, g)) + "\n"):
        return 1
    if args.stats:
        return _write(args.stats,
                      json.dumps(result.to_json_dict(), indent=2) + "\n")
    return 0


def _cmd_lb(args) -> int:
    if args.lp_arc_budget < 0:
        return _fail("--lp-arc-budget must not be negative", 3)
    try:
        g = _load_graph(args.infile)
    except _LOAD_ERRORS as exc:
        return _fail(str(exc), 1)
    ws = maximal_wedge_set_fast(g)
    print(f"wedges={ws.wedge_count}")
    print(f"weak_edges={ws.weak_count}")
    try:
        sol = solve_stc_lp(g, arc_budget=args.lp_arc_budget)
    except ArcBudgetError as exc:
        print(f"clusterdel: warning: relaxation skipped: {exc}",
              file=sys.stderr)
        return 0
    print(f"lp_value_half_units={sol.objective_half_units}")
    return 0


def _cmd_gen(args) -> int:
    if args.tight is not None:
        try:
            g = tight_instance(args.tight)
        except ValueError as exc:
            return _fail(str(exc), 3)
    else:
        try:
            n = int(args.er[0])
            p = float(args.er[1])
            g = er_graph(n, p, args.seed)
        except ValueError as exc:
            return _fail(str(exc), 3)
    text = serialize_edge_list(g)
    if args.out:
        return _write(args.out, text)
    sys.stdout.write(text)
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "lb":
            return _cmd_lb(args)
        return _cmd_gen(args)
    except InvariantError as exc:
        print(f"clusterdel: internal error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
