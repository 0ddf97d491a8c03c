#!/usr/bin/env python3
"""Digests of what the program computes, to check that two trees give the
same outputs on the same input files.

    python3 scripts/output_digest.py [--src DIR] [--out FILE]

The script imports ``clusterdel`` from DIR (by default this tree's
``src``) and prints one line per input file and item, ``<file> <item>
<sha256>``, in a fixed order.  The inputs are always this tree's: the
files under ``tests/golden/inputs`` and the perfbench inputs of seeds
11-13, which perfbench's ``inputs.ensure_inputs`` generates into its cache
directory.  So two runs, one with ``--src`` at another tree's ``src``,
read the same files, and a change to the benchmark's generator cannot
show up as an output change.  Any difference between the two outputs is
one.  Per input file, the items are:

- ``matcher``: ``maximal_wedge_set_fast``'s wedges in matching order, its
  inspection count and its weak mask;
- ``relaxation``: ``solve_stc_lp``'s value per edge and its objective, or
  the ``ArcBudgetError`` it raises;
- ``<algo>/<strategy>`` and ``<algo>/<strategy>/merged``, for ``mfp`` and
  ``stclp``, the strategies ``degree``, ``ratio`` and ``random-<seed>`` for
  seeds 0-7, and ``best-of-8`` (seeds 0-7, with its summary): the call's
  ``to_json_dict()`` without ``runtime_ms``, its assignment, clusters and
  audit rounds, and the same of ``apply_merge`` on it.

The relaxation takes seconds on a ``big-mfp`` file, so ``relaxation`` and
the ``stclp`` calls run on the seed-11 ``big-mfp`` file only.
"""

from __future__ import annotations

import argparse
import gzip
import hashlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN_INPUTS = ROOT / "tests" / "golden" / "inputs"
# perfbench's input cache, shared with perfbench/run.py
CACHE_DIR = ROOT / ".perfbench_cache"
SEEDS = (11, 12, 13)
RANDOM_SEEDS = range(8)


def input_files() -> list[tuple[Path, bool]]:
    """(file, whether to run the relaxation on it), in a fixed order."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    from inputs import ensure_inputs
    from workloads import WORKLOADS

    files = [(p, True) for p in sorted(GOLDEN_INPUTS.iterdir())]
    for seed in SEEDS:
        for name, w in WORKLOADS.items():
            big = name == "big-mfp"
            files += [(p, not big or seed == SEEDS[0])
                      for p in ensure_inputs(CACHE_DIR, list(w.specs), seed)]
    return files


def digest(payload) -> str:
    text = json.dumps(payload, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def result_payload(res) -> dict:
    stats = res.to_json_dict()
    del stats["runtime_ms"]
    return {"stats": stats, "assignment": res.clustering.assignment,
            "clusters": res.clustering.clusters,
            "audit": res.audit.per_iteration}


def file_items(cd, path: Path, with_lp: bool):
    """(item, payload) for every output on one input file."""
    opener = gzip.open if path.suffix == ".gz" else open
    with opener(path, "rt", encoding="utf-8") as fh:
        g = cd.parse_edge_list(fh)
    ws = cd.maximal_wedge_set_fast(g)
    yield "matcher", {"wedges": ws.wedges, "inspections": ws.inspections,
                      "weak_mask": ws.weak_mask.astype(bool).tolist()}
    algorithms = [("mfp", cd.match_flip_pivot)]
    if with_lp:
        try:
            sol = cd.solve_stc_lp(g)
        except cd.ArcBudgetError as exc:
            yield "relaxation", {"error": str(exc)}
        else:
            yield "relaxation", {"values": list(sol.values),
                                 "objective": sol.objective_half_units}
            algorithms.append(("stclp", cd.stc_lp_round))
    for algo, pipeline in algorithms:
        calls = [("degree", lambda: pipeline(g, cd.PivotStrategy.degree())),
                 ("ratio", lambda: pipeline(g, cd.PivotStrategy.ratio()))]
        calls += [(f"random-{s}",
                   lambda s=s: pipeline(g, cd.PivotStrategy.random(s)))
                  for s in RANDOM_SEEDS]
        for name, call in calls:
            res = call()
            yield f"{algo}/{name}", result_payload(res)
            yield (f"{algo}/{name}/merged",
                   result_payload(cd.apply_merge(g, res)))
        best, summary = cd.best_of_random(g, len(RANDOM_SEEDS),
                                          RANDOM_SEEDS[0], algo)
        yield (f"{algo}/best-of-{len(RANDOM_SEEDS)}",
               dict(result_payload(best), summary=summary))
        yield (f"{algo}/best-of-{len(RANDOM_SEEDS)}/merged",
               result_payload(cd.apply_merge(g, best)))


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--src", type=Path, default=ROOT / "src",
                    help="the directory to import clusterdel from")
    ap.add_argument("--out", type=Path,
                    help="write the lines here instead of standard output")
    args = ap.parse_args(argv)
    files = input_files()
    src = args.src.resolve()
    sys.path.insert(0, str(src))
    import clusterdel as cd
    if not Path(cd.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"clusterdel came from {cd.__file__}, not {src}")
    lines = []
    for path, with_lp in files:
        name = path.relative_to(ROOT).as_posix()
        lines += [f"{name} {item} {digest(payload)}"
                  for item, payload in file_items(cd, path, with_lp)]
    text = "\n".join(lines) + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        args.out.write_text(text, encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
