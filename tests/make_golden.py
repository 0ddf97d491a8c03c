"""Record the CLI's outputs on fixed inputs as the golden-output gate.

Writes tests/golden/inputs/ (the edge-list files) and tests/golden/runs.json
(one record per CLI run: argv, exit code, stdout, stderr, the --stats JSON
without runtime_ms, and the sha256 of the --out file).  tests/test_golden.py
replays every record through cli.main and requires the same record.

Regenerate only in a change that means to alter an output, and say in
CHANGES.md which outputs changed and why:

    PYTHONPATH=src python3 tests/make_golden.py

With --check NAME_PREFIX..., the script instead replays the recorded runs
whose names start with one of the prefixes and exits 1 on any difference;
test_golden uses this to replay a subset under python -O.
"""
from __future__ import annotations

import argparse
import gzip
import hashlib
import io
import json
import random
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from clusterdel import (Graph, er_graph, serialize_edge_list,
                        tight_instance)
from clusterdel.cli import main as cli_main
from helpers import planted_clusters

GOLDEN = Path(__file__).resolve().parent / "golden"
INPUTS = GOLDEN / "inputs"
RUNS = GOLDEN / "runs.json"


def hub_graph() -> Graph:
    """About 20k edges: noisy planted cliques plus four hubs, each joined
    to 200 random nodes across the clusters."""
    rng = random.Random(61)
    sizes = [rng.randrange(8, 30) for _ in range(125)]
    g = planted_clusters(sizes, drop=0.05, noise=600, seed=61)
    edges = list(g.edges())
    for h in range(4):
        edges += [(g.n + h, v) for v in rng.sample(range(g.n), 200)]
    return Graph.from_edges(g.n + 4, edges)


def input_files() -> dict[str, bytes]:
    """File name -> bytes of every input."""
    files = {f"tight{n}.txt": serialize_edge_list(tight_instance(n))
             for n in (8, 12, 40)}
    files["er200.txt"] = serialize_edge_list(er_graph(200, 0.08, seed=1))
    files["planted_a.txt"] = serialize_edge_list(
        planted_clusters([8, 6, 5, 5, 4, 3, 3, 2], drop=0.15, noise=12,
                         seed=3))
    files["planted_b.txt"] = serialize_edge_list(
        planted_clusters([12] * 10, drop=0.25, noise=40, seed=8))
    files = {name: text.encode() for name, text in files.items()}
    # stored compressed to keep the repository small; it is also the
    # gzip input
    files["hub.txt.gz"] = gzip.compress(
        serialize_edge_list(hub_graph()).encode(), mtime=0)
    files["empty.txt"] = b""
    files["comments.txt"] = b"# only comments\n   # and blanks\n\n"
    # CRLF line ends, a comment line and trailing comments
    lines = files["tight12.txt"].decode().splitlines()
    files["crlf.txt"] = "\r\n".join(
        ["# tight 12 with CRLF line ends"]
        + [f"{line}  # edge" if i % 3 == 0 else line
           for i, line in enumerate(lines)]).encode() + b"\r\n"
    return files


def cases() -> dict[str, list[str]]:
    """Run name -> argv.  run_case adds --out and --stats to every run,
    and --out to every gen; --in names a file under INPUTS."""
    out: dict[str, list[str]] = {}
    strategies = {"degree": ["--strategy", "degree"],
                  "ratio": ["--strategy", "ratio"],
                  "random7": ["--strategy", "random", "--seed", "7"]}
    for stem in ("tight8", "tight12", "tight40", "er200", "planted_a",
                 "planted_b"):
        src = ["--in", f"{stem}.txt"]
        for algo in ("mfp", "stclp"):
            for sname, sflags in strategies.items():
                for merge in ([], ["--merge"]):
                    name = f"{stem}/{algo}-{sname}" + ("-merge" if merge
                                                        else "")
                    out[name] = ["run", *src, "--algo", algo, *sflags,
                                 *merge]
            out[f"{stem}/{algo}-trials8"] = ["run", *src, "--algo", algo,
                                             "--strategy", "random",
                                             "--trials", "8"]
        out[f"{stem}/lb"] = ["lb", *src]
    for stem in ("empty", "comments", "crlf"):
        src = ["--in", f"{stem}.txt"]
        out[f"{stem}/mfp-degree"] = ["run", *src]
        out[f"{stem}/stclp-ratio-merge"] = ["run", *src, "--algo", "stclp",
                                            "--strategy", "ratio", "--merge"]
        out[f"{stem}/mfp-trials8"] = ["run", *src, "--strategy", "random",
                                      "--trials", "8", "--seed", "7"]
        out[f"{stem}/lb"] = ["lb", *src]
    # the relaxation of the hub graph takes most of a second, so only
    # one stclp run
    src = ["--in", "hub.txt.gz"]
    for sname, sflags in strategies.items():
        for merge in ([], ["--merge"]):
            name = f"hub/mfp-{sname}" + ("-merge" if merge else "")
            out[name] = ["run", *src, *sflags, *merge]
    out["hub/mfp-trials8"] = ["run", *src, "--strategy", "random",
                              "--trials", "8"]
    out["hub/stclp-degree"] = ["run", *src, "--algo", "stclp"]
    out["budget/run-stclp"] = ["run", "--in", "tight12.txt", "--algo",
                               "stclp", "--lp-arc-budget", "10"]
    out["budget/lb"] = ["lb", "--in", "tight12.txt", "--lp-arc-budget",
                        "10"]
    out["gen/tight12"] = ["gen", "--tight", "12"]
    out["gen/er200"] = ["gen", "--er", "200", "0.08", "--seed", "1"]
    return out


def run_case(argv: list[str], work: Path) -> dict:
    """Run the CLI in-process on argv; return the record of the run."""
    argv = list(argv)
    if "--in" in argv:
        i = argv.index("--in") + 1
        argv[i] = str(INPUTS / argv[i])
    out_path = work / "out.txt"
    stats_path = work / "stats.json"
    for path in (out_path, stats_path):
        path.unlink(missing_ok=True)
    if argv[0] in ("run", "gen"):
        argv += ["--out", str(out_path)]
    if argv[0] == "run":
        argv += ["--stats", str(stats_path)]
    stdout, stderr = io.StringIO(), io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        code = cli_main(argv)
    stats = None
    if stats_path.exists():
        stats = json.loads(stats_path.read_text(encoding="utf-8"))
        stats.pop("runtime_ms")
    out_sha = (hashlib.sha256(out_path.read_bytes()).hexdigest()
               if out_path.exists() else None)
    return {"exit": code, "stdout": stdout.getvalue(),
            "stderr": stderr.getvalue(), "stats": stats,
            "out_sha256": out_sha}


def load_runs() -> dict[str, dict]:
    return json.loads(RUNS.read_text(encoding="utf-8"))


def check(prefixes: list[str], work: Path) -> int:
    """Replay the recorded runs under the given name prefixes; print each
    difference and return the number of runs that differ."""
    runs = load_runs()
    names = [name for name in runs if name.startswith(tuple(prefixes))]
    if not names:
        print(f"no recorded run matches {prefixes}")
        return 1
    bad = 0
    for name in names:
        want = dict(runs[name])
        got = run_case(want.pop("argv"), work)
        if got != want:
            bad += 1
            print(f"{name}: recorded {want}, got {got}")
    print(f"{len(names) - bad} of {len(names)} runs match")
    return bad


def generate(work: Path) -> None:
    INPUTS.mkdir(parents=True, exist_ok=True)
    for name, data in input_files().items():
        (INPUTS / name).write_bytes(data)
    runs = {name: {"argv": argv, **run_case(argv, work)}
            for name, argv in cases().items()}
    RUNS.write_text(json.dumps(runs, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(runs)} runs to {RUNS}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--check", nargs="+", metavar="NAME_PREFIX",
                    help="replay these recorded runs instead of writing")
    args = ap.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        if args.check:
            return 1 if check(args.check, Path(tmp)) else 0
        generate(Path(tmp))
    return 0


if __name__ == "__main__":
    sys.exit(main())
