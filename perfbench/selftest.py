#!/usr/bin/env python3
"""Self-test of the benchmark: every check rejects a corrupted answer, and
a reduced-size round of every workload runs and passes its checks.

Run from the repository root with either of

    python3 perfbench/selftest.py
    python3 -m pytest -q perfbench/selftest.py
"""

from __future__ import annotations

import shutil
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np

import run
from checks import (CheckFailed, EdgeIndex, check_result, check_weak_set,
                    relaxation_value, weak_label_pairs)
from inputs import PlantedSpec, planted_edges, write_edge_list
from workloads import WORKLOADS

cd = run.load_program()
SMALL = PlantedSpec("small", sizes=(3, 4, 5, 6), repeat=6, drop=0.2,
                    noise=20)


def expect_failure(fn, *args) -> None:
    try:
        fn(*args)
    except CheckFailed:
        return
    raise AssertionError(f"{fn.__name__} accepted a corrupted answer")


def small_case(tmp: Path, seed: int = 3):
    path = tmp / f"small-{seed}.txt"
    write_edge_list(path, planted_edges(SMALL, seed))
    with open(path, encoding="utf-8") as fh:
        g = cd.parse_edge_list(fh)
    return g, EdgeIndex.from_file(path), np.asarray(g.labels)


def non_clique(g, clustering):
    """The clustering with its first two non-adjacent clusters joined."""
    clusters = clustering.clusters
    for a in range(len(clusters)):
        for b in range(a + 1, len(clusters)):
            if not all(g.has_edge(u, v)
                       for u in clusters[a] for v in clusters[b]):
                joined = sorted(clusters[a] + clusters[b])
                rest = [c for i, c in enumerate(clusters) if i not in (a, b)]
                assignment = list(clustering.assignment)
                for cid, members in enumerate([joined] + rest):
                    for v in members:
                        assignment[v] = cid
                return type(clustering)(assignment, [joined] + rest)
    raise AssertionError("every pair of clusters is adjacent")


def test_correct_answers_pass(tmp_path: Path) -> None:
    g, index, labels = small_case(tmp_path)
    lp = relaxation_value(index)
    assert lp == cd.solve_stc_lp(g).objective_half_units
    for res in (cd.match_flip_pivot(g, cd.PivotStrategy.ratio()),
                cd.stc_lp_round(g, cd.PivotStrategy.degree())):
        merged = cd.apply_merge(g, res)
        assert check_result(index, labels, res, lp) == res.deletions
        assert check_result(index, labels, merged, lp) <= res.deletions
        check_weak_set(index, weak_label_pairs(res.weak_set, labels))


def test_non_clique_cluster_is_rejected(tmp_path: Path) -> None:
    g, index, labels = small_case(tmp_path)
    res = cd.match_flip_pivot(g, cd.PivotStrategy.degree())
    bad = replace(res, clustering=non_clique(g, res.clustering))
    expect_failure(check_result, index, labels, bad, None)


def test_partition_is_required(tmp_path: Path) -> None:
    g, index, labels = small_case(tmp_path)
    res = cd.match_flip_pivot(g, cd.PivotStrategy.degree())
    clusters = res.clustering.clusters
    dropped = replace(res, clustering=replace(res.clustering,
                                              clusters=clusters[1:]))
    expect_failure(check_result, index, labels, dropped, None)
    twice = replace(res, clustering=replace(
        res.clustering, clusters=clusters + [clusters[0]]))
    expect_failure(check_result, index, labels, twice, None)


def test_deletions_off_by_one_are_rejected(tmp_path: Path) -> None:
    g, index, labels = small_case(tmp_path)
    res = cd.match_flip_pivot(g, cd.PivotStrategy.degree())
    for delta in (-1, 1):
        bad = replace(res, deletions=res.deletions + delta)
        expect_failure(check_result, index, labels, bad, None)


def test_ratio_outside_guarantee_is_rejected(tmp_path: Path) -> None:
    g, index, labels = small_case(tmp_path)
    res = cd.match_flip_pivot(g, cd.PivotStrategy.degree())
    for bound in (2 * res.deletions + 1, (2 * res.deletions) // 3 - 1):
        bad = replace(res, lower_bound_half_units=bound)
        expect_failure(check_result, index, labels, bad, None)


def test_lp_value_off_by_one_is_rejected(tmp_path: Path) -> None:
    g, index, labels = small_case(tmp_path)
    lp = relaxation_value(index)
    res = cd.stc_lp_round(g, cd.PivotStrategy.degree())
    for delta in (-1, 1):
        bad = replace(res, lp_value_half_units=res.lp_value_half_units
                      + delta)
        expect_failure(check_result, index, labels, bad, lp)


def test_too_many_wedges_are_rejected(tmp_path: Path) -> None:
    g, index, labels = small_case(tmp_path)
    lp = relaxation_value(index)
    res = cd.match_flip_pivot(g, cd.PivotStrategy.degree())
    bad = replace(res, wedges=lp // 2 + 1)
    expect_failure(check_result, index, labels, bad, lp)


def test_weak_set_missing_a_wedge_is_rejected(tmp_path: Path) -> None:
    g, index, labels = small_case(tmp_path)
    ws = cd.maximal_wedge_set_fast(g)
    res = cd.match_flip_pivot(g, cd.PivotStrategy.degree())
    assert res.weak_set == ws.weak_edges
    i, j, k = ws.wedges[0]
    legs = {min(i, k) << 32 | max(i, k), min(j, k) << 32 | max(j, k)}
    assert legs <= res.weak_set
    expect_failure(check_weak_set, index,
                   weak_label_pairs(res.weak_set - legs, labels))


def test_merge_raising_deletions_is_rejected(tmp_path: Path) -> None:
    g, _, _ = small_case(tmp_path)
    path = tmp_path / "small-3.txt"
    res = cd.stc_lp_round(g, cd.PivotStrategy.degree())
    merged = cd.apply_merge(g, res)
    assert merged.deletions < res.deletions
    rnd = run.Round(run.Clock(), [g], [[run.Outcome(merged, res)]])
    expect_failure(run.check_round, rnd, [path])


def test_reduced_workloads_complete(tmp_path: Path) -> None:
    for w in WORKLOADS.values():
        specs = tuple(replace(s, repeat=max(1, s.repeat // 10),
                              noise=s.noise // 10) for s in w.specs[:2])
        small = replace(w, specs=specs, trials=min(w.trials, 2))
        paths = []
        for spec in specs:
            paths.append(tmp_path / f"{w.name}-{spec.name}.txt")
            write_edge_list(paths[-1], planted_edges(spec, 5))
        calls = run.Calls()
        for traced in (False, True):
            rnd = run.run_round(cd, small, paths, calls, traced)
            run.check_round(rnd, paths)
        assert calls.failed == 0 and calls.attempted > 0, w.name
        metrics = run.layer_metrics([rnd])
        assert set(metrics) == set(run.LAYER_SPANS) | {
            "pipelines.score_s"} | set(run.COUNTS), w.name
        assert metrics["graph.parse_s"] > 0, w.name


def test_run_fails_without_the_program(tmp_path: Path) -> None:
    """Next to BENCHMARK.json and the benchmark alone, a run must fail
    without printing a result."""
    bare = tmp_path / "bare"
    shutil.copytree(run.ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "big-mfp",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def _tests():
    return [f for name, f in sorted(globals().items())
            if name.startswith("test_")]


def main() -> int:
    failed = 0
    for fn in _tests():
        with tempfile.TemporaryDirectory() as tmp:
            try:
                fn(Path(tmp))
            except Exception as exc:  # report every failing test
                failed += 1
                print(f"FAIL {fn.__name__}: {exc!r}")
            else:
                print(f"ok   {fn.__name__}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
