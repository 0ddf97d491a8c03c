"""Acceptance criteria for the whole stack, one test per criterion.

Every test prints exactly one "[criterion NN] PASS/FAIL ..." line (run
pytest with -s, the repo default, to see them).  Tolerances, corpus
sizes, and time budgets are frozen on purpose; loosening them is a
behavior change, not a test fix.
"""
from __future__ import annotations

import gc
import os
import random
from contextlib import contextmanager
from time import perf_counter

import pytest

from clusterdel import (
    PivotStrategy,
    er_graph,
    match_flip_pivot,
    maximal_wedge_set_fast,
    apply_merge,
    parse_edge_list,
    pivot,
    solve_stc_lp,
    stc_lp_round,
    tight_instance,
)
from helpers import clusters_are_cliques, disjoint_paths
from oracles import (
    enumerate_open_wedges,
    exact_cluster_deletion,
    exact_min_stc,
    exact_stc_lp,
    gallai_graph,
    maximal_wedge_set_simple,
    mfp_with_wedge_set,
    min_vertex_cover,
    tight_wedge_set,
    verify_wedge_set,
)

TIGHT_SIZES = (8, 12, 20, 40)
CORPUS_NS = range(4, 11)
CORPUS_PS = (0.2, 0.4, 0.6, 0.8)
CORPUS_SEEDS = range(18)

_corpus_cache: list | None = None
_opt_cache: dict[int, int] = {}


def corpus():
    global _corpus_cache
    if _corpus_cache is None:
        _corpus_cache = [er_graph(n, p, seed=7919 * n + 101 * s + int(100 * p))
                         for n in CORPUS_NS
                         for p in CORPUS_PS
                         for s in CORPUS_SEEDS]
    return _corpus_cache


def opt_of(idx: int) -> int:
    if idx not in _opt_cache:
        _opt_cache[idx] = exact_cluster_deletion(corpus()[idx])[0]
    return _opt_cache[idx]


def deterministic_strategies():
    return (PivotStrategy.degree(), PivotStrategy.ratio())


class _Line:
    text = ""


@contextmanager
def criterion(num: int):
    line = _Line()
    try:
        yield line
    except BaseException:
        print(f"[criterion {num:02d}] FAIL {line.text}".rstrip())
        raise
    print(f"[criterion {num:02d}] PASS {line.text}".rstrip())


def test_criterion_01_tight_instances_hit_three_halves_bound():
    with criterion(1) as line:
        t0 = perf_counter()
        strategies = list(deterministic_strategies())
        strategies += [PivotStrategy.random(s) for s in range(3)]
        for n in TIGHT_SIZES:
            g = tight_instance(n)
            ws, q = tight_wedge_set(g), n // 2
            for strategy in strategies:
                res = mfp_with_wedge_set(g, strategy, ws)
                assert res.deletions == 3 * n // 2 - 4, (n, strategy)
            if n <= 14:
                opt, _ = exact_cluster_deletion(g)
                assert opt == n // 2
            else:
                # cutting the q pendant edges is feasible, and the q
                # edge-disjoint wedges each force a deletion, so opt == q
                verify_wedge_set(g, ws)
                assert len(ws.wedges) == q == n // 2
        elapsed = perf_counter() - t0
        assert elapsed < 1.0
        line.text = (f"deletions == 3n/2-4 for n in {TIGHT_SIZES} under "
                     f"{len(strategies)} strategies, opt == n/2, "
                     f"{elapsed:.2f}s")


def test_criterion_02_mfp_within_three_opt_on_corpus():
    with criterion(2) as line:
        t0 = perf_counter()
        graphs = corpus()
        assert len(graphs) >= 500
        violations = 0
        for idx, g in enumerate(graphs):
            opt = opt_of(idx)
            for strategy in deterministic_strategies():
                res = match_flip_pivot(g, strategy)
                if res.deletions > 3 * opt:
                    violations += 1
        elapsed = perf_counter() - t0
        assert violations == 0
        assert elapsed < 30.0
        line.text = (f"{len(graphs)} instances x 2 strategies, "
                     f"{violations} violations of deletions <= 3*opt, "
                     f"{elapsed:.1f}s")


def test_criterion_03_lp_rounding_within_certified_factor():
    with criterion(3) as line:
        t0 = perf_counter()
        graphs = corpus()
        violations = 0
        for idx, g in enumerate(graphs):
            opt = opt_of(idx)
            for strategy in deterministic_strategies():
                res = stc_lp_round(g, strategy)
                if 2 * res.deletions > 3 * res.lp_value_half_units:
                    violations += 1
                if res.deletions > 3 * opt:
                    violations += 1
        elapsed = perf_counter() - t0
        assert violations == 0
        line.text = (f"{len(graphs)} instances x 2 strategies, "
                     f"{violations} violations of 2*del <= 3*lp and "
                     f"del <= 3*opt, {elapsed:.1f}s")


def test_criterion_04_combinatorial_lp_is_exact():
    with criterion(4) as line:
        t0 = perf_counter()
        checked = 0
        mismatches = 0
        trial = 0
        while checked < 200 and trial < 5000:
            trial += 1
            rng = random.Random(31337 + trial)
            g = er_graph(3 + trial % 6, rng.choice((0.3, 0.5, 0.7)),
                         seed=trial)
            if g.m > 12:
                continue
            checked += 1
            if solve_stc_lp(g).objective_half_units != exact_stc_lp(g):
                mismatches += 1
        elapsed = perf_counter() - t0
        assert checked >= 200
        assert mismatches == 0
        assert elapsed < 60.0
        line.text = (f"{checked} graphs with m <= 12, {mismatches} "
                     f"mismatches against the exact relaxation, "
                     f"{elapsed:.1f}s")


def test_criterion_05_lower_bound_chain():
    with criterion(5) as line:
        t0 = perf_counter()
        checked = 0
        for idx, g in enumerate(corpus()):
            if g.m > 24:
                continue
            checked += 1
            lp_half = solve_stc_lp(g).objective_half_units
            stc = exact_min_stc(g)
            opt = opt_of(idx)
            for matcher in (maximal_wedge_set_fast, maximal_wedge_set_simple):
                assert 2 * len(matcher(g).wedges) <= lp_half
            assert lp_half <= 2 * stc
            assert stc <= opt
            assert min_vertex_cover(gallai_graph(g)) == stc
        elapsed = perf_counter() - t0
        assert checked >= 200
        line.text = (f"2|W| <= lp <= 2*minstc <= 2*opt and minstc == "
                     f"gallai cover on {checked} oracle-sized instances, "
                     f"{elapsed:.1f}s")


def test_criterion_06_pivot_audits_obey_two_to_one():
    with criterion(6) as line:
        t0 = perf_counter()
        runs = 0
        for g in corpus():
            for pipeline in (match_flip_pivot, stc_lp_round):
                for strategy in deterministic_strategies():
                    res = pipeline(g, strategy)
                    runs += 1
                    audit = res.audit
                    assert audit.boundary_edges <= 2 * audit.internal_nonedges
                    if strategy.kind == "ratio":
                        for _, b, nn in audit.per_iteration:
                            assert b <= 2 * nn
        g30 = er_graph(30, 0.3, seed=1)
        total_b = total_n = 0
        for s in range(10_000):
            _, audit = pivot(g30, PivotStrategy.random(s))
            total_b += audit.boundary_edges
            total_n += audit.internal_nonedges
        mean_ratio = total_b / total_n
        assert 1.8 <= mean_ratio <= 2.2
        elapsed = perf_counter() - t0
        line.text = (f"B <= 2N on {runs} deterministic runs; random "
                     f"mean(B)/mean(N) = {mean_ratio:.3f} over 10000 seeds "
                     f"on a fixed 30-node instance, {elapsed:.1f}s")


def test_criterion_07_majority_of_weak_edges_get_cut():
    with criterion(7) as line:
        t0 = perf_counter()
        mfp_runs = lp_runs = 0
        for idx, g in enumerate(corpus()):
            strategies = deterministic_strategies() + (
                PivotStrategy.random(idx),)
            for strategy in strategies:
                res = match_flip_pivot(g, strategy)
                mfp_runs += 1
                assert 2 * res.m_w >= res.weak_edges
                res = stc_lp_round(g, strategy)
                lp_runs += 1
                assert 2 * res.n_half <= res.b_half + res.n_half
        elapsed = perf_counter() - t0
        line.text = (f"m_W >= |E_W|/2 on {mfp_runs} mfp runs and "
                     f"N_h <= E_h/2 on {lp_runs} rounding runs "
                     f"(random pivots included), {elapsed:.1f}s")


def test_criterion_08_matchers_are_valid_everywhere():
    with criterion(8) as line:
        t0 = perf_counter()
        checked = 0
        for trial in range(1000):
            rng = random.Random(5000 + trial)
            n = rng.randrange(2, 61)
            p = rng.choice((0.03, 0.06, 0.1, 0.18, 0.3))
            g = er_graph(n, p, seed=trial)
            verify_wedge_set(g, maximal_wedge_set_fast(g))
            verify_wedge_set(g, maximal_wedge_set_simple(g))
            checked += 1
        for n in TIGHT_SIZES:
            g = tight_instance(n)
            verify_wedge_set(g, maximal_wedge_set_fast(g))
            verify_wedge_set(g, maximal_wedge_set_simple(g))
        for k in (1, 2, 4, 9):
            g = disjoint_paths(k)
            fast = maximal_wedge_set_fast(g)
            simple = maximal_wedge_set_simple(g)
            assert fast.wedges == simple.wedges
            assert fast.weak_edges == simple.weak_edges
        elapsed = perf_counter() - t0
        line.text = (f"both matchers verified on {checked} random graphs "
                     f"(n <= 60) and {len(TIGHT_SIZES)} tight instances; "
                     f"identical on unique-solution families, {elapsed:.1f}s")


def test_criterion_09_every_clustering_is_cliques_and_merge_is_safe():
    with criterion(9) as line:
        t0 = perf_counter()
        runs = 0
        for idx, g in enumerate(corpus()):
            strategies = deterministic_strategies() + (
                PivotStrategy.random(idx),)
            for pipeline in (match_flip_pivot, stc_lp_round):
                for strategy in strategies:
                    res = pipeline(g, strategy)
                    runs += 1
                    assert clusters_are_cliques(g, res.clustering.clusters)
                    merged = apply_merge(g, res)
                    assert clusters_are_cliques(
                        g, merged.clustering.clusters)
                    assert merged.deletions <= res.deletions
        elapsed = perf_counter() - t0
        line.text = (f"{runs} runs produced clique clusterings; merging "
                     f"kept them cliques and never raised deletions, "
                     f"{elapsed:.1f}s")


def _football_path() -> str | None:
    explicit = os.environ.get("CLUSTERDEL_FOOTBALL")
    if explicit:
        return explicit if os.path.exists(explicit) else None
    bundled = os.path.join(os.path.dirname(__file__), os.pardir,
                           "data", "football.txt")
    return bundled if os.path.exists(bundled) else None


def test_criterion_10_football_graph_quality():
    path = _football_path()
    if path is None:
        print("[criterion 10] SKIP football data not present; "
              "scripts/fetch_football.py downloads it")
        pytest.skip("football graph not available offline")
    with criterion(10) as line:
        with open(path, encoding="utf-8") as fh:
            g = parse_edge_list(fh)
        assert (g.n, g.m) == (115, 613)
        res = match_flip_pivot(g, PivotStrategy.degree())
        ratio = float(res.ratio)
        assert ratio <= 2.0
        merged = apply_merge(g, res)
        assert merged.ratio < res.ratio
        pct_weak = 100.0 * res.weak_edges / g.m
        assert abs(pct_weak - 83.52) <= 5.0
        line.text = (f"ratio {ratio:.3f} <= 2.0, merged ratio "
                     f"{float(merged.ratio):.3f} strictly better, "
                     f"weak {pct_weak:.2f}% within 5 points of 83.52")


def _rss_bytes() -> int:
    """Current resident set size: resident pages times the page size from
    /proc/self/statm.  Where /proc is missing, the peak (ru_maxrss), so a
    delta there reads 0 unless the step raises the peak."""
    try:
        with open("/proc/self/statm") as fh:
            return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")
    except OSError:
        import resource
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


def test_criterion_11_scaling_budgets():
    with criterion(11) as line:
        gc.collect()
        rss_before = _rss_bytes()
        t0 = perf_counter()
        g = er_graph(20_000, 0.005, seed=42)
        assert g.m >= 900_000
        ws = maximal_wedge_set_fast(g)
        match_elapsed = perf_counter() - t0
        grown = _rss_bytes() - rss_before
        assert match_elapsed < 300.0
        # a materialized wedge list would need several GiB here
        assert grown < 2 * 1024 ** 3
        match_m = g.m
        wedge_count = ws.wedge_count
        del ws, g
        gc.collect()
        g = er_graph(260_000, 1.5 / 260_000, seed=11)
        problem_size = g.m + enumerate_open_wedges(g)
        assert 400_000 <= problem_size <= 600_000
        t1 = perf_counter()
        sol = solve_stc_lp(g)
        lp_elapsed = perf_counter() - t1
        assert lp_elapsed < 300.0
        line.text = (f"matcher: m={match_m} |W|={wedge_count} in "
                     f"{match_elapsed:.1f}s, rss +{grown // 2**20}MiB; "
                     f"relaxation: m+wedges={problem_size} solved to "
                     f"{sol.objective_half_units} half-units in "
                     f"{lp_elapsed:.1f}s")
