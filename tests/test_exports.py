"""The package exports what the CLI, the benchmark and the README use, and
nothing that only the tests need (that lives in tests/)."""
from __future__ import annotations

import ast
from pathlib import Path

import clusterdel

EXPORTS = [
    "ArcBudgetError", "CDResult", "Clustering", "DEFAULT_ARC_BUDGET",
    "EdgeListParseError", "Graph", "HalfIntegralSolution", "InvariantError",
    "OpenWedge", "PivotAudit", "PivotStrategy", "WedgeSet", "apply_merge",
    "best_of_random", "clustering_lines", "er_graph", "labeling_from_lp",
    "match_flip_pivot", "maximal_wedge_set_fast", "merge_clusters",
    "pack_edge", "parse_edge_list", "pivot", "serialize_edge_list",
    "solve_stc_lp", "stc_lp_round", "tight_instance", "unpack_edge",
]


def benchmark_names(path: Path) -> set[str]:
    """Names the benchmark script reads off ``cd``, its handle on the
    package."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name) and node.value.id == "cd"}


def test_exports_are_pinned():
    assert sorted(clusterdel.__all__) == sorted(EXPORTS)
    for name in EXPORTS:
        getattr(clusterdel, name)
    perfbench = Path(__file__).resolve().parent.parent / "perfbench"
    used = (benchmark_names(perfbench / "run.py")
            | benchmark_names(perfbench / "selftest.py"))
    assert "match_flip_pivot" in used and "parse_edge_list" in used
    assert used <= set(EXPORTS), used - set(EXPORTS)
