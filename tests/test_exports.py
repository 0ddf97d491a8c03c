"""The package exports what the CLI, the benchmark and the README use, and
nothing that only the tests need (that lives in tests/); the benchmark's
own self-test passes against the package, the README's library example
runs, and the package holds no assert statement (python -O strips them,
and its invariant checks must still run there)."""
from __future__ import annotations

import ast
import subprocess
import sys
from pathlib import Path

import pytest

import clusterdel

ROOT = Path(__file__).resolve().parent.parent

EXPORTS = [
    "ArcBudgetError", "CDResult", "Clustering", "DEFAULT_ARC_BUDGET",
    "EdgeListParseError", "Graph", "HalfIntegralSolution", "InvariantError",
    "PivotAudit", "PivotStrategy", "WedgeSet", "apply_merge",
    "best_of_random", "clustering_lines", "er_graph", "labeling_from_lp",
    "match_flip_pivot", "maximal_wedge_set_fast", "merge_clusters",
    "pack_edge", "parse_edge_list", "pivot", "serialize_edge_list",
    "solve_stc_lp", "stc_lp_round", "tight_instance",
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
    perfbench = ROOT / "perfbench"
    used = (benchmark_names(perfbench / "run.py")
            | benchmark_names(perfbench / "selftest.py"))
    assert "match_flip_pivot" in used and "parse_edge_list" in used
    assert used <= set(EXPORTS), used - set(EXPORTS)


def test_benchmark_selftest_passes():
    # its checks compare the relaxation value with a scipy matching
    pytest.importorskip("scipy")
    proc = subprocess.run([sys.executable, "perfbench/selftest.py"],
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_readme_library_example_runs(capsys):
    # the first python block under "## Library"
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    namespace: dict = {}
    exec(compile(code, "README.md", "exec"), namespace)
    assert capsys.readouterr().out == "1556 1556 2.0\n"
    merged, res = namespace["merged"], namespace["res"]
    assert merged.num_clusters <= res.clustering.num_clusters


def test_package_holds_no_assert():
    found = [f"{path.name}:{node.lineno}"
             for path in sorted((ROOT / "src" / "clusterdel").glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert found == []
