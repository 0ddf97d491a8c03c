from __future__ import annotations

import gzip
import io
import json
import os
import re
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest

from clusterdel import (ArcBudgetError, Clustering, PivotStrategy,
                        apply_merge, match_flip_pivot,
                        maximal_wedge_set_fast, parse_edge_list, pipelines,
                        serialize_edge_list, solve_stc_lp, stc_lp_round,
                        tight_instance)
from clusterdel.cli import main
from clusterdel.stc import DEFAULT_ARC_BUDGET

RUN_LINE = re.compile(
    r"^deletions=(\d+) lower_bound_half_units=(\d+) "
    r"ratio=([\d.]+|n/a) clusters=(\d+)$")


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejections
            code = exc.code if isinstance(exc.code, int) else 0
    return code, out.getvalue(), err.getvalue()


@pytest.fixture
def tight_file(tmp_path):
    g = tight_instance(12)
    path = tmp_path / "tight12.txt"
    path.write_text(serialize_edge_list(g))
    return str(path)


def test_run_defaults(tight_file):
    code, out, err = run_cli(["run", "--in", tight_file])
    assert code == 0
    match = RUN_LINE.match(out.splitlines()[0])
    assert match
    assert int(match.group(1)) > 0


def test_run_writes_out_and_stats(tight_file, tmp_path):
    out_path = tmp_path / "clusters.txt"
    stats_path = tmp_path / "stats.json"
    code, _, _ = run_cli(["run", "--in", tight_file, "--algo", "stclp",
                          "--strategy", "ratio",
                          "--out", str(out_path), "--stats", str(stats_path)])
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert len(lines) == 12
    assert all(len(line.split()) == 2 for line in lines)
    stats = json.loads(stats_path.read_text())
    assert stats["algorithm"] == "stclp"
    assert stats["strategy"] == "ratio"
    assert stats["deletions"] == 6
    assert stats["lp_value_half_units"] == 12
    assert stats["ratio"] == {"num": 1, "den": 1, "float": 1.0}


def test_stats_are_deterministic_apart_from_runtime(tight_file, tmp_path):
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for path in paths:
        code, _, _ = run_cli(["run", "--in", tight_file,
                              "--stats", str(path)])
        assert code == 0
    dicts = [json.loads(p.read_text()) for p in paths]
    for d in dicts:
        d.pop("runtime_ms")
    assert dicts[0] == dicts[1]


def test_run_random_trials_summary(tight_file):
    code, out, _ = run_cli(["run", "--in", tight_file, "--strategy", "random",
                            "--trials", "5", "--seed", "3"])
    assert code == 0
    lines = out.splitlines()
    assert RUN_LINE.match(lines[0])
    assert re.match(r"^trials=5 mean_deletions=[\d.]+ mean_ratio=[\d.]+$",
                    lines[1])


def test_run_merge_improves_tight_instance(tight_file):
    code, plain_out, _ = run_cli(["run", "--in", tight_file])
    code2, merged_out, _ = run_cli(["run", "--in", tight_file, "--merge"])
    assert code == 0 and code2 == 0
    plain = int(RUN_LINE.match(plain_out.splitlines()[0]).group(1))
    merged = int(RUN_LINE.match(merged_out.splitlines()[0]).group(1))
    assert merged <= plain


def test_run_merge_with_zero_budget_prints_unmerged(tight_file):
    _, plain_out, _ = run_cli(["run", "--in", tight_file])
    _, merged_out, _ = run_cli(["run", "--in", tight_file, "--merge"])
    code, out, err = run_cli(["run", "--in", tight_file, "--merge",
                              "--merge-budget-ms", "0"])
    assert code == 0 and err == ""
    assert merged_out != plain_out
    assert out == plain_out


@pytest.mark.parametrize("argv", [
    ["run", "--in", "x", "--trials", "0"],
    ["run", "--in", "x", "--trials", "3"],
    ["run", "--in", "x", "--seed", "4"],
    ["run", "--in", "x", "--algo", "stclp", "--matcher", "fast"],
    ["run", "--in", "x", "--merge-budget-ms", "5"],
    # --matcher is not a flag of run or lb
    ["run", "--in", "x", "--matcher", "simple"],
    ["lb", "--in", "x", "--matcher", "fast"],
])
def test_flag_combinations_exit_3(argv, tight_file):
    argv = [a if a != "x" else tight_file for a in argv]
    code, _, err = run_cli(argv)
    assert code == 3
    assert "error" in err


@pytest.mark.parametrize("argv", [
    ["run", "--merge", "--merge-budget-ms", "nan"],
    ["run", "--merge", "--merge-budget-ms", "-5"],
    ["run", "--merge", "--merge-budget-ms=-inf"],
    ["run", "--algo", "stclp", "--lp-arc-budget", "-3"],
    ["run", "--algo", "mfp", "--lp-arc-budget", "-1"],
    ["lb", "--lp-arc-budget", "-3"],
])
def test_bad_budgets_exit_3_before_reading_input(argv, tight_file, tmp_path):
    for infile in (tight_file, str(tmp_path / "absent.txt")):
        code, out, err = run_cli(argv[:1] + ["--in", infile] + argv[1:])
        assert code == 3
        assert out == ""
        assert "must" in err


@pytest.mark.parametrize("argv", [
    ["run", "--strategy", "random", "--seed", "-1"],
    ["run", "--strategy", "random", "--trials", "3", "--seed", "-1"],
])
def test_negative_seed_exits_3_before_reading_input(argv, tight_file,
                                                    tmp_path):
    for infile in (tight_file, str(tmp_path / "absent.txt")):
        code, out, err = run_cli(argv[:1] + ["--in", infile] + argv[1:])
        assert code == 3
        assert out == ""
        assert "--seed must not be negative" in err


def test_gen_er_negative_seed_exits_3(tmp_path):
    path = tmp_path / "er.txt"
    code, out, err = run_cli(["gen", "--er", "60", "0.1", "--seed", "-1",
                              "--out", str(path)])
    assert code == 3
    assert out == "" and not path.exists()
    assert "seed" in err


def test_run_merge_with_infinite_budget_merges(tight_file):
    _, merged_out, _ = run_cli(["run", "--in", tight_file, "--merge"])
    code, out, err = run_cli(["run", "--in", tight_file, "--merge",
                              "--merge-budget-ms", "inf"])
    assert code == 0 and err == ""
    assert out == merged_out


@pytest.mark.parametrize("argv", [
    ["run"],
    ["run", "--in", "g.txt", "--algo", "bogus"],
    ["frobnicate"],
    ["gen"],
    ["gen", "--tight", "8", "--er", "5", "0.5"],
])
def test_argparse_rejections_exit_3(argv):
    code, _, err = run_cli(argv)
    assert code == 3
    assert "error" in err


def test_missing_file_exits_1(tmp_path):
    code, _, err = run_cli(["run", "--in", str(tmp_path / "absent.txt")])
    assert code == 1
    assert "error" in err


def test_malformed_input_exits_1(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("1 2\nnot an edge line\n")
    code, _, err = run_cli(["run", "--in", str(path)])
    assert code == 1
    assert "line 2" in err


def test_gzip_input(tight_file, tmp_path):
    gz = tmp_path / "g.txt.gz"
    with open(tight_file, "rb") as fh:
        gz.write_bytes(gzip.compress(fh.read()))
    code, out, _ = run_cli(["lb", "--in", str(gz)])
    assert code == 0
    assert out.startswith("wedges=")


def unreadable_input(kind, tight_file, tmp_path):
    """A file that fails while it is read, before any line is parsed."""
    data = Path(tight_file).read_bytes()
    packed = gzip.compress(data, mtime=0)
    if kind == "not-utf8":
        path = tmp_path / "latin1.txt"
        path.write_bytes(data + b"1 2  # caf\xe9\n")
    elif kind == "truncated-gz":
        path = tmp_path / "cut.txt.gz"
        path.write_bytes(packed[:len(packed) // 2])
    else:  # a damaged deflate block header
        path = tmp_path / "damaged.txt.gz"
        path.write_bytes(packed[:12] + b"\xff" * 4 + packed[16:])
    return str(path)


@pytest.mark.parametrize("command,kind", [
    ("run", "not-utf8"),
    ("run", "truncated-gz"),
    ("run", "corrupted-gz"),
    ("lb", "corrupted-gz"),
])
def test_unreadable_input_exits_1(command, kind, tight_file, tmp_path):
    path = unreadable_input(kind, tight_file, tmp_path)
    code, out, err = run_cli([command, "--in", path])
    assert code == 1
    assert out == ""
    assert err.startswith("clusterdel: error: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["run", "--in", "TIGHT", "--out", "MISSING/clusters.txt"],
    ["run", "--in", "TIGHT", "--stats", "MISSING/stats.json"],
    ["gen", "--tight", "8", "--out", "MISSING/tight8.txt"],
])
def test_unwritable_output_exits_1(argv, tight_file, tmp_path):
    # in a child process, so that an uncaught error would show as the
    # interpreter's traceback on stderr
    missing = str(tmp_path / "absent")
    argv = [tight_file if a == "TIGHT" else a.replace("MISSING", missing)
            for a in argv]
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-m", "clusterdel.cli", *argv],
                          capture_output=True, text=True, env=env,
                          timeout=120)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert len(proc.stderr.splitlines()) == 1
    assert proc.stderr.startswith("clusterdel: error: ")
    assert missing in proc.stderr


def test_lb_reports_all_bounds(tight_file):
    code, out, _ = run_cli(["lb", "--in", tight_file])
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("wedges=")
    assert lines[1].startswith("weak_edges=")
    assert lines[2] == "lp_value_half_units=12"


def test_lb_arc_budget_warns_but_succeeds(tight_file):
    code, out, err = run_cli(["lb", "--in", tight_file,
                              "--lp-arc-budget", "10"])
    assert code == 0
    assert "lp_value_half_units" not in out
    assert "relaxation skipped" in err


def _clique_lines(labels) -> list[str]:
    return [f"{u} {v}" for i, u in enumerate(labels) for v in labels[i + 1:]]


# adversarial input files by name: their text, and whether to gzip it
ADVERSARIAL_FILES = {
    "empty.txt": ("", False),
    "comments.txt": ("# only comments\n#\n   # indented\n", False),
    "crlf.txt": ("0 1\r\n1 2\r\n2 3\r\n1 3\r\n", False),
    "tight12.txt.gz": (serialize_edge_list(tight_instance(12)), True),
    "big-labels.txt": (f"{2**63} 7\n7 {2**64 + 1}\n{2**63} {2**64 + 1}\n"
                       f"{2**64 + 1} 3\n3 {2**63 + 5}\n", False),
    "k12.txt": ("\n".join(_clique_lines(list(range(12)))) + "\n", False),
    "cliques-and-star.txt": ("\n".join(
        _clique_lines([10, 11, 12]) + _clique_lines([20, 21, 22, 23])
        + _clique_lines([30, 31, 32, 33, 34])
        + [f"40 {leaf}" for leaf in range(41, 48)]) + "\n", False),
}


@pytest.fixture(params=sorted(ADVERSARIAL_FILES))
def adversarial_file(request, tmp_path):
    text, packed = ADVERSARIAL_FILES[request.param]
    path = tmp_path / request.param
    data = text.encode()
    path.write_bytes(gzip.compress(data, mtime=0) if packed else data)
    with (gzip.open if packed else open)(path, "rt", encoding="utf-8") as fh:
        return str(path), parse_edge_list(fh)


@pytest.mark.parametrize("budget", [DEFAULT_ARC_BUDGET, 0])
def test_lb_matches_the_library_on_adversarial_files(adversarial_file,
                                                     budget):
    path, g = adversarial_file
    ws = maximal_wedge_set_fast(g)
    want = [f"wedges={ws.wedge_count}",
            f"weak_edges={np.count_nonzero(ws.weak_mask)}"]
    try:
        sol = solve_stc_lp(g, budget)
    except ArcBudgetError as exc:
        warning = f"clusterdel: warning: relaxation skipped: {exc}\n"
    else:
        want.append(f"lp_value_half_units={sol.objective_half_units}")
        warning = ""
    code, out, err = run_cli(["lb", "--in", path,
                              "--lp-arc-budget", str(budget)])
    assert (code, out.splitlines(), err) == (0, want, warning)


@pytest.mark.parametrize("algo", ["mfp", "stclp"])
def test_run_stats_match_the_library_on_adversarial_files(adversarial_file,
                                                          algo, tmp_path):
    path, g = adversarial_file
    pipeline = match_flip_pivot if algo == "mfp" else stc_lp_round
    stats = tmp_path / "stats.json"
    for flags, strategy in ((["degree"], PivotStrategy.degree()),
                            (["ratio"], PivotStrategy.ratio()),
                            (["random", "--seed", "3"],
                             PivotStrategy.random(3))):
        for merge in (False, True):
            res = pipeline(g, strategy)
            if merge:
                res = apply_merge(g, res)
            want = res.to_json_dict()
            del want["runtime_ms"]
            code, _, err = run_cli(["run", "--in", path, "--algo", algo,
                                    "--strategy", *flags,
                                    "--stats", str(stats)]
                                   + ["--merge"] * merge)
            assert (code, err) == (0, "")
            got = json.loads(stats.read_text())
            del got["runtime_ms"]
            assert got == want


def test_run_arc_budget_exits_2(tight_file):
    code, _, err = run_cli(["run", "--in", tight_file, "--algo", "stclp",
                            "--lp-arc-budget", "10"])
    assert code == 2
    assert "arc" in err


def test_invariant_error_exits_4(tight_file, monkeypatch):
    # a merge that splits every cluster apart adds deletions, which
    # apply_merge's own check must refuse
    monkeypatch.setattr(
        pipelines, "merge_clusters", lambda g, clustering, budget_ms=None:
        Clustering(list(range(g.n)), [[v] for v in range(g.n)]))
    code, out, err = run_cli(["run", "--in", tight_file, "--merge"])
    assert code == 4
    assert out == ""
    assert err == ("clusterdel: internal error: "
                   "merge increased deletions\n")


def test_gen_tight_roundtrip(tmp_path):
    path = tmp_path / "t.txt"
    code, _, _ = run_cli(["gen", "--tight", "8", "--out", str(path)])
    assert code == 0
    g = parse_edge_list(path.read_text())
    assert g.n == 8 and g.m == 4 * 3 // 2 + 4


def test_gen_er_stdout_deterministic():
    code1, out1, _ = run_cli(["gen", "--er", "20", "0.3", "--seed", "7"])
    code2, out2, _ = run_cli(["gen", "--er", "20", "0.3", "--seed", "7"])
    assert code1 == code2 == 0
    assert out1 == out2
    g = parse_edge_list(out1)
    assert g.n == 20


def test_gen_er_keeps_isolated_nodes():
    # sparse instance almost surely has isolated nodes; serialization
    # must preserve them through a reparse
    code, out, _ = run_cli(["gen", "--er", "30", "0.02", "--seed", "1"])
    assert code == 0
    assert parse_edge_list(out).n == 30


@pytest.mark.parametrize("argv", [
    ["gen", "--tight", "7"],
    ["gen", "--tight", "4"],
    ["gen", "--er", "10", "1.5"],
    ["gen", "--er", "ten", "0.5"],
])
def test_gen_bad_parameters_exit_3(argv):
    code, _, err = run_cli(argv)
    assert code == 3
    assert "error" in err


def test_help_exits_0():
    code, out, _ = run_cli(["--help"])
    assert code == 0
    assert "clusterdel" in out


def test_optimized_interpreter_gives_same_output(tight_file, tmp_path):
    # the result self-checks must not be asserts that -O strips
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    outputs = []
    for flags in ([], ["-O"]):
        stats = tmp_path / f"stats{len(flags)}.json"
        texts = []
        for argv in (["run", "--in", tight_file, "--algo", "stclp",
                      "--stats", str(stats)],
                     ["lb", "--in", tight_file]):
            proc = subprocess.run(
                [sys.executable, *flags, "-m", "clusterdel.cli", *argv],
                capture_output=True, text=True, env=env, timeout=120)
            assert proc.returncode == 0, proc.stderr
            texts.append(proc.stdout)
        record = json.loads(stats.read_text())
        record.pop("runtime_ms")
        outputs.append((texts, record))
    assert outputs[0] == outputs[1]
