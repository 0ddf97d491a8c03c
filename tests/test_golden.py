"""Golden-output gate: the CLI must reproduce every run recorded in
tests/golden/ (see make_golden.py), byte for byte apart from runtime_ms."""
from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from make_golden import load_runs, run_case

RUNS = load_runs()
# replayed again under python -O: the result self-checks must not be
# asserts that -O strips
OPTIMIZED = ["tight12/", "planted_a/", "empty/", "budget/"]


@pytest.mark.parametrize("name", list(RUNS))
def test_golden_run(name, tmp_path):
    want = dict(RUNS[name])
    assert run_case(want.pop("argv"), tmp_path) == want


def test_golden_runs_under_optimized_interpreter():
    tests = Path(__file__).resolve().parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(tests.parent / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-O", str(tests / "make_golden.py"), "--check",
         *OPTIMIZED], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
