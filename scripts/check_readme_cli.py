#!/usr/bin/env python3
"""Run the README's CLI examples with the installed ``clusterdel`` script.

Reads the first ``text`` code block under the README's "## CLI" heading.
Each ``$ clusterdel ...`` line in it is run, in order, in one temporary
directory, through the ``clusterdel`` console script found on PATH (so
the ``[project.scripts]`` entry of an installed package is what runs).
The non-blank lines after a command, up to the next command, are its
expected standard output, and every command must exit 0.  Prints each
mismatch and exits 1 if there is one:

    pip install . && python3 scripts/check_readme_cli.py
"""
from __future__ import annotations

import shlex
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def examples(text: str) -> list[tuple[list[str], list[str]]]:
    """(argv after ``clusterdel``, expected stdout lines) per command."""
    section = text.split("\n## CLI\n", 1)[1]
    block = section.split("```text\n", 1)[1].split("```", 1)[0]
    out: list[tuple[list[str], list[str]]] = []
    for line in block.splitlines():
        if line.startswith("$ "):
            argv = shlex.split(line[2:])
            if argv[0] != "clusterdel":
                raise ValueError(f"not a clusterdel command: {line}")
            out.append((argv[1:], []))
        elif line and out:
            out[-1][1].append(line)
    return out


def main() -> int:
    exe = shutil.which("clusterdel")
    if exe is None:
        print("no clusterdel console script on PATH", file=sys.stderr)
        return 1
    cases = examples(README.read_text(encoding="utf-8"))
    failures = 0
    with tempfile.TemporaryDirectory() as tmp:
        for argv, want in cases:
            proc = subprocess.run([exe, *argv], cwd=tmp, capture_output=True,
                                  text=True, timeout=300)
            got = proc.stdout.splitlines()
            if proc.returncode != 0 or got != want:
                failures += 1
                print(f"$ clusterdel {shlex.join(argv)}\n"
                      f"  exit {proc.returncode}\n"
                      f"  want {want}\n  got  {got}\n"
                      f"  stderr {proc.stderr.strip()!r}")
    print(f"{len(cases) - failures} of {len(cases)} README CLI examples "
          "match")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
