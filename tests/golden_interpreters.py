"""Check the golden commands of test_golden.py under other Python interpreters.

    python tests/golden_interpreters.py PYTHON [PYTHON ...]

Each row of ``GOLDEN`` runs as ``PYTHON -c ...`` in a child process of
every interpreter given, with ``src/`` on its import path. The exit code
and the sha256 of stdout and of stderr must equal the pinned values.
Beside the rows, each interpreter runs ``_nesting.py``, the scan of the
JSON loaders at the depth where calling their object hook overflows,
which differs by interpreter. The script imports ``GOLDEN`` from
test_golden.py, so it needs pytest itself; the children need only the
interpreter. It prints one line per interpreter, one per mismatch and
the scan's lines, and exits 1 if any command differs, the scan finds a
problem or an interpreter cannot run. pytest does not collect this file:
its name does not start with ``test_``.
"""
from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"
sys.path[:0] = [str(SRC), str(TESTS)]

from test_golden import GOLDEN  # noqa: E402

CHILD = "import sys; from algoeff.cli import main; sys.exit(main(sys.argv[1:]))"
VERSION = "import platform; print(platform.python_implementation(), platform.python_version())"
ENV = dict(os.environ, PYTHONIOENCODING="utf-8", PYTHONPATH=os.pathsep.join(
    p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def mismatches(python: str) -> list[str]:
    """One line per GOLDEN row whose exit code, stdout or stderr differs under python."""
    lines = []
    for argv, code, out_sha, err_sha in GOLDEN:
        run = subprocess.run([python, "-c", CHILD, *argv.split()], capture_output=True, env=ENV)
        got, want = (run.returncode, _sha(run.stdout), _sha(run.stderr)), (code, out_sha, err_sha)
        if got != want:
            what = ", ".join(n for n, g, w in zip(("exit code", "stdout", "stderr"), got, want)
                             if g != w)
            tail = run.stderr.decode("utf-8", "replace").strip().splitlines()[-1:]
            lines.append(f"  {argv}: {what} not as pinned" + "".join(f"; {t}" for t in tail))
    return lines


def main(pythons: list[str]) -> int:
    if not pythons:
        print("usage: python tests/golden_interpreters.py PYTHON [PYTHON ...]", file=sys.stderr)
        return 2
    failed = False
    for python in pythons:
        try:
            version = subprocess.run([python, "-c", VERSION], capture_output=True, text=True,
                                     check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError) as e:
            print(f"{python}: cannot run ({e})")
            failed = True
            continue
        bad = mismatches(python)
        print(f"{python} ({version}): {len(GOLDEN) - len(bad)} of {len(GOLDEN)} commands match")
        for line in bad:
            print(line)
        scan = subprocess.run([python, str(TESTS / "_nesting.py")], capture_output=True,
                              text=True, env=ENV)
        for line in (scan.stdout + scan.stderr).splitlines():
            print(f"  {line}")
        failed = failed or bool(bad) or scan.returncode != 0
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
