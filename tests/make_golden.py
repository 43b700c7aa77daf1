"""Regenerate the golden CLI transcripts in tests/golden/.

Each entry of tests/golden/commands.json names a `wildram` command line.
It is run in a fresh interpreter, with tests/golden/ as the working
directory so that input paths are relative, and without WILDRAM_BUDGET so
that refusals (exit 3) do not depend on the caller's shell; its stdout is
written to <name>.stdout and its exit code to <name>.exit.  test_golden.py replays the
same commands and compares byte for byte.

    PYTHONPATH=src python tests/make_golden.py

prints the name of every file whose content changed.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "golden"
SRC = GOLDEN.parents[1] / "src"


def commands() -> dict[str, list[str]]:
    return json.loads((GOLDEN / "commands.json").read_text())


def run(argv: list[str], first_on_path=()) -> tuple[bytes, int]:
    """stdout and exit code of `wildram argv` in a new interpreter, with
    the directories first_on_path ahead of src/ on its PYTHONPATH."""
    env = {k: v for k, v in os.environ.items() if k != "WILDRAM_BUDGET"}
    path = [*map(str, first_on_path), str(SRC), env.get("PYTHONPATH")]
    env["PYTHONPATH"] = os.pathsep.join(filter(None, path))
    proc = subprocess.run([sys.executable, "-m", "wildram.cli", *argv], cwd=GOLDEN,
                          env=env, capture_output=True, timeout=300)
    return proc.stdout, proc.returncode


def main() -> int:
    for name, argv in commands().items():
        out, code = run(argv)
        for path, data in ((GOLDEN / f"{name}.stdout", out),
                           (GOLDEN / f"{name}.exit", f"{code}\n".encode())):
            if not path.exists() or path.read_bytes() != data:
                path.write_bytes(data)
                print(f"changed: {path.relative_to(GOLDEN.parent)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
