"""The CLI output contract: every command in tests/golden/commands.json,
run in a fresh process, reproduces its golden stdout and exit code byte
for byte (regenerate with tests/make_golden.py)."""

import pytest

from make_golden import GOLDEN, commands, run


@pytest.mark.parametrize("name", sorted(commands()))
def test_fresh_process_matches_golden(name):
    out, code = run(commands()[name])
    assert code == int((GOLDEN / f"{name}.exit").read_text())
    assert out == (GOLDEN / f"{name}.stdout").read_bytes()
