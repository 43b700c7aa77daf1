"""The CLI output contract: every command in tests/golden/commands.json,
run in a fresh process, reproduces its golden stdout and exit code byte
for byte (regenerate with tests/make_golden.py).  Each command is replayed
a second time with a `numpy` package that cannot be imported first on the
path: the package has no runtime dependency."""

import subprocess
import sys

import pytest

from make_golden import GOLDEN, commands, run


@pytest.fixture(scope="module")
def no_numpy(tmp_path_factory):
    stub = tmp_path_factory.mktemp("stub") / "numpy"
    stub.mkdir()
    (stub / "__init__.py").write_text('raise ImportError("numpy is not installed")\n')
    probe = subprocess.run([sys.executable, "-c", "import numpy"], capture_output=True,
                           env={"PYTHONPATH": str(stub.parent)}, timeout=60)
    assert b"numpy is not installed" in probe.stderr  # the stub shadows any installed numpy
    return stub.parent


@pytest.mark.parametrize("name", sorted(commands()))
def test_fresh_process_matches_golden(name):
    out, code = run(commands()[name])
    assert code == int((GOLDEN / f"{name}.exit").read_text())
    assert out == (GOLDEN / f"{name}.stdout").read_bytes()


@pytest.mark.parametrize("name", sorted(commands()))
def test_replay_without_numpy_matches_golden(name, no_numpy):
    out, code = run(commands()[name], first_on_path=[no_numpy])
    assert code == int((GOLDEN / f"{name}.exit").read_text())
    assert out == (GOLDEN / f"{name}.stdout").read_bytes()
