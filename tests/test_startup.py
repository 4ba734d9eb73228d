"""Start-up guard: ``transform`` and ``eval`` load only the layers they run.

The verification layers (``bvcalc``, ``connect``, ``samples``, ``suites`` and
``report``) are imported by ``verify`` alone, so a module-level import that
pulls them into the other commands fails here.  Each case runs the command
in a fresh interpreter, since this test session has imported every layer
already, and reads the modules loaded once the command has returned.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import superbv

ROOT = Path(__file__).resolve().parent.parent
VERIFY_LAYERS = {f"superbv.{name}" for name in ("bvcalc", "connect", "samples", "suites", "report")}

PROBE = """
import json, sys
from superbv.cli import main
code = main(sys.argv[1:])
print(json.dumps([code, sorted(name for name in sys.modules if name.startswith("superbv"))]))
"""


def _run(*argv):
    """Exit code and loaded ``superbv`` modules of one command in a fresh
    interpreter that imports the package this session tests."""
    path = str(Path(superbv.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (path, os.environ.get("PYTHONPATH"))))}
    done = subprocess.run([sys.executable, "-c", PROBE, *argv], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    code, modules = json.loads(done.stdout.splitlines()[-1])
    return code, set(modules)


@pytest.mark.parametrize("argv", [
    ["transform", "scenarios/odd_pair_map.sbv", "--map", "phi", "--section", "v"],
    ["eval", "scenarios/odd_pair_map.sbv", "--expr", "f"],
], ids=["transform", "eval"])
def test_transform_and_eval_load_no_verification_layer(argv):
    # odd_pair_map.sbv has no suite lines, so parsing it loads no suite either
    code, modules = _run(*argv)
    assert code == 0
    assert modules & VERIFY_LAYERS == set()


def test_verify_loads_the_verification_layers():
    code, modules = _run("verify", "scenarios/default.sbv")
    assert code == 0
    assert VERIFY_LAYERS <= modules
