"""The demo scripts run to completion with their default arguments."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))


def test_there_are_demo_scripts():
    assert SCRIPTS


# a microbenchmark with a module-level BUDGET runs with none, so each
# row makes only its minimum of timed runs
NO_BUDGET = """\
import importlib.util, sys
spec = importlib.util.spec_from_file_location("script", sys.argv[1])
script = importlib.util.module_from_spec(spec)
spec.loader.exec_module(script)
script.BUDGET = 0
raise SystemExit(script.main())
"""


def command(script):
    if "\nBUDGET = " in script.read_text():
        return [sys.executable, "-c", NO_BUDGET, str(script)]
    return [sys.executable, str(script)]


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda path: path.name)
def test_demo_script_exits_zero(script):
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    proc = subprocess.run(
        command(script),
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
