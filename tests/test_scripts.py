"""Smoke test: the example scripts run end to end on the bundled config."""

import pathlib
import re
import subprocess
import sys

import pytest

SCRIPTS = pathlib.Path(__file__).resolve().parents[1] / "scripts"


@pytest.mark.parametrize("script, expected", [
    ("report_795nm.py", r"gain_scale\s+= 0\.8211 "),
    ("synth_fit_demo.py", r"converged=True"),
])
def test_script_runs(script, expected):
    proc = subprocess.run([sys.executable, str(SCRIPTS / script)],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert re.search(expected, proc.stdout), proc.stdout
