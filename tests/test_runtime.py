"""The runtime needs numpy only: scipy is a test-time oracle, not a dependency."""

import os
import pathlib
import subprocess
import sys

import sqzlab


def test_cli_import_leaves_scipy_unloaded():
    src = str(pathlib.Path(sqzlab.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, sqzlab.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
        capture_output=True, text=True, env=env, check=True)
    assert proc.stdout.strip() == "[]"
