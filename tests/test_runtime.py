"""The runtime needs numpy only: scipy is a test-time oracle, not a dependency,
and the fit needs no quadrature rule, so numpy.polynomial stays unloaded."""

import os
import pathlib
import subprocess
import sys

import sqzlab


def _modules_after_cli_import(prefix):
    src = str(pathlib.Path(sqzlab.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = ("import sys, sqzlab.cli; prefix = sys.argv[1] + '.'; "
            "print(sorted(m for m in sys.modules if (m + '.').startswith(prefix)))")
    proc = subprocess.run([sys.executable, "-c", code, prefix],
                          capture_output=True, text=True, env=env, check=True)
    return proc.stdout.strip()


def test_cli_import_leaves_scipy_unloaded():
    assert _modules_after_cli_import("scipy") == "[]"


def test_cli_import_leaves_numpy_polynomial_unloaded():
    assert _modules_after_cli_import("numpy.polynomial") == "[]"
