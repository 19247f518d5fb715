"""The runtime needs numpy only: scipy is a test-time oracle, not a dependency,
and the fit needs no quadrature rule, so numpy.polynomial stays unloaded.
The package namespace loads lazily, so a CLI process imports only the
modules its command runs, and the CLI skips the exit-time collections."""

import os
import pathlib
import subprocess
import sys

import pytest

import sqzlab

_SUBMODULES = ("analysis", "config", "detection", "fitting", "opo", "traceio")


def _run(code, *args, cwd=None):
    """stdout of ``code`` run by a fresh interpreter that imports this sqzlab."""
    src = str(pathlib.Path(sqzlab.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code, *args], cwd=cwd,
                          capture_output=True, text=True, env=env, check=True)
    return proc.stdout.strip()


def _modules_after_cli_import(prefix):
    code = ("import sys, sqzlab.cli; prefix = sys.argv[1] + '.'; "
            "print(sorted(m for m in sys.modules if (m + '.').startswith(prefix)))")
    return _run(code, prefix)


def test_cli_import_leaves_scipy_unloaded():
    assert _modules_after_cli_import("scipy") == "[]"


def test_cli_import_leaves_numpy_polynomial_unloaded():
    assert _modules_after_cli_import("numpy.polynomial") == "[]"


def test_cli_import_leaves_the_command_modules_unloaded():
    assert _modules_after_cli_import("sqzlab") == str(
        ["sqzlab", "sqzlab.cli", "sqzlab.config", "sqzlab.detection", "sqzlab.opo"])


class TestLazyNamespace:
    def test_every_public_name_resolves_to_its_submodule_object(self):
        for name in sqzlab.__all__:
            value = getattr(sqzlab, name)
            module = sys.modules[f"sqzlab.{sqzlab._SOURCE[name]}"]
            assert value is getattr(module, name)

    def test_a_resolved_name_is_a_plain_attribute(self):
        sqzlab.fit_trace
        assert vars(sqzlab)["fit_trace"] is sys.modules["sqzlab.fitting"].fit_trace

    def test_star_import_and_dir_cover_all(self):
        namespace = {}
        exec("from sqzlab import *", namespace)
        assert set(sqzlab.__all__) <= set(namespace)
        assert set(sqzlab.__all__) <= set(dir(sqzlab))
        assert len(set(sqzlab.__all__)) == len(sqzlab.__all__)

    def test_an_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="has no attribute 'fit'"):
            sqzlab.fit
        assert not hasattr(sqzlab, "_private")

    def test_import_loads_no_submodule_and_registers_nothing(self):
        code = ("import atexit, sys; n = atexit._ncallbacks(); import sqzlab; "
                "print(sorted(m for m in sys.modules if m.startswith('sqzlab')), "
                "atexit._ncallbacks() - n)")
        assert _run(code) == "['sqzlab'] 0"

    def test_submodules_resolve_as_attributes(self):
        code = ("import sys, sqzlab; "
                "print(all(getattr(sqzlab, m) is sys.modules['sqzlab.' + m] for m in sys.argv[1:]))")
        assert _run(code, *_SUBMODULES) == "True"


# what each command's process loads of sqzlab, besides sqzlab, cli, config,
# detection and opo
_COMMAND_MODULES = [
    (["predict", "--circuit-noise", "--format", "json"], {"analysis"}),
    (["sweep", "--gains", "2,5.3", "--format", "csv"], {"analysis"}),
    (["reconcile", "--measured", "-2.75,7.00"], {"analysis"}),
    (["synth", "--seed", "42", "--out", "trace.csv"], {"analysis", "traceio"}),
    (["synth", "--seed", "42", "--out", "trace.csv", "--shot-reference"], {"analysis", "traceio"}),
    (["fit", "--trace", "trace.csv"], {"fitting", "traceio"}),
]


@pytest.mark.parametrize("argv, loaded", _COMMAND_MODULES,
                         ids=[" ".join(argv[:1] + argv[-1:]) for argv, _ in _COMMAND_MODULES])
def test_a_command_loads_only_the_modules_it_runs(argv, loaded, config_path, tmp_path):
    from sqzlab.cli import main

    if argv[0] == "fit":
        main(["synth", "--config", str(config_path), "--seed", "42",
              "--out", str(tmp_path / "trace.csv")])
    code = ("import sys; from sqzlab.cli import main; rc = main(sys.argv[1:]); "
            "print(rc, sorted(m[7:] for m in sys.modules if m.startswith('sqzlab.')))")
    out = _run(code, *argv, "--config", str(config_path), cwd=tmp_path)
    assert out.splitlines()[-1] == f"0 {sorted({'cli', 'config', 'detection', 'opo'} | loaded)}"


def test_an_error_in_a_command_that_reads_no_trace_loads_no_traceio(tmp_path):
    code = ("import sys; from sqzlab.cli import main; rc = main(sys.argv[1:]); "
            "print(rc, 'sqzlab.traceio' in sys.modules)")
    out = _run(code, "predict", "--config", str(tmp_path / "missing.cfg"))
    assert out.splitlines()[-1] == "1 False"


def test_a_trace_format_error_is_reported_in_one_line(capsys, config_path, tmp_path):
    from sqzlab.cli import main

    bad = tmp_path / "bad.csv"
    bad.write_text("time_s,power_db\n1,2,3\n")
    assert main(["fit", "--trace", str(bad), "--config", str(config_path)]) == 1
    assert capsys.readouterr().err == "error: line 2: expected 'time_s,power_db', got '1,2,3'\n"


def test_main_freezes_the_heap_at_exit_once_per_process(config_path):
    code = ("import atexit, gc, sys; freeze, calls = gc.freeze, []; "
            "gc.freeze = lambda: calls.append(freeze()); from sqzlab.cli import main; "
            "argv = ['predict', '--config', sys.argv[1]]; main(argv); main(argv); "
            "atexit._run_exitfuncs(); print(len(calls), gc.get_freeze_count() > 0)")
    assert _run(code, str(config_path)).splitlines()[-1] == "1 True"
