import json
import subprocess
import sys
import warnings

import numpy as np
import pytest

from sqzlab import ConfigError, fit_trace, load_trace, min_max_levels, parse_config
from sqzlab.cli import main

from conftest import ALPHA, OMEGA, RHO, X


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestPredict:
    def test_text_report(self, capsys, config_path):
        code, out, _ = run_cli(capsys, "predict", "--config", str(config_path))
        assert code == 0
        assert "P_th = 149.6 mW" in out
        assert "rho = 0.8525" in out
        assert "alpha = 0.8198" in out
        assert "Omega = 0.1072" in out
        assert "x = 0.5656" in out
        assert "s_min = -4.356 dB" in out
        assert "s_max = 8.887 dB" in out

    def test_circuit_noise_flag_documents_convention(self, capsys, config_path):
        code, out, _ = run_cli(capsys, "predict", "--config", str(config_path), "--circuit-noise")
        assert code == 0
        assert "s_min_observed = -4.078 dB" in out
        assert "s_max_observed = 8.74 dB" in out
        assert "note:" in out and "convention" in out

    def test_json_schema_stable(self, capsys, config_path):
        code, out1, _ = run_cli(capsys, "predict", "--config", str(config_path), "--format", "json")
        assert code == 0
        code, out2, _ = run_cli(capsys, "predict", "--config", str(config_path), "--format", "json")
        assert code == 0
        d1, d2 = json.loads(out1), json.loads(out2)
        assert list(d1) == list(d2)
        assert d1["threshold_w"] == pytest.approx(0.1495575, rel=1e-12)
        assert d1["s_max_db"] == pytest.approx(8.886796542330625, abs=1e-9)

    @pytest.mark.parametrize("flag, s_min_db", [
        ([], -4.356106547452889),  # [acquisition] f = 1MHz
        (["--frequency-hz", "3e6"], -3.4866970789567784),
    ])
    def test_frequency_flag_overrides_the_acquisition_frequency(self, capsys, config_path,
                                                                 flag, s_min_db):
        code, out, _ = run_cli(capsys, "predict", "--config", str(config_path), *flag,
                               "--format", "json")
        assert code == 0
        assert json.loads(out)["s_min_db"] == s_min_db

    def test_parse_error_exit_code(self, capsys, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("[cavity]\nT = 1.2\n")
        code, _, err = run_cli(capsys, "predict", "--config", str(bad))
        assert code == 1
        assert "error:" in err

    def test_missing_file_exit_code(self, capsys):
        code, _, err = run_cli(capsys, "predict", "--config", "/nonexistent.cfg")
        assert code == 1
        assert "error:" in err


class TestSynthFit:
    def test_synth_deterministic(self, capsys, config_path, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli(capsys, "synth", "--config", str(config_path), "--seed", "5",
                       "--out", str(out1))[0] == 0
        assert run_cli(capsys, "synth", "--config", str(config_path), "--seed", "5",
                       "--out", str(out2))[0] == 0
        assert out1.read_bytes() == out2.read_bytes()
        out3 = tmp_path / "c.csv"
        run_cli(capsys, "synth", "--config", str(config_path), "--seed", "6", "--out", str(out3))
        assert out1.read_bytes() != out3.read_bytes()

    def test_synth_then_fit_round_trip(self, capsys, config_path, tmp_path):
        trace_path = tmp_path / "trace.csv"
        code, _, _ = run_cli(capsys, "synth", "--config", str(config_path), "--seed", "42",
                             "--out", str(trace_path))
        assert code == 0
        code, out, _ = run_cli(capsys, "fit", "--trace", str(trace_path),
                               "--config", str(config_path), "--format", "json")
        assert code == 0
        report = json.loads(out)
        truth = min_max_levels(ALPHA, RHO, X, OMEGA)
        assert report["converged"]
        assert abs(report["s_min_db"] - truth.s_min_db) < 2 * report["s_min_sigma_db"]
        assert abs(report["s_max_db"] - truth.s_max_db) < 2 * report["s_max_sigma_db"]
        assert report["uncertainty_convention"] == "1-sigma"

    def test_fit_text_report(self, capsys, config_path, tmp_path):
        trace_path = tmp_path / "trace.csv"
        run_cli(capsys, "synth", "--config", str(config_path), "--seed", "9", "--out", str(trace_path))
        code, out, _ = run_cli(capsys, "fit", "--trace", str(trace_path), "--config", str(config_path))
        assert code == 0
        assert "+/-" in out and "converged = yes" in out

    def test_shot_reference_trace(self, capsys, config_path, tmp_path):
        ref = tmp_path / "shot.csv"
        code, _, _ = run_cli(capsys, "synth", "--config", str(config_path), "--seed", "1",
                             "--out", str(ref), "--shot-reference")
        assert code == 0
        trace = load_trace(ref)
        assert abs(float(trace.powers_db.mean())) < 0.5
        assert trace.metadata["x"] == 0.0

    def test_nonconvergence_exit_code(self, capsys, config_path, tmp_path, monkeypatch):
        import dataclasses

        import sqzlab.fitting

        trace_path = tmp_path / "trace.csv"
        run_cli(capsys, "synth", "--config", str(config_path), "--seed", "8", "--out", str(trace_path))
        real_fit = sqzlab.fitting.fit_trace

        def capped_fit(trace, model=None):
            result = real_fit(trace, model)
            return dataclasses.replace(result, converged=False)

        monkeypatch.setattr(sqzlab.fitting, "fit_trace", capped_fit)
        code, out, _ = run_cli(capsys, "fit", "--trace", str(trace_path), "--config", str(config_path))
        assert code == 2
        assert "converged = no" in out


class TestSweep:
    def test_csv_table(self, capsys, config_path):
        code, out, _ = run_cli(capsys, "sweep", "--config", str(config_path),
                               "--gains", "2,2.8,3.6,4.4,5.3,6,6.7,7.5,8.2,9",
                               "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("power_mw,gain,x,s_min_db,s_max_db")
        assert len(lines) == 11
        smax = [float(ln.split(",")[4]) for ln in lines[1:]]
        smin = [float(ln.split(",")[3]) for ln in lines[1:]]
        assert all(b > a for a, b in zip(smax, smax[1:]))
        assert all(b < a for a, b in zip(smin, smin[1:]))

    def test_text_table_rounds_to_four_significant_digits(self, capsys, config_path):
        code, out, _ = run_cli(capsys, "sweep", "--config", str(config_path),
                               "--powers", "20mW,61mW,200mW")
        assert code == 0
        assert out.splitlines() == [
            "power_mw,gain,x,s_min_db,s_max_db,measured_s_min_db,measured_s_max_db,valid",
            "20,2.485,0.3657,-3.325,5.159,,,true",
            "61,7.658,0.6386,-4.606,10.46,,,true",
            "200,,,,,,,false",
        ]

    def test_measured_attachment(self, capsys, config_path, tmp_path):
        measured = tmp_path / "measured.csv"
        measured.write_text("power_mw,s_min_db,s_max_db\n47.85,-2.75,7.00\n")
        code, out, _ = run_cli(capsys, "sweep", "--config", str(config_path),
                               "--gains", "2,5.3,9", "--measured", str(measured),
                               "--format", "json")
        assert code == 0
        rows = json.loads(out)
        tagged = [r for r in rows if r["measured_s_min_db"] is not None]
        assert len(tagged) == 1
        assert tagged[0]["gain"] == 5.3

    def test_requires_exactly_one_axis(self, capsys, config_path):
        code, _, err = run_cli(capsys, "sweep", "--config", str(config_path))
        assert code == 1
        code, _, err = run_cli(capsys, "sweep", "--config", str(config_path),
                               "--gains", "2,3", "--powers", "10mW")
        assert code == 1

    def test_powers_axis_with_units(self, capsys, config_path):
        code, out, _ = run_cli(capsys, "sweep", "--config", str(config_path),
                               "--powers", "20mW,40mW,61mW", "--format", "json")
        assert code == 0
        rows = json.loads(out)
        assert [r["power_mw"] for r in rows] == pytest.approx([20.0, 40.0, 61.0])
        assert all(r["valid"] for r in rows)

    def test_above_threshold_row_marked(self, capsys, config_path):
        code, out, _ = run_cli(capsys, "sweep", "--config", str(config_path),
                               "--powers", "61mW,200mW", "--format", "json")
        assert code == 0
        rows = json.loads(out)
        assert rows[0]["valid"] and not rows[1]["valid"]
        assert rows[1]["s_min_db"] is None


class TestReconcile:
    def test_quoted_measurement(self, capsys, config_path):
        code, out, _ = run_cli(capsys, "reconcile", "--config", str(config_path),
                               "--measured", "-2.75,7.00", "--format", "json")
        assert code == 0
        report = json.loads(out)
        assert report["gain_scale"] == pytest.approx(0.8210948818791952, abs=1e-6)
        assert report["efficiency_scale"] <= 1.0
        assert report["residual_db"] < 0.05
        assert report["loss_only_feasible"] is False

    def test_text_report(self, capsys, config_path):
        code, out, _ = run_cli(capsys, "reconcile", "--config", str(config_path),
                               "--measured", "-2.75,7.00")
        assert code == 0
        assert "gain_scale = 0.8211" in out
        assert "loss_only = infeasible" in out



class TestMalformedInputs:
    def test_non_numeric_gain_rejected(self, capsys, config_path):
        code, _, err = run_cli(capsys, "sweep", "--config", str(config_path),
                               "--gains", "2,abc")
        assert code == 1
        assert "'abc'" in err

    def test_bad_power_names_the_flag(self, capsys, config_path):
        code, _, err = run_cli(capsys, "sweep", "--config", str(config_path),
                               "--powers", "20mW,xx")
        assert code == 1
        assert "error: --powers: value of 'power' is not a number: 'xx'" in err
        assert "line 0" not in err

    # the config and the CLI read numbers with one grammar: 1_0 and 0x10 leave a
    # suffix on a dimensionless value, inf and nan are not numbers
    @pytest.mark.parametrize("spelling, accepted", [
        ("5.3", True), ("+5.3", True), ("5.", True), (".5e1", True), (" 5", True),
        ("1_0", False), ("inf", False), ("nan", False), ("0x10", False), ("abc", False),
    ])
    def test_config_and_cli_accept_the_same_gains(self, capsys, config_path, spelling, accepted):
        text = config_path.read_text()
        assert "gain = 5.3 " in text
        try:
            parse_config(text.replace("gain = 5.3 ", f"gain = {spelling} ", 1))
            config_accepts = True
        except ConfigError:
            config_accepts = False
        code, _, _ = run_cli(capsys, "sweep", "--config", str(config_path),
                             "--gains", spelling, "--format", "json")
        assert code in (0, 1)
        assert config_accepts == (code == 0) == accepted

    @pytest.mark.parametrize("pair", ["nan,7", "-2.75,inf", "-inf,7"])
    def test_non_finite_level_rejected(self, capsys, config_path, pair):
        code, _, err = run_cli(capsys, "reconcile", "--config", str(config_path),
                               "--measured", pair)
        assert code == 1
        assert "is not a number" in err
        assert pair.split(",")[0] in err or pair.split(",")[1] in err

    def test_reconcile_needs_a_level_pair(self, capsys, config_path):
        code, out, err = run_cli(capsys, "reconcile", "--config", str(config_path),
                                 "--measured=-2.75")
        assert code == 1
        assert out == ""
        assert "expected 'smin_db,smax_db', got '-2.75'" in err

    def test_measured_csv_row_needs_three_fields(self, capsys, config_path, tmp_path):
        measured = tmp_path / "measured.csv"
        measured.write_text("power_mw,s_min_db,s_max_db\n47.85,-2.75\n")
        code, out, err = run_cli(capsys, "sweep", "--config", str(config_path),
                                 "--gains", "2,5.3", "--measured", str(measured))
        assert code == 1
        assert out == ""
        assert "measured.csv:2: expected 'power_mw,s_min_db,s_max_db'" in err

    def test_synth_needs_an_acquisition_block(self, capsys, config_path, tmp_path):
        text = config_path.read_text()
        cfg = tmp_path / "no_acquisition.cfg"
        cfg.write_text(text[: text.index("[acquisition]")])
        code, out, err = run_cli(capsys, "synth", "--config", str(cfg), "--seed", "1",
                                 "--out", str(tmp_path / "trace.csv"))
        assert code == 1
        assert out == ""
        assert "this command needs [acquisition]" in err
        assert not (tmp_path / "trace.csv").exists()

    def test_synth_with_an_overflowing_estimator_dof_is_an_error(self, capsys, config_path,
                                                                 tmp_path):
        cfg = tmp_path / "vbw.cfg"
        cfg.write_text(config_path.read_text().replace("vbw = 30Hz", "vbw = 1e-320Hz"))
        code, out, err = run_cli(capsys, "synth", "--config", str(cfg), "--seed", "1",
                                 "--out", str(tmp_path / "trace.csv"))
        assert code == 1
        assert out == ""
        assert "line 21: video_bandwidth 1e-320 Hz overflows" in err

    def test_synth_with_an_overflowing_scan_phase_is_an_error(self, capsys, config_path, tmp_path):
        cfg = tmp_path / "phase.cfg"
        text = config_path.read_text()
        assert "sweep = 0.2s" in text and "period = 0.2s" in text
        cfg.write_text(text.replace("sweep = 0.2s", "sweep = 1e10s").replace("period = 0.2s",
                                                                            "period = 1e-300s"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy RuntimeWarning on the way
            code, out, err = run_cli(capsys, "synth", "--config", str(cfg), "--seed", "1",
                                     "--out", str(tmp_path / "trace.csv"))
        assert code == 1
        assert out == ""
        assert err == ("error: line 22: sweep_duration 10000000000.0 s at scan period 1e-300 s "
                       "gives a scan phase 2*rate*sweep_duration that overflows\n")
        assert not (tmp_path / "trace.csv").exists()

    def test_predict_at_a_frequency_whose_angular_frequency_overflows_is_an_error(self, capsys,
                                                                                 config_path):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, "predict", "--config", str(config_path),
                                     "--frequency-hz", "1e308")
        assert code == 1
        assert out == ""
        assert err == "error: analysis frequency 1e+308 Hz overflows the angular frequency 2*pi*f\n"

    def test_fit_of_a_header_with_an_overflowing_scan_rate_is_an_error(self, capsys, config_path,
                                                                       tmp_path):
        trace_path = tmp_path / "trace.csv"
        run_cli(capsys, "synth", "--config", str(config_path), "--seed", "42", "--out", str(trace_path))
        text = trace_path.read_text()
        assert "scan_period_s=0.2\n" in text
        trace_path.write_text(text.replace("scan_period_s=0.2\n", "scan_period_s=1e-320\n"))
        code, out, err = run_cli(capsys, "fit", "--trace", str(trace_path), "--config", str(config_path))
        assert code == 1
        assert out == ""
        assert "invalid trace contents: period 1e-320 s gives a scan rate" in err

    @pytest.mark.parametrize("count", ["1e17", "2e18"])  # 8e17 and 1.6e19 bytes of times
    def test_synth_with_an_unallocatable_sample_count_is_an_error(self, capsys, config_path,
                                                                  tmp_path, count):
        cfg = tmp_path / "huge.cfg"
        cfg.write_text(config_path.read_text().replace("samples = 401", f"samples = {count}"))
        code, out, err = run_cli(capsys, "synth", "--config", str(cfg), "--seed", "1",
                                 "--out", str(tmp_path / "trace.csv"))
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: sample_count {int(float(count))} is more float64 times")
        assert err.count("\n") == 1
        assert not (tmp_path / "trace.csv").exists()

    def test_fit_of_a_sweep_too_short_to_separate_the_regressors_is_an_error(self, capsys,
                                                                             config_path, tmp_path):
        cfg, trace_path = tmp_path / "short.cfg", tmp_path / "short.csv"
        cfg.write_text(config_path.read_text().replace("sweep = 0.2s", "sweep = 1e-5s"))
        code, _, _ = run_cli(capsys, "synth", "--config", str(cfg), "--seed", "1",
                             "--out", str(trace_path))
        assert code == 0
        code, out, err = run_cli(capsys, "fit", "--trace", str(trace_path), "--config", str(cfg))
        assert code == 1
        assert out == ""
        assert err.startswith("error: the trace sweeps 0.000628 rad of 2*theta, too little")
        assert err.count("\n") == 1

    def test_reconcile_at_unit_gain_is_a_domain_error(self, capsys, config_path, tmp_path):
        cfg = tmp_path / "unit_gain.cfg"
        cfg.write_text(config_path.read_text().replace("gain = 5.3", "gain = 1.0"))
        code, _, err = run_cli(capsys, "reconcile", "--config", str(cfg),
                               "--measured", "-2.75,7.00")
        assert code == 1
        assert err.startswith("error:") and "x > 0" in err

    def test_a_config_gain_at_threshold_names_its_line(self, capsys, config_path, tmp_path):
        cfg = tmp_path / "huge_gain.cfg"
        cfg.write_text(config_path.read_text().replace("gain = 5.3", "gain = 1e40"))
        code, out, err = run_cli(capsys, "predict", "--config", str(cfg))
        assert code == 1
        assert out == ""
        assert err.startswith("error: line 16: parametric_gain 1e+40 is at threshold to double")

    def test_a_swept_gain_at_threshold_is_named(self, capsys, config_path):
        code, out, err = run_cli(capsys, "sweep", "--config", str(config_path),
                                 "--gains", "2,1e40")
        assert code == 1
        assert out == ""
        assert err.startswith("error: parametric_gain 1e+40 is at threshold to double precision")

    def test_two_measured_rows_on_one_sweep_row_are_an_error(self, capsys, config_path, tmp_path):
        measured = tmp_path / "measured.csv"
        measured.write_text("power_mw,s_min_db,s_max_db\n60,-2.75,7.00\n62,-2.8,7.1\n")
        code, out, err = run_cli(capsys, "sweep", "--config", str(config_path),
                                 "--powers", "61mW,200mW", "--measured", str(measured))
        assert code == 1
        assert out == ""
        assert err == ("error: measured rows at 0.06 W and 0.062 W both attach to "
                       "the sweep row at 0.061 W\n")

    def test_a_negative_measured_power_is_an_error(self, capsys, config_path, tmp_path):
        measured = tmp_path / "measured.csv"
        measured.write_text("power_mw,s_min_db,s_max_db\n-5,-3.0,6.0\n")
        code, out, err = run_cli(capsys, "sweep", "--config", str(config_path),
                                 "--powers", "20mW,61mW", "--measured", str(measured))
        assert code == 1
        assert out == ""
        assert err == "error: measured pump power must be finite and >= 0, got -0.005 W\n"

    def test_a_measured_level_whose_variance_overflows_is_an_error(self, capsys, config_path):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy RuntimeWarning on the way
            code, out, err = run_cli(capsys, "reconcile", "--config", str(config_path),
                                     "--measured", "-2.75,4000", "--format", "json")
        assert code == 1
        assert out == ""
        assert err == "error: observed level 4000.0 dB overflows as a linear variance\n"


class TestNonFiniteInputs:
    def test_measured_csv_nan_rejected(self, capsys, config_path, tmp_path):
        measured = tmp_path / "measured.csv"
        measured.write_text("power_mw,s_min_db,s_max_db\n47.85,nan,7.00\n")
        code, out, err = run_cli(capsys, "sweep", "--config", str(config_path),
                                 "--gains", "2,5.3", "--measured", str(measured))
        assert code == 1
        assert out == ""
        assert "measured.csv:2:" in err and "value of 's_min_db' is not a number: 'nan'" in err

    def test_non_finite_gain_rejected(self, capsys, config_path):
        code, _, err = run_cli(capsys, "sweep", "--config", str(config_path), "--gains", "2,inf")
        assert code == 1
        assert "--gains: value of 'gain' is not a number: 'inf'" in err

    def test_overflowing_power_rejected(self, capsys, config_path):
        code, out, err = run_cli(capsys, "sweep", "--config", str(config_path),
                                 "--powers", "1e400mW", "--format", "json")
        assert code == 1
        assert out == ""
        assert "'power' is not finite" in err

    def test_overflowing_config_value_is_a_parse_error(self, capsys, config_path, tmp_path):
        cfg = tmp_path / "huge.cfg"
        cfg.write_text(config_path.read_text().replace("l = 600mm", "l = 1e400mm"))
        code, _, err = run_cli(capsys, "predict", "--config", str(cfg))
        assert code == 1
        assert "line 5: value of 'l' is not finite" in err

    def test_fit_with_washed_out_jitter_is_an_error(self, capsys, config_path, tmp_path):
        trace_path = tmp_path / "trace.csv"
        run_cli(capsys, "synth", "--config", str(config_path), "--seed", "4", "--out", str(trace_path))
        text = trace_path.read_text()
        trace_path.write_text(text.replace("scan_jitter_rad=0.12", "scan_jitter_rad=30"))
        code, _, err = run_cli(capsys, "fit", "--trace", str(trace_path), "--config", str(config_path))
        assert code == 1
        assert "washes out" in err

    def test_fit_of_an_overflowing_sample_is_an_error(self, capsys, config_path, tmp_path):
        # 1e300 dB parses (it is finite) but overflows as a linear power
        trace_path = tmp_path / "trace.csv"
        run_cli(capsys, "synth", "--config", str(config_path), "--seed", "4", "--out", str(trace_path))
        header, data = trace_path.read_text().split("time_s,power_db\n")
        rows = data.splitlines()
        rows[6] = rows[6].split(",")[0] + ",1e300"
        trace_path.write_text(header + "time_s,power_db\n" + "\n".join(rows) + "\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy RuntimeWarning on the way
            code, out, err = run_cli(capsys, "fit", "--trace", str(trace_path),
                                     "--config", str(config_path))
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and "sample of 1e+300 dB overflows" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("frequency", ["inf", "1e400", "nan"])
    @pytest.mark.parametrize("command, extra", [
        ("predict", []),
        ("sweep", ["--powers", "20mW,61mW"]),
        ("reconcile", ["--measured=-2.75,7.00"]),
    ])
    def test_non_finite_frequency_rejected(self, capsys, config_path, tmp_path, command, extra,
                                           frequency):
        # without [acquisition] the analysis frequency comes from --frequency-hz
        text = config_path.read_text()
        cfg = tmp_path / "no_acquisition.cfg"
        cfg.write_text(text[:text.index("[acquisition]")])
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy RuntimeWarning on the way
            code, out, err = run_cli(capsys, command, "--config", str(cfg), *extra,
                                     "--frequency-hz", frequency)
        assert code == 1
        assert out == ""
        assert "--frequency-hz: value of 'frequency_hz' is not" in err and repr(frequency) in err


class TestEntryPoint:
    def test_console_script(self, config_path):
        proc = subprocess.run([sys.executable, "-m", "sqzlab.cli", "predict",
                               "--config", str(config_path)],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert "P_th = 149.6 mW" in proc.stdout

    def test_usage_error_exit_code(self):
        proc = subprocess.run([sys.executable, "-m", "sqzlab.cli", "predict"],
                              capture_output=True, text=True)
        assert proc.returncode == 1


class TestFormatChoices:
    @pytest.mark.parametrize("command, extra", [
        ("predict", []),
        ("reconcile", ["--measured=-2.75,7.00"]),
        ("synth", ["--seed", "4", "--out", "unused.csv"]),
        ("fit", ["--trace", "unused.csv"]),  # refused before the trace is read
    ])
    def test_csv_is_a_usage_error_outside_sweep(self, capsys, config_path, command, extra):
        # synth writes a trace file, not a report, so it has no --format at all
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", str(config_path), *extra, "--format", "csv"])
        captured = capsys.readouterr()
        assert exc.value.code == 1
        expected = ("unrecognized arguments: --format csv" if command == "synth"
                    else "invalid choice: 'csv'")
        assert expected in captured.err
        assert captured.out == ""


    @pytest.mark.parametrize("command, extra", [
        ("synth", ["--seed", "4", "--out", "unused.csv"]),
        ("fit", ["--trace", "unused.csv"]),
    ])
    def test_frequency_is_a_usage_error_where_no_frequency_is_read(self, capsys, config_path,
                                                                     command, extra):
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", str(config_path), *extra, "--frequency-hz", "2e6"])
        captured = capsys.readouterr()
        assert exc.value.code == 1
        assert "unrecognized arguments: --frequency-hz 2e6" in captured.err
        assert captured.out == ""


class TestFitFormat:
    def test_fit_matches_the_default_library_fit(self, capsys, config_path, tmp_path):
        # the bundled config records 0.12 rad of LO jitter; both paths must use it
        trace_path = tmp_path / "trace.csv"
        run_cli(capsys, "synth", "--config", str(config_path), "--seed", "42", "--out", str(trace_path))
        code, out, _ = run_cli(capsys, "fit", "--trace", str(trace_path),
                               "--config", str(config_path), "--format", "json")
        assert code == 0
        report = json.loads(out)
        default = fit_trace(load_trace(trace_path))
        assert default.levels.s_min_db == report["s_min_db"]
        assert default.levels.s_max_db == report["s_max_db"]
        assert default.s_min_sigma_db == report["s_min_sigma_db"]


class TestFitContext:
    """sqzlab fit reads the clearance from the trace header; the config fills in a
    header that records none and must agree with one that does."""

    @pytest.fixture
    def paths(self, capsys, config_path, tmp_path):
        cfg = tmp_path / "clear20.cfg"
        cfg.write_text(config_path.read_text().replace("clearance = 14.0dB", "clearance = 20.0dB"))
        trace_path = tmp_path / "trace.csv"  # records the bundled 14 dB
        run_cli(capsys, "synth", "--config", str(config_path), "--seed", "42", "--out", str(trace_path))
        return cfg, trace_path

    def test_a_disagreeing_config_is_an_error(self, capsys, paths):
        cfg, trace_path = paths
        code, out, err = run_cli(capsys, "fit", "--trace", str(trace_path), "--config", str(cfg))
        assert code == 1
        assert out == ""
        assert err == ("error: the trace records clearance_db = 14.0 dB but the config "
                       "says clearance = 20.0 dB\n")

    def test_a_header_without_clearance_fits_at_the_config_clearance(self, capsys, paths):
        cfg, trace_path = paths
        lines = trace_path.read_text().splitlines(keepends=True)
        stripped = trace_path.with_name("stripped.csv")
        stripped.write_text("".join(line for line in lines
                                    if not line.startswith("# clearance_db=")))
        recorded = trace_path.with_name("recorded.csv")
        recorded.write_text("".join("# clearance_db=20.0\n" if line.startswith("# clearance_db=")
                                    else line for line in lines))
        reports = []
        for path in (stripped, recorded):
            code, out, _ = run_cli(capsys, "fit", "--trace", str(path), "--config", str(cfg),
                                   "--format", "json")
            assert code == 0
            reports.append(json.loads(out))
        assert reports[0] == reports[1]
        default = fit_trace(load_trace(recorded))
        assert default.model.clearance_db == 20.0
        assert reports[0]["s_min_db"] == default.levels.s_min_db


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


class TestUndeterminedLevel:
    """A fit whose s_min the trace does not determine (1 rad of jitter, seed 3)."""

    @pytest.fixture
    def paths(self, capsys, config_path, tmp_path):
        cfg = tmp_path / "jitter1.cfg"
        cfg.write_text(config_path.read_text().replace("jitter = 0.12rad", "jitter = 1.0rad"))
        trace_path = tmp_path / "trace.csv"
        run_cli(capsys, "synth", "--config", str(cfg), "--seed", "3", "--out", str(trace_path))
        return cfg, trace_path

    def test_json_is_strict_with_a_null_sigma(self, capsys, paths):
        cfg, trace_path = paths
        code, out, _ = run_cli(capsys, "fit", "--trace", str(trace_path), "--config", str(cfg),
                               "--format", "json")
        assert code == 0
        report = json.loads(out, parse_constant=_reject_constant)
        assert report["s_min_sigma_db"] is None
        assert report["s_max_sigma_db"] > 0.0

    def test_text_says_the_sigma_is_unbounded(self, capsys, paths):
        cfg, trace_path = paths
        code, out, _ = run_cli(capsys, "fit", "--trace", str(trace_path), "--config", str(cfg))
        assert code == 0
        assert "1 sigma unbounded" in out.splitlines()[0]
        assert out.splitlines()[1].endswith("dB (1 sigma)")

    def test_text_warns_that_the_level_is_undetermined_not_that_the_trace_is_flat(
            self, capsys, paths):
        cfg, trace_path = paths
        _, out, _ = run_cli(capsys, "fit", "--trace", str(trace_path), "--config", str(cfg))
        assert out.splitlines()[-1].startswith("warning: the trace does not determine s_min,")
        assert "flat trace" not in out


def test_full_rank_fit_of_a_flat_trace_warns_flat_trace(capsys, config_path, tmp_path):
    ref = tmp_path / "shot.csv"
    run_cli(capsys, "synth", "--config", str(config_path), "--seed", "1", "--out", str(ref),
            "--shot-reference")
    result = fit_trace(load_trace(ref))
    assert not result.phase_identifiable
    assert np.isfinite(result.covariance).all()  # full rank: no unbounded parameter
    _, out, _ = run_cli(capsys, "fit", "--trace", str(ref), "--config", str(config_path))
    assert out.splitlines()[-1].startswith("warning: flat trace, phase not identifiable")
    assert "does not determine" not in out
