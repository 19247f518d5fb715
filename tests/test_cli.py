import json
import subprocess
import sys
from typing import NamedTuple

import numpy as np
import pytest

from sqzlab import (
    ConfigError,
    PumpSpec,
    VarianceLevels,
    cavity_decay_rate,
    fit_trace,
    load_config,
    load_trace,
    loss_only_explanation_check,
    min_max_levels,
    operating_point,
    parse_config,
    predict_levels,
    reconcile_discrepancy,
    sweep_pump,
    threshold_power,
)

from conftest import ALPHA, CANONICAL_CONFIG, OMEGA, RHO, X, assert_refused, run_cli, strict_json

BUNDLED = CANONICAL_CONFIG.read_text()
NO_ACQUISITION = BUNDLED[:BUNDLED.index("[acquisition]")]


def _edited(text, edits):
    for old, new in edits.items():
        assert old in text, old
        text = text.replace(old, new)
    return text


SYNTH = "synth --config {cfg} --seed 1 --out {out}"


def _fit_of(seed, config="{cfg}"):
    """A session that writes the trace of config at seed and fits it with the row's config."""
    return f"synth --config {config} --seed {seed} --out {{trace}} ; fit --trace {{trace}} --config {{cfg}}"


class Refusal(NamedTuple):
    """One CLI session whose last command is refused.  argv's commands, split
    at ' ; ', run in turn, every one but the last to exit 0; in them {cfg} is
    the row's config (config itself if text, else the bundled one with each
    old: new of config replaced), {bundled} the bundled config, {trace} the
    trace the session writes (each old: new of trace replaced before the last
    command), {csv} a measured CSV holding measured and {out} synth's output."""

    id: str
    argv: str
    expected: str
    config: str | dict = {}
    trace: dict = {}
    measured: str = ""


_MEASURED_HEADER = "power_mw,s_min_db,s_max_db\n"
_FREQUENCY_COMMANDS = [("predict", ""), ("sweep", "--powers 20mW,61mW"),
                       ("reconcile", "--measured=-2.75,7.00")]

# The one home of each CLI refusal: the id is the test that pinned it before
# the table, with its parametrization.
REFUSALS = [
    Refusal("test_parse_error_exit_code", "predict --config {cfg}",
            "error: missing detection block", config="[cavity]\nT = 1.2\n"),
    Refusal("test_missing_file_exit_code", "predict --config /nonexistent.cfg",
            "error: [Errno 2] No such file or directory: '/nonexistent.cfg'"),
    Refusal("test_requires_exactly_one_axis[neither]", "sweep --config {cfg}",
            "error: provide exactly one of --gains or --powers"),
    Refusal("test_requires_exactly_one_axis[both]",
            "sweep --config {cfg} --gains 2,3 --powers 10mW",
            "error: provide exactly one of --gains or --powers"),
    Refusal("test_non_numeric_gain_rejected", "sweep --config {cfg} --gains 2,abc",
            "error: --gains: value of 'gain' is not a number: 'abc'"),
    Refusal("test_bad_power_names_the_flag", "sweep --config {cfg} --powers 20mW,xx",
            "error: --powers: value of 'power' is not a number: 'xx'"),
    *(Refusal(f"test_non_finite_level_rejected[{pair}]",
              f"reconcile --config {{cfg}} --measured {pair}",
              f"error: --measured: value of '{key}' is not a number: '{value}'")
      for pair, key, value in [("nan,7", "s_min_db", "nan"), ("-2.75,inf", "s_max_db", "inf"),
                               ("-inf,7", "s_min_db", "-inf")]),
    Refusal("test_reconcile_needs_a_level_pair", "reconcile --config {cfg} --measured=-2.75",
            "error: expected 'smin_db,smax_db', got '-2.75'"),
    Refusal("test_measured_csv_row_needs_three_fields",
            "sweep --config {cfg} --gains 2,5.3 --measured {csv}",
            "measured.csv:2: expected 'power_mw,s_min_db,s_max_db'",
            measured=_MEASURED_HEADER + "47.85,-2.75\n"),
    Refusal("test_synth_needs_an_acquisition_block", SYNTH,
            "error: this command needs [acquisition]", config=NO_ACQUISITION),
    Refusal("test_synth_with_a_negative_seed_is_an_error", "synth --config {cfg} --seed -1 --out {out}",
            "error: seed must be a non-negative integer, got -1"),
    Refusal("test_synth_with_an_overflowing_estimator_dof_is_an_error", SYNTH,
            "error: line 21: video_bandwidth 1e-320 Hz overflows 2*RBW/VBW",
            config={"vbw = 30Hz": "vbw = 1e-320Hz"}),
    Refusal("test_synth_with_an_overflowing_scan_phase_is_an_error", SYNTH,
            "error: line 22: sweep_duration 10000000000.0 s at scan period 1e-300 s "
            "gives a scan phase 2*rate*sweep_duration that overflows",
            config={"sweep = 0.2s": "sweep = 1e10s", "period = 0.2s": "period = 1e-300s"}),
    *(Refusal(f"test_a_negative_frequency_is_named_in_hz[{command}-extra{i}]",
              f"{command} --config {{cfg}} {extra} --frequency-hz -1",
              "error: analysis frequency must be finite and > 0, got -1.0")
      for i, (command, extra) in enumerate(_FREQUENCY_COMMANDS)),
    Refusal("test_predict_at_a_frequency_whose_angular_frequency_overflows_is_an_error",
            "predict --config {cfg} --frequency-hz 1e308",
            "error: analysis frequency 1e+308 Hz overflows the angular frequency 2*pi*f"),
    Refusal("test_fit_of_a_header_with_an_overflowing_scan_rate_is_an_error", _fit_of(42),
            "error: invalid trace contents: period 1e-320 s gives a scan rate",
            trace={"scan_period_s=0.2\n": "scan_period_s=1e-320\n"}),
    Refusal("test_fit_of_a_header_that_repeats_a_key_is_an_error", _fit_of(42),
            "error: line 10: duplicate header key 'scan_jitter_rad'",
            trace={"# scan_jitter_rad=0.12\n": "# scan_jitter_rad=0.12\n" * 2}),
    *(Refusal(f"test_synth_with_an_unallocatable_sample_count_is_an_error[{count}]", SYNTH,
              f"error: sample_count {int(float(count))} is more float64 times",
              config={"samples = 401": f"samples = {count}"})
      for count in ("1e17", "2e18")),  # 8e17 and 1.6e19 bytes of times
    Refusal("test_fit_of_a_sweep_too_short_to_separate_the_regressors_is_an_error", _fit_of(1),
            "error: the trace sweeps 0.000628 rad of 2*theta, too little",
            config={"sweep = 0.2s": "sweep = 1e-5s"}),
    Refusal("test_reconcile_at_unit_gain_is_a_domain_error",
            "reconcile --config {cfg} --measured -2.75,7.00",
            "error: loss-only check needs a pump above zero (x > 0)",
            config={"gain = 5.3": "gain = 1.0"}),
    Refusal("test_a_config_gain_at_threshold_names_its_line", "predict --config {cfg}",
            "error: line 16: parametric_gain 1e+40 is at threshold to double",
            config={"gain = 5.3": "gain = 1e40"}),
    Refusal("test_a_swept_gain_at_threshold_is_named", "sweep --config {cfg} --gains 2,1e40",
            "error: parametric_gain 1e+40 is at threshold to double precision"),
    Refusal("test_two_measured_rows_on_one_sweep_row_are_an_error",
            "sweep --config {cfg} --powers 61mW,200mW --measured {csv}",
            "error: measured rows at 0.06 W and 0.062 W both attach to the sweep row at 0.061 W",
            measured=_MEASURED_HEADER + "60,-2.75,7.00\n62,-2.8,7.1\n"),
    Refusal("test_a_negative_measured_power_is_an_error",
            "sweep --config {cfg} --powers 20mW,61mW --measured {csv}",
            "error: measured pump power must be finite and >= 0, got -0.005 W",
            measured=_MEASURED_HEADER + "-5,-3.0,6.0\n"),
    Refusal("test_a_measured_level_whose_variance_overflows_is_an_error",
            "reconcile --config {cfg} --measured -2.75,4000 --format json",
            "error: observed level 4000.0 dB overflows as a linear variance"),
    Refusal("test_measured_csv_nan_rejected",
            "sweep --config {cfg} --gains 2,5.3 --measured {csv}",
            "measured.csv:2: value of 's_min_db' is not a number: 'nan'",
            measured=_MEASURED_HEADER + "47.85,nan,7.00\n"),
    Refusal("test_non_finite_gain_rejected", "sweep --config {cfg} --gains 2,inf",
            "error: --gains: value of 'gain' is not a number: 'inf'"),
    Refusal("test_overflowing_power_rejected", "sweep --config {cfg} --powers 1e400mW --format json",
            "error: --powers: value of 'power' is not finite: '1e400mW'"),
    Refusal("test_predict_with_a_decay_rate_that_overflows_is_an_error", "predict --config {cfg}",
            "error: line 4: cavity decay rate c*(T + L)/l overflows",
            config={"l = 600mm": "l = 1e-300mm"}),
    Refusal("test_overflowing_config_value_is_a_parse_error", "predict --config {cfg}",
            "error: line 5: value of 'l' is not finite: '1e400mm'",
            config={"l = 600mm": "l = 1e400mm"}),
    Refusal("test_fit_with_washed_out_jitter_is_an_error", _fit_of(4),
            "error: invalid trace contents: jitter_sigma = 30.0 rad washes out",
            trace={"scan_jitter_rad=0.12": "scan_jitter_rad=30"}),
    # 1e300 dB parses (it is finite) but overflows as a linear power
    Refusal("test_fit_of_an_overflowing_sample_is_an_error", _fit_of(4), "sample of 1e+300 dB overflows",
            trace={"\n0.003,8.78346975509489\n": "\n0.003,1e300\n"}),
    # without [acquisition] the analysis frequency comes from --frequency-hz
    *(Refusal(f"test_non_finite_frequency_rejected[{command}-extra{i}-{frequency}]",
              f"{command} --config {{cfg}} {extra} --frequency-hz {frequency}",
              "error: --frequency-hz: value of 'frequency_hz' is not "
              f"{'finite' if frequency == '1e400' else 'a number'}: {frequency!r}",
              config=NO_ACQUISITION)
      for i, (command, extra) in enumerate(_FREQUENCY_COMMANDS)
      for frequency in ("inf", "1e400", "nan")),
    # sqzlab fit reads the clearance from the trace header; the config must agree
    Refusal("test_a_disagreeing_config_is_an_error", _fit_of(42, config="{bundled}"),
            "error: the trace records clearance_db = 14.0 dB but the config "
            "says clearance = 20.0 dB", config={"clearance = 14.0dB": "clearance = 20.0dB"}),
    # usage errors: synth writes a trace file, not a report, so it has no --format at all
    *(Refusal(f"test_csv_is_a_usage_error_outside_sweep[{command}-extra{i}]",
              f"{command} --config {{cfg}} {extra} --format csv",
              "error: unrecognized arguments: --format csv" if command == "synth"
              else "error: argument --format: invalid choice: 'csv'")
      for i, (command, extra) in enumerate([
          ("predict", ""), ("reconcile", "--measured=-2.75,7.00"),
          ("synth", "--seed 4 --out {out}"),
          ("fit", "--trace unused.csv")])),  # refused before the trace is read
    *(Refusal(f"test_frequency_is_a_usage_error_where_no_frequency_is_read[{command}-extra{i}]",
              f"{command} --config {{cfg}} {extra} --frequency-hz 2e6",
              "error: unrecognized arguments: --frequency-hz 2e6")
      for i, (command, extra) in enumerate([("synth", "--seed 4 --out {out}"),
                                            ("fit", "--trace unused.csv")])),
    # the floor 10^(-clearance/10) is 0 above ~3236 dB, and with no floor a
    # jittered fit's s_min Jacobian column is 0/0
    Refusal("test_synth_with_a_clearance_whose_floor_underflows_is_an_error", SYNTH,
            "error: line 13: circuit_noise_clearance_db: clearance 1e+154 dB gives a floor "
            "that underflows to 0",
            config={"clearance = 14.0dB": "clearance = 1e154dB", "jitter = 0.12rad": "jitter = 3rad"}),
    # exp(-2*sigma^2) underflows to 0 above ~19.3 rad, and at 1.7e308 rad synth's
    # jitter draws overflow to inf
    Refusal("test_synth_with_a_jitter_that_washes_out_the_modulation_is_an_error", SYNTH,
            "error: line 28: jitter_sigma = 1.7e+308 rad washes out the phase modulation",
            config={"jitter = 0.12rad": "jitter = 1.7e308rad"}),
]


@pytest.mark.parametrize("row", REFUSALS, ids=[row.id for row in REFUSALS])
def test_refusal(capfd, tmp_path, row):
    # capfd: nothing may reach file descriptor 1, not even from C code
    paths = {name: tmp_path / file for name, file in [
        ("cfg", "row.cfg"), ("trace", "trace.csv"), ("csv", "measured.csv"), ("out", "out.csv")]}
    paths["cfg"].write_text(_edited(BUNDLED, row.config) if isinstance(row.config, dict) else row.config)
    paths["csv"].write_text(row.measured)
    *session, refused = [[token.format(bundled=CANONICAL_CONFIG, **paths) for token in command.split()]
                         for command in row.argv.split(" ; ")]
    for command in session:
        assert run_cli(capfd, *command)[0] == 0
    if row.trace:
        paths["trace"].write_text(_edited(paths["trace"].read_text(), row.trace))
    assert_refused(run_cli(capfd, *refused), row.expected, paths["out"])


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

    def test_fit_of_the_seed_42_trace_gives_its_pinned_levels(self, capsys, config_path,
                                                              tmp_path):
        trace_path = tmp_path / "trace.csv"
        run_cli(capsys, "synth", "--config", str(config_path), "--seed", "42", "--out", str(trace_path))
        code, out, _ = run_cli(capsys, "fit", "--trace", str(trace_path),
                               "--config", str(config_path), "--format", "json")
        assert code == 0
        report = json.loads(out)
        assert abs(report["s_min_db"] - -4.095287667) < 1e-6
        assert abs(report["s_max_db"] - 8.838654856) < 1e-6
        assert report["iterations"] == 5 and report["converged"] is True
        truth = min_max_levels(ALPHA, RHO, X, OMEGA)  # each level within 2 sigma of the truth
        assert abs(report["s_min_db"] - truth.s_min_db) < 2 * report["s_min_sigma_db"]
        assert abs(report["s_max_db"] - truth.s_max_db) < 2 * report["s_max_sigma_db"]

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


SWEEP_POWERS_W = (0.020, 0.061, 0.200)  # the last above threshold


def _library_report(argv, cfg, frequency_hz):
    """What --format json prints for argv, built from the library's results."""
    args = (cfg.cavity, cfg.detection, cfg.pump, frequency_hz)
    if argv[0] == "predict":
        alpha, rho, x, omega_norm = operating_point(*args)
        levels = predict_levels(*args)
        return {"threshold_w": threshold_power(cfg.cavity), "escape_efficiency": rho,
                "detection_efficiency": alpha, "decay_rate_rad_s": cavity_decay_rate(cfg.cavity),
                "detuning": omega_norm, "pump_parameter": x, "s_min_db": levels.s_min_db,
                "s_max_db": levels.s_max_db, "observed_s_min_db": None,
                "observed_s_max_db": None, "note": None}
    if argv[0] == "reconcile":
        pair_db = map(float, argv[1].removeprefix("--measured=").split(","))
        measured = VarianceLevels.from_db(*pair_db)
        result = reconcile_discrepancy(measured, *args)
        loss_only = loss_only_explanation_check(measured, *args)
        return {"gain_scale": result.gain_scale, "efficiency_scale": result.efficiency_scale,
                "residual_db": result.residual_db,
                "amplitude_gain_scale": result.amplitude_gain_scale,
                "corrected_gain": result.corrected_gain, "exact_match": result.exact_match,
                "loss_only_feasible": loss_only.feasible,
                "loss_only_efficiency_scale": loss_only.efficiency_scale,
                "loss_only_s_max_error_db": loss_only.s_max_error_db}
    rows = sweep_pump(cfg.cavity, cfg.detection,
                      [PumpSpec(pump_power=p) for p in SWEEP_POWERS_W], frequency_hz)
    return [{"power_mw": r.pump_power * 1e3, "gain": r.parametric_gain, "x": r.pump_parameter,
             "s_min_db": r.predicted.s_min_db if r.predicted else None,
             "s_max_db": r.predicted.s_max_db if r.predicted else None,
             "measured_s_min_db": None, "measured_s_max_db": None, "valid": r.valid}
            for r in rows]


class TestFullPrecision:
    """--format json writes the library's floats by repr (json.dumps's float
    format), so the float.hex goldens of test_scalar_path pin the CLI too, and
    the seed-42 pin of TestSynthFit the fit's levels."""

    @pytest.mark.parametrize("argv", [
        ["predict"],
        *(["reconcile", f"--measured={pair}"]
          for pair in ("-2.75,7.00", "-0.5,14.0", "-6.0,2.0", "-3.97,8.15")),
        ["sweep", "--powers", "20mW,61mW,200mW"],
    ], ids=lambda argv: " ".join(argv))
    def test_json_is_the_library_result(self, capsys, config_path, argv):
        cfg = load_config(config_path)
        code, out, _ = run_cli(capsys, *argv, "--config", str(config_path), "--format", "json")
        assert code == 0
        expected = _library_report(argv, cfg, cfg.acquisition.center_frequency)
        assert out == json.dumps(expected, indent=2) + "\n"

    def test_sweep_csv_is_the_library_result(self, capsys, config_path):
        cfg = load_config(config_path)
        argv = ["sweep", "--powers", "20mW,61mW,200mW"]
        code, out, _ = run_cli(capsys, *argv, "--config", str(config_path), "--format", "csv")
        assert code == 0
        records = _library_report(argv, cfg, cfg.acquisition.center_frequency)
        assert out.splitlines() == [",".join(records[0])] + [
            ",".join("" if v is None else str(v).lower() if isinstance(v, bool) else repr(v)
                     for v in record.values()) for record in records]

    def test_fit_json_is_the_library_result(self, capsys, config_path, tmp_path):
        # the default fit in the trace's recorded context, 0.12 rad of LO jitter included
        trace_path = tmp_path / "trace.csv"
        run_cli(capsys, "synth", "--config", str(config_path), "--seed", "42", "--out", str(trace_path))
        code, out, _ = run_cli(capsys, "fit", "--trace", str(trace_path),
                               "--config", str(config_path), "--format", "json")
        assert code == 0
        result = fit_trace(load_trace(trace_path))
        expected = {"s_min_db": result.levels.s_min_db, "s_min_sigma_db": result.s_min_sigma_db,
                    "s_max_db": result.levels.s_max_db, "s_max_sigma_db": result.s_max_sigma_db,
                    "theta0_rad": result.model.theta0, "scan_rate_rad_s": result.model.scan_rate,
                    "residual_rms_db": result.residual_rms_db, "iterations": result.iterations,
                    "converged": result.converged, "phase_identifiable": result.phase_identifiable,
                    "uncertainty_convention": "1-sigma"}
        assert out == json.dumps(expected, indent=2) + "\n"




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


class TestFitContext:
    """sqzlab fit reads the clearance from the trace header; the config fills in a
    header that records none (a disagreeing one is a refusal row)."""

    def test_a_header_without_clearance_fits_at_the_config_clearance(self, capsys, config_path,
                                                                      tmp_path):
        cfg = tmp_path / "clear20.cfg"
        cfg.write_text(config_path.read_text().replace("clearance = 14.0dB", "clearance = 20.0dB"))
        trace_path = tmp_path / "trace.csv"  # records the bundled 14 dB
        run_cli(capsys, "synth", "--config", str(config_path), "--seed", "42", "--out", str(trace_path))
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
        report = strict_json(out)
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
