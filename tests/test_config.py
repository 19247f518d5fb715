import pytest
from hypothesis import given
from hypothesis import strategies as st

from sqzlab import (
    ConfigError,
    format_config,
    load_config,
    parse_config,
    predict_levels,
)
from sqzlab.config import parse_quantity

GOOD = """\
[cavity]
l = 600mm
T = 0.10
L = 0.0173
Enl = 0.023/W

[detection]
eta = 0.99
xi = 0.91
clearance = 14.0dB

[pump]
gain = 5.3

[acquisition]
f = 1MHz
rbw = 100kHz
vbw = 30Hz
sweep = 0.2s
samples = 401

[scan]
period = 0.2s
theta0 = 0rad
jitter = 0.12rad
"""


class TestParseGood:
    def test_values_land_in_si(self):
        cfg = parse_config(GOOD)
        assert cfg.cavity.round_trip_length == pytest.approx(0.600)
        assert cfg.cavity.coupler_transmittance == 0.10
        assert cfg.cavity.nonlinear_efficiency == 0.023
        assert cfg.detection.circuit_noise_clearance_db == 14.0
        assert cfg.pump.parametric_gain == 5.3
        assert cfg.acquisition.center_frequency == 1e6
        assert cfg.acquisition.resolution_bandwidth == 1e5
        assert cfg.acquisition.video_bandwidth == 30.0
        assert cfg.acquisition.sample_count == 401
        assert cfg.acquisition.lo_scan.period == 0.2
        assert cfg.acquisition.lo_scan.jitter_sigma == 0.12

    def test_prediction_from_config(self):
        cfg = parse_config(GOOD)
        levels = predict_levels(cfg.cavity, cfg.detection, cfg.pump,
                                cfg.acquisition.center_frequency)
        assert levels.s_min_db == pytest.approx(-4.356106547452888, abs=1e-9)
        assert levels.s_max_db == pytest.approx(8.886796542330625, abs=1e-9)

    def test_canonical_file_on_disk(self, config_path):
        cfg = load_config(config_path)
        assert cfg.pump.parametric_gain == 5.3
        assert cfg.acquisition is not None

    def test_power_pump_with_units(self):
        text = GOOD.replace("gain = 5.3", "power = 61mW")
        cfg = parse_config(text)
        assert cfg.pump.pump_power == pytest.approx(0.061)

    def test_pump_parameter_variant(self):
        cfg = parse_config(GOOD.replace("gain = 5.3", "x = 0.57"))
        assert cfg.pump.pump_parameter == 0.57
        assert cfg.pump.kind == "x"

    def test_scan_optional(self):
        text = GOOD[: GOOD.index("[scan]")]
        cfg = parse_config(text)
        assert cfg.acquisition.lo_scan.period == cfg.acquisition.sweep_duration
        assert cfg.acquisition.lo_scan.jitter_sigma == 0.0

    def test_acquisition_optional(self):
        text = GOOD[: GOOD.index("[acquisition]")]
        cfg = parse_config(text)
        assert cfg.acquisition is None

    def test_comments_and_blank_lines_ignored(self):
        text = "# leading comment\n\n" + GOOD.replace("T = 0.10", "T = 0.10  # coupler")
        assert parse_config(text).cavity.coupler_transmittance == 0.10


class TestParseErrors:
    def test_empty_input(self):
        with pytest.raises(ConfigError, match="missing cavity block"):
            parse_config("")

    def test_out_of_range_names_field_and_line(self):
        bad = GOOD.replace("T = 0.10", "T = 1.2")
        with pytest.raises(ConfigError, match=r"line 3: coupler_transmittance"):
            parse_config(bad)

    def test_unknown_key_with_line(self):
        bad = GOOD.replace("L = 0.0173", "Lx = 0.0173")
        with pytest.raises(ConfigError, match=r"line 4: unknown key 'Lx'"):
            parse_config(bad)

    def test_unknown_section(self):
        with pytest.raises(ConfigError, match=r"line 1: unknown section"):
            parse_config("[magnetics]\nB = 1\n")

    def test_bad_unit_suffix(self):
        bad = GOOD.replace("l = 600mm", "l = 600s")
        with pytest.raises(ConfigError, match=r"line 2: bad unit suffix 's'"):
            parse_config(bad)

    def test_missing_unit_on_dimensioned_value(self):
        bad = GOOD.replace("clearance = 14.0dB", "clearance = 14.0")
        with pytest.raises(ConfigError, match="bad unit suffix"):
            parse_config(bad)

    def test_suffix_on_dimensionless_value(self):
        bad = GOOD.replace("T = 0.10", "T = 0.10mm")
        with pytest.raises(ConfigError, match="dimensionless"):
            parse_config(bad)

    def test_out_of_domain_clearance_is_reported_on_its_line(self):
        bad = GOOD.replace("clearance = 14.0dB", "clearance = 0dB")
        with pytest.raises(ConfigError, match=r"^line 10: circuit_noise_clearance_db: "
                                              r"clearance must be finite and > 0 dB, got 0.0$"):
            parse_config(bad)

    def test_duplicate_section(self):
        with pytest.raises(ConfigError, match=r"^line 26: duplicate section \[pump\]$"):
            parse_config(GOOD + "[pump]\n")

    def test_empty_value(self):
        with pytest.raises(ConfigError, match=r"^line 3: empty value for 'T'$"):
            parse_config(GOOD.replace("T = 0.10", "T ="))

    def test_duplicate_key(self):
        bad = GOOD.replace("T = 0.10", "T = 0.10\nT = 0.2")
        with pytest.raises(ConfigError, match="duplicate key 'T'"):
            parse_config(bad)

    def test_missing_required_key(self):
        bad = GOOD.replace("Enl = 0.023/W\n", "")
        with pytest.raises(ConfigError, match=r"\[cavity\] block is missing key\(s\): Enl"):
            parse_config(bad)

    def test_pump_needs_exactly_one(self):
        bad = GOOD.replace("gain = 5.3", "gain = 5.3\npower = 61mW")
        with pytest.raises(ConfigError, match="exactly one of gain/power/x"):
            parse_config(bad)
        bad = GOOD.replace("gain = 5.3\n", "")
        with pytest.raises(ConfigError, match="exactly one of gain/power/x"):
            parse_config(bad)

    def test_key_outside_section(self):
        with pytest.raises(ConfigError, match="outside any"):
            parse_config("T = 0.1\n")

    def test_scan_without_acquisition(self):
        text = GOOD[: GOOD.index("[acquisition]")] + "[scan]\nperiod = 0.2s\n"
        with pytest.raises(ConfigError, match="requires an \\[acquisition\\]"):
            parse_config(text)

    def test_non_integer_samples(self):
        bad = GOOD.replace("samples = 401", "samples = 40.5")
        with pytest.raises(ConfigError, match="integer"):
            parse_config(bad)

    def test_negative_jitter_located(self):
        bad = GOOD.replace("jitter = 0.12rad", "jitter = -0.1rad")
        with pytest.raises(ConfigError, match="jitter_sigma"):
            parse_config(bad)

    def test_vbw_above_rbw_located(self):
        bad = GOOD.replace("vbw = 30Hz", "vbw = 200kHz")
        with pytest.raises(ConfigError, match="video_bandwidth"):
            parse_config(bad)


class TestParsingIsTotal:
    @given(st.text(max_size=300))
    def test_arbitrary_text_never_crashes(self, text):
        try:
            parse_config(text)
        except ConfigError:
            pass

    @given(st.text(alphabet="[]cavity detection pump\n=0.19TLmW#", max_size=200))
    def test_config_shaped_garbage_never_crashes(self, text):
        try:
            parse_config(text)
        except ConfigError:
            pass


class TestRoundTrip:
    def test_value_level_round_trip(self):
        cfg = parse_config(GOOD)
        assert parse_config(format_config(cfg)) == cfg

    def test_round_trip_without_acquisition(self):
        cfg = parse_config(GOOD[: GOOD.index("[acquisition]")])
        assert parse_config(format_config(cfg)) == cfg

    def test_round_trip_power_pump(self):
        cfg = parse_config(GOOD.replace("gain = 5.3", "power = 61mW"))
        assert parse_config(format_config(cfg)) == cfg


class TestNonFiniteNumbers:
    @pytest.mark.parametrize("old, new, key, line", [
        ("l = 600mm", "l = 1e400mm", "l", 2),
        ("samples = 401", "samples = 1e400", "samples", 20),
        ("f = 1MHz", "f = 1e300GHz", "f", 16),
    ])
    def test_overflowing_value_names_key_and_line(self, old, new, key, line):
        with pytest.raises(ConfigError, match=rf"line {line}: value of '{key}' is not finite"):
            parse_config(GOOD.replace(old, new))

    def test_parse_quantity_rejects_overflow(self):
        with pytest.raises(ConfigError, match="'power' is not finite"):
            parse_quantity("1e400mW", "power", "power", "line 1")

    def test_count_kind_gives_an_int(self):
        value = parse_quantity("401", "count", "samples", "line 1")
        assert value == 401 and isinstance(value, int)


class TestDerivedDomains:
    """A value whose derived quantity overflows is reported on its key's line."""

    @pytest.mark.parametrize("old, new, message", [
        ("vbw = 30Hz", "vbw = 1e-320Hz", r"^line 18: video_bandwidth 1e-320 Hz overflows 2\*RBW/VBW$"),
        ("samples = 401", "samples = 1e300", r"^line 20: sample_count must be at most \d+, got 1e\+300$"),
        ("period = 0.2s", "period = 1e-320s",
         r"^line 23: period 1e-320 s gives a scan rate 2\*pi/period that overflows$"),
        ("sweep = 0.2s", "sweep = 1e307s",
         r"^line 19: sweep_duration 1e\+307 s at scan period 0.2 s gives a scan phase "
         r"2\*rate\*sweep_duration that overflows$"),
    ])
    def test_overflowing_derived_quantity_names_key_and_line(self, old, new, message):
        assert old in GOOD
        with pytest.raises(ConfigError, match=message):
            parse_config(GOOD.replace(old, new))


class TestDefaultScan:
    def test_zero_sweep_without_scan_is_located(self):
        text = GOOD[: GOOD.index("[scan]")].replace("sweep = 0.2s", "sweep = 0s")
        with pytest.raises(ConfigError, match=r"^line 19: scan period must be > 0"):
            parse_config(text)


class TestExplicitScan:
    def test_zero_period_is_located_on_its_line(self, config_path):
        text = config_path.read_text()
        assert text.splitlines()[25].startswith("period = 0.2s")
        with pytest.raises(ConfigError, match=r"^line 26: scan period must be > 0"):
            parse_config(text.replace("period = 0.2s", "period = 0s"))


BUNDLED_TEXT = """\
[cavity]
l = 0.6m
T = 0.1
L = 0.0173
Enl = 0.023/W

[detection]
eta = 0.99
xi = 0.91
prop = 1.0
clearance = 14.0dB

[pump]
gain = 5.3

[acquisition]
f = 1000000.0Hz
rbw = 100000.0Hz
vbw = 30.0Hz
sweep = 0.2s
samples = 401

[scan]
period = 0.2s
theta0 = 0.0rad
jitter = 0.12rad
"""


class TestCanonicalText:
    """format_config output pinned byte for byte: a reordered key or a
    changed suffix would still round-trip by value."""

    def test_bundled_config(self, config_path):
        assert format_config(load_config(config_path)) == BUNDLED_TEXT

    def test_power_pump(self, config_path):
        text = config_path.read_text().replace("gain = 5.3", "power = 61mW")
        expected = BUNDLED_TEXT.replace("gain = 5.3", "power = 0.061W")
        assert format_config(parse_config(text)) == expected

    def test_without_acquisition(self, config_path):
        text = config_path.read_text()
        cfg = parse_config(text[: text.index("[acquisition]")])
        assert format_config(cfg) == BUNDLED_TEXT[: BUNDLED_TEXT.index("\n[acquisition]")]
