import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sqzlab import (
    AcquisitionSettings,
    NoiseTrace,
    PhaseScan,
    TraceFormatError,
    load_config,
    operating_point,
    parse_trace,
    serialize_trace,
    synthesize_trace,
)


def _trace(times, powers, **meta):
    acq = AcquisitionSettings(center_frequency=1e6, resolution_bandwidth=1e5,
                              video_bandwidth=30.0, sweep_duration=float(times[-1]) or 1.0,
                              sample_count=max(len(times), 2),
                              lo_scan=PhaseScan(period=0.2, theta0=0.1, jitter_sigma=0.05))
    return NoiseTrace(times=np.asarray(times, float), powers_db=np.asarray(powers, float),
                      acquisition=acq, metadata=meta)


def _assert_traces_equal(a, b):
    assert np.array_equal(a.times, b.times)
    assert np.array_equal(a.powers_db, b.powers_db)
    assert a.acquisition == b.acquisition
    assert a.shot_reference_db == b.shot_reference_db
    assert a.metadata == b.metadata


class TestRoundTrip:
    def test_synthesized_trace_round_trips_exactly(self, chain, acquisition):
        trace = synthesize_trace(0.82, 0.85, 0.57, 0.107, chain, acquisition, 42)
        _assert_traces_equal(parse_trace(serialize_trace(trace)), trace)

    def test_text_is_canonical(self, chain, acquisition):
        trace = synthesize_trace(0.82, 0.85, 0.57, 0.107, chain, acquisition, 1)
        text = serialize_trace(trace)
        assert serialize_trace(parse_trace(text)) == text

    def test_no_exponent_notation_in_file(self):
        trace = _trace([0.0, 1e-07, 2e-07, 1.0], [-4.5e-05, 1e12, -7.25, 0.125])
        text = serialize_trace(trace)
        body = [ln for ln in text.splitlines() if not ln.startswith("#")]
        assert all("e" not in ln and "E" not in ln for ln in body[1:])
        _assert_traces_equal(parse_trace(text), trace)

    @given(st.lists(st.floats(min_value=-80.0, max_value=80.0,
                              allow_nan=False, allow_infinity=False),
                    min_size=2, max_size=40))
    def test_arbitrary_powers_round_trip(self, powers):
        times = np.arange(len(powers)) * 0.001 + 0.0005
        trace = _trace(times, powers, seed=3, x=0.5656)
        _assert_traces_equal(parse_trace(serialize_trace(trace)), trace)

    def test_metadata_survives(self):
        trace = _trace([0.0, 0.1], [1.0, -1.0], alpha=0.82, seed=9, label="run-a")
        back = parse_trace(serialize_trace(trace))
        assert back.metadata == {"alpha": 0.82, "seed": 9, "label": "run-a"}


class TestParsingIsTotal:
    @given(st.text(max_size=300))
    def test_arbitrary_text_never_crashes(self, text):
        try:
            parse_trace(text)
        except TraceFormatError:
            pass

    @given(st.text(alphabet="#=_,.0123456789eE\n abcz", max_size=200))
    def test_trace_shaped_garbage_never_crashes(self, text):
        try:
            parse_trace(text)
        except TraceFormatError:
            pass


class TestParseErrors:
    def test_bad_row_reports_line(self, chain, acquisition):
        text = serialize_trace(synthesize_trace(0.8, 0.8, 0.5, 0.1, chain, acquisition, 2))
        broken = text.replace("\n", "\nnot,a,row\n", 1)
        with pytest.raises(TraceFormatError, match="line 2"):
            parse_trace(broken)

    def test_non_numeric_sample(self):
        with pytest.raises(TraceFormatError, match="non-numeric"):
            parse_trace("# f_hz=1\ntime_s,power_db\nabc,def\n")

    def test_missing_header_fields(self):
        with pytest.raises(TraceFormatError, match="missing header"):
            parse_trace("# f_hz=1000000\ntime_s,power_db\n0.0,0.0\n0.1,0.1\n")

    def test_empty_input(self):
        with pytest.raises(TraceFormatError):
            parse_trace("")

    def test_header_without_equals(self):
        with pytest.raises(TraceFormatError, match="key=value"):
            parse_trace("# just a comment\n0.0,0.0\n")

    def test_bad_header_value_type(self, chain, acquisition):
        text = serialize_trace(synthesize_trace(0.8, 0.8, 0.5, 0.1, chain, acquisition, 4))
        with pytest.raises(TraceFormatError, match="invalid trace"):
            parse_trace(text.replace("samples=401", "samples=lots"))

    def test_non_finite_power_rejected(self, chain, acquisition):
        text = serialize_trace(synthesize_trace(0.8, 0.8, 0.5, 0.1, chain, acquisition, 4))
        with pytest.raises(TraceFormatError, match="invalid trace"):
            parse_trace(text.replace("time_s,power_db\n0.0,", "time_s,power_db\n0.0,inf\n0.00003,", 1))


class TestSampleCountHeader:
    def test_header_count_must_match_rows(self, chain, acquisition):
        text = serialize_trace(synthesize_trace(0.8, 0.8, 0.5, 0.1, chain, acquisition, 5))
        with pytest.raises(TraceFormatError, match="samples=7 but the file has 401 data rows"):
            parse_trace(text.replace("samples=401", "samples=7"))


class TestHeaderNumbers:
    @pytest.mark.parametrize("old, new", [
        ("samples=401", "samples=1e400"),
        ("scan_period_s=0.2", "scan_period_s=1e400"),
        ("scan_theta0_rad=0.0", "scan_theta0_rad=nan"),
        ("scan_jitter_rad=0.0", "scan_jitter_rad=1e400"),
        ("f_hz=1000000.0", "f_hz=inf"),
        ("shot_reference_db=0.0", "shot_reference_db=nan"),
    ])
    def test_non_finite_header_number_rejected(self, chain, acquisition, old, new):
        text = serialize_trace(synthesize_trace(0.8, 0.8, 0.5, 0.1, chain, acquisition, 4))
        assert old in text
        with pytest.raises(TraceFormatError, match="invalid trace contents"):
            parse_trace(text.replace(old, new))

    def test_fractional_sample_count_rejected(self):
        text = serialize_trace(_trace([0.0, 0.1, 0.2, 0.3], [1.0, -1.0, 0.5, 0.0]))
        with pytest.raises(TraceFormatError, match="invalid trace contents"):
            parse_trace(text.replace("samples=4", "samples=4.5"))

    def test_non_finite_sample_time_rejected(self):
        text = serialize_trace(_trace([0.0, 0.1, 0.2, 0.3], [1.0, -1.0, 0.5, 0.0]))
        with pytest.raises(TraceFormatError, match="sample times must be finite"):
            parse_trace(text.replace("\n0.3,", "\n1e400,"))


BUNDLED_TRACE_HEADER = """\
# sqzlab-trace v1
# f_hz=1000000.0
# rbw_hz=100000.0
# vbw_hz=30.0
# sweep_s=0.2
# samples=401
# scan_period_s=0.2
# scan_theta0_rad=0.0
# scan_jitter_rad=0.12
# shot_reference_db=0.0
# alpha=0.8198190000000001
# clearance_db=14.0
# omega_norm=0.10720434894893513
# rho=0.8525149190110828
# seed=42
# x=0.5656277572369306
time_s,power_db
"""


def test_header_text_of_a_bundled_config_trace(config_path):
    cfg = load_config(config_path)
    point = operating_point(cfg.cavity, cfg.detection, cfg.pump,
                            cfg.acquisition.center_frequency)
    text = serialize_trace(synthesize_trace(*point, cfg.detection, cfg.acquisition, 42))
    assert text.startswith(BUNDLED_TRACE_HEADER)
    assert text.count("\n") == BUNDLED_TRACE_HEADER.count("\n") + 401
