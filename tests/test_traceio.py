import gc
import sys
import threading
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sqzlab import (
    AcquisitionSettings,
    NoiseTrace,
    PhaseScan,
    TraceFormatError,
    parse_trace,
    serialize_trace,
    synthesize_trace,
)
from sqzlab import traceio
from sqzlab.traceio import _fmt, _plain_samples, _read_lines

from conftest import bundled_trace


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


class TestMetadataReadsBack:
    """serialize_trace refuses a metadata item that parse_trace would not
    read back as written, naming its key."""

    @pytest.mark.parametrize("metadata, problem", [
        ({"vbw_hz": 1e4}, "'vbw_hz' names a header field"),
        ({"shot_reference_db": 3.0}, "'shot_reference_db' names a header field"),
        ({"a=b": 1}, "'a=b' with the value 1 reads back as 'a'='b=1'"),
        ({"a\nb": 1}, r"'a\\nb' or its value contains a line break"),
        ({"label": "run\na"}, "'label' or its value contains a line break"),
        ({"label": "run\u2028a"}, "'label' or its value contains a line break"),
        ({"label": "1_000"}, "'label' with the value '1_000' reads back as 'label'=1000"),
        ({"label": "inf"}, "'label' with the value 'inf' reads back as 'label'=inf"),
        ({"label": "1e3"}, "'label' with the value '1e3' reads back as 'label'=1000.0"),
        ({"label": " run-a"}, "'label' with the value ' run-a' reads back as 'label'='run-a'"),
        ({"label ": "run-a"}, "'label ' with the value 'run-a' reads back as 'label'='run-a'"),
        ({"label": None}, "'label' with the value None reads back as 'label'='None'"),
        ({"label": np.array([1, 2])},
         r"'label' with the value array\(\[1, 2\]\) reads back as 'label'='\[1 2\]'"),
        ({3: 1.0}, "3 with the value 1.0 reads back as '3'=1.0"),
    ], ids=["header-field", "shot-reference", "equals-in-key", "line-break-in-key",
            "line-break-in-value", "unicode-line-break", "underscore-int", "inf", "exponent",
            "padded-value", "padded-key", "none", "array", "int-key"])
    def test_an_item_that_would_not_read_back_is_refused(self, metadata, problem):
        trace = _trace([0.0, 0.1], [1.0, -1.0], seed=9)
        trace.metadata.update(metadata)
        with pytest.raises(TraceFormatError, match="^metadata key " + problem):
            serialize_trace(trace)

    def test_the_bundled_config_trace_round_trips(self):
        for seed in (1, 42):
            trace = bundled_trace(seed)
            _assert_traces_equal(parse_trace(serialize_trace(trace)), trace)

    @pytest.mark.parametrize("value", [True, np.float64(0.25), np.int64(-7), float("nan"), 1e16,
                                       "", "run a", "0x10", "#"])
    def test_values_that_read_back_are_written(self, value):
        back = parse_trace(serialize_trace(_trace([0.0, 0.1], [1.0, -1.0], label=value)))
        got = back.metadata["label"]
        assert got == value or (got != got and value != value)

    @pytest.mark.parametrize("value", [1e16, 2.5e20, 1e300, -1e300])
    def test_a_float_of_1e16_or_more_reads_back_as_that_float(self, value):
        back = parse_trace(serialize_trace(_trace([0.0, 0.1], [1.0, -1.0], label=value)))
        got = back.metadata["label"]
        assert type(got) is float and got == value

    def test_a_trace_read_with_a_huge_float_writes_back(self):
        text = serialize_trace(_trace([0.0, 0.1], [1.0, -1.0], seed=9))
        text = text.replace("\n# seed=9\n", "\n# big=1e300\n# seed=9\n")
        first = parse_trace(text)
        assert first.metadata == {"big": 1e300, "seed": 9}
        again = serialize_trace(first)
        assert "\n# big=1" + "0" * 300 + ".0\n" in again
        _assert_traces_equal(parse_trace(again), first)
        assert serialize_trace(parse_trace(again)) == again

    @pytest.mark.parametrize("value, text", [
        (1e16, "10000000000000000.0"),
        (2.5e20, "250000000000000000000.0"),
        (-1e300, "-1" + "0" * 300 + ".0"),
        (1.2345678901234568e16, "12345678901234568.0"),
        (9999999999999998.0, "9999999999999998.0"),  # below 1e16: repr, as before
        (1.5e-07, "0.00000015"),
        (10**16, "10000000000000000"),  # an int stays an int
    ], ids=["1e16", "2.5e20", "-1e300", "17-digits", "below-1e16", "small", "int"])
    def test_positional_text(self, value, text):
        assert _fmt(value) == text


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

    # a repeated key is refused, not read as its last value, which would silently set the fit's jitter
    @pytest.mark.parametrize("key, value, again", [("scan_jitter_rad", "0.12", "0.5"),
                                                   ("seed", "42", "7")])
    def test_repeated_header_key_rejected(self, key, value, again):
        text = serialize_trace(bundled_trace(42))
        line = f"# {key}={value}\n"
        lineno = text.splitlines(keepends=True).index(line) + 2
        doubled = text.replace(line, f"{line}# {key}={again}\n")
        with pytest.raises(TraceFormatError, match=rf"^line {lineno}: duplicate header key '{key}'$"):
            parse_trace(doubled)


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

    # finite values whose derived quantity overflows: the types own that domain
    @pytest.mark.parametrize("old, new, message", [
        ("scan_period_s=0.2", "scan_period_s=1e-320", "period 1e-320 s gives a scan rate"),
        ("vbw_hz=30.0", "vbw_hz=1e-320", "video_bandwidth 1e-320 Hz overflows"),
        ("samples=401", "samples=" + "9" * 400, "sample_count must be at most"),
    ])
    def test_header_number_outside_its_types_domain_rejected(self, chain, acquisition, old, new,
                                                              message):
        text = serialize_trace(synthesize_trace(0.8, 0.8, 0.5, 0.1, chain, acquisition, 4))
        assert old in text
        with pytest.raises(TraceFormatError, match=f"^invalid trace contents: {message}"):
            parse_trace(text.replace(old, new))

    def test_fractional_sample_count_rejected(self):
        text = serialize_trace(_trace([0.0, 0.1, 0.2, 0.3], [1.0, -1.0, 0.5, 0.0]))
        with pytest.raises(TraceFormatError, match="invalid trace contents"):
            parse_trace(text.replace("samples=4", "samples=4.5"))

    def test_non_finite_sample_time_rejected(self):
        text = serialize_trace(_trace([0.0, 0.1, 0.2, 0.3], [1.0, -1.0, 0.5, 0.0]))
        with pytest.raises(TraceFormatError, match="sample times must be finite"):
            parse_trace(text.replace("\n0.3,", "\n1e400,"))


# the rows of the small trace the fallback cases edit
CLEAN_ROWS = ([0.0, 0.1, 0.2, 0.3], [1.0, -1.0, 0.5, 0.0])
PADS = (" ", "  ", "\t", " \t")


class TestArrayPath:
    """The one-pass data block against the per-value reference."""

    def test_plain_block_matches_the_line_loop(self, chain, acquisition):
        for seed in range(4):
            text = serialize_trace(synthesize_trace(0.8, 0.8, 0.5, 0.1, chain, acquisition, seed))
            times, powers = _plain_samples(text.partition("\ntime_s,power_db\n")[2])
            _, loop_times, loop_powers, _ = _read_lines(text)
            assert times.tobytes() == np.array(loop_times).tobytes()
            assert powers.tobytes() == np.array(loop_powers).tobytes()
            assert times.flags.c_contiguous and powers.flags.c_contiguous
            parsed = parse_trace(text)
            assert parsed.times.tobytes() == times.tobytes()
            assert parsed.times.flags.c_contiguous and parsed.powers_db.flags.c_contiguous

    @pytest.mark.parametrize("times, powers", [
        (CLEAN_ROWS[0], CLEAN_ROWS[1]),
        ([0.0, 1e-07, 2e-07, 1.0], [-4.5e-05, 1e12, -7.25, 1e16]),  # reprs with exponents
    ])
    def test_rows_match_the_value_by_value_format(self, times, powers):
        trace = _trace(times, powers)
        rows = "".join(f"{_fmt(t)},{_fmt(p)}\n" for t, p in zip(times, powers))
        assert serialize_trace(trace).endswith("\ntime_s,power_db\n" + rows)

    def test_parse_and_serialize_trigger_no_garbage_collection(self, chain, acquisition):
        trace = synthesize_trace(0.8, 0.8, 0.5, 0.1, chain, acquisition, 2)
        text = serialize_trace(trace)
        starts = []

        def count(phase, info):
            if phase == "start":
                starts.append(info["generation"])

        gc.collect()
        gc.callbacks.append(count)
        try:
            for _ in range(100):
                parse_trace(text)
                serialize_trace(trace)
        finally:
            gc.callbacks.remove(count)
        assert starts == []


def _rows(trace):
    """The data block as serialize_trace wrote it before the time-axis memo."""
    return "".join(f"{t!r},{p!r}\n" for t, p in zip(trace.times.tolist(), trace.powers_db.tolist()))


class TestTimeAxisMemo:
    """serialize_trace and parse_trace reuse the last time axis; the output
    never depends on what the memo holds."""

    def test_interleaved_axes_give_the_unmemoized_text_and_arrays(self, chain, acquisition):
        acqs = [acquisition, replace(acquisition, sweep_duration=0.15),  # same length, other times
                replace(acquisition, sweep_duration=0.15, sample_count=301)]
        traces = [synthesize_trace(0.8, 0.8, 0.5, 0.1, chain, acq, seed)
                  for seed in range(3) for acq in acqs]
        for trace in traces + traces[::-1]:
            text = serialize_trace(trace)
            assert text.endswith("\ntime_s,power_db\n" + _rows(trace))
            for _ in range(2):
                back = parse_trace(text)
                assert back.times.tobytes() == trace.times.tobytes()
                assert back.powers_db.tobytes() == trace.powers_db.tobytes()

    def test_an_axis_with_exponent_reprs_is_written_positionally(self):
        times = np.arange(8) * 1e-5
        assert "e" in repr(times[1])
        trace = _trace(times, np.linspace(-3.0, 4.0, 8))
        rows = "".join(f"{_fmt(t)},{_fmt(p)}\n" for t, p in zip(times, trace.powers_db))
        for _ in range(2):
            text = serialize_trace(trace)
            assert text.endswith("\ntime_s,power_db\n" + rows)
            assert parse_trace(text).times.tobytes() == trace.times.tobytes()

    def test_a_time_token_one_digit_off_misses_the_memo(self, chain, acquisition):
        text = serialize_trace(synthesize_trace(0.8, 0.8, 0.5, 0.1, chain, acquisition, 3))
        edited = text.replace("\n0.1995,", "\n0.1996,")
        assert edited != text
        for source in (edited, text, edited):
            _, want_times, _, _ = _read_lines(source)
            assert parse_trace(source).times.tobytes() == np.array(want_times).tobytes()

    def test_mutating_parsed_times_leaves_the_next_parse_unchanged(self, chain, acquisition):
        trace = synthesize_trace(0.8, 0.8, 0.5, 0.1, chain, acquisition, 4)
        text = serialize_trace(trace)
        first = parse_trace(text)
        first.times[:] = -1.0
        assert parse_trace(text).times.tobytes() == trace.times.tobytes()
        again = parse_trace(text)
        again.times[0] = 5.0
        assert parse_trace(text).times.tobytes() == trace.times.tobytes()

    def test_a_memo_hit_still_reports_a_bad_power_on_its_line(self, chain, acquisition):
        text = serialize_trace(synthesize_trace(0.8, 0.8, 0.5, 0.1, chain, acquisition, 5))
        parse_trace(text)
        lines = text.split("\n")
        row = lines.index("time_s,power_db") + 3
        time_token = lines[row].split(",")[0]
        lines[row] = f"{time_token},abc"
        with pytest.raises(TraceFormatError) as info:
            parse_trace("\n".join(lines))
        assert str(info.value) == f"line {row + 1}: non-numeric sample '{time_token},abc'"

    def test_threads_sharing_the_memo_get_the_unmemoized_results(self, chain, acquisition):
        acqs = [replace(acquisition, sweep_duration=0.2 - 0.01 * i) for i in range(4)]
        traces = [synthesize_trace(0.8, 0.8, 0.5, 0.1, chain, acq, i) for i, acq in enumerate(acqs)]
        texts = [serialize_trace(trace) for trace in traces]
        errors = []

        def work(i):
            try:
                for n in range(30):
                    k = (i + n) % len(traces)
                    assert serialize_trace(traces[k]) == texts[k]
                    back = parse_trace(texts[k])
                    assert back.times.tobytes() == traces[k].times.tobytes()
            except AssertionError as exc:
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(i,)) for i in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []

    def test_the_memo_holds_the_last_axis_written(self, chain, acquisition):
        trace = synthesize_trace(0.8, 0.8, 0.5, 0.1, chain, acquisition, 6)
        serialize_trace(trace)
        written = traceio._last_axis
        parse_trace(serialize_trace(_trace(*CLEAN_ROWS)).replace("\n0.1,", "\n0.10,"))
        assert traceio._last_axis[1] == ["0.0", "0.1", "0.2", "0.3"]  # a read keeps nothing
        axis, tokens, times = written
        assert axis == trace.times.tobytes() and tokens == list(map(repr, trace.times.tolist()))
        assert times.tobytes() == axis and not times.flags.writeable


class TestFallbackOutcomes:
    """Inputs outside the plain data block go through the line loop; each
    outcome is pinned: the arrays (and metadata) or the exact message."""

    @pytest.mark.parametrize("edit, expected", [
        (lambda t: t.replace("\n", "\r\n"), (*CLEAN_ROWS, {})),
        (lambda t: t.replace("\n0.1,-1.0\n", "\n0.1,\x0c-1.0\n"),
         "line 13: non-numeric sample '0.1,'"),
        (lambda t: t + "# operator=ab\n", (*CLEAN_ROWS, {"operator": "ab"})),
        (lambda t: t.replace("samples=4", "samples=5").replace("time_s,", "-1.0,2.0\ntime_s,"),
         ([-1.0, *CLEAN_ROWS[0]], [2.0, *CLEAN_ROWS[1]], {})),
        (lambda t: t[:-1], (*CLEAN_ROWS, {})),
        (lambda t: t.replace("\n0.3,0.0\n", "\n0.3,0.0,0.0\n"),
         "line 15: expected 'time_s,power_db', got '0.3,0.0,0.0'"),
        (lambda t: t.replace("\n0.2,", "\n\n0.2,"), (*CLEAN_ROWS, {})),
        (lambda t: t.replace("\n0.1,-1.0\n0.2,0.5\n", "\n0.1,-1.0,0.2\n0.5\n"),
         "line 13: expected 'time_s,power_db', got '0.1,-1.0,0.2'"),
    ], ids=["crlf", "form-feed-in-row", "comment-after-data", "row-above-columns",
            "no-trailing-newline", "three-fields-last-row", "blank-line-between-rows",
            "fields-moved-between-rows"])
    def test_outcome_is_pinned(self, edit, expected):
        clean = serialize_trace(_trace(*CLEAN_ROWS))
        text = edit(clean)
        assert text != clean
        if isinstance(expected, str):
            with pytest.raises(TraceFormatError) as info:
                parse_trace(text)
            assert str(info.value) == expected
        else:
            times, powers, metadata = expected
            trace = parse_trace(text)
            assert trace.times.tobytes() == np.array(times).tobytes()
            assert trace.powers_db.tobytes() == np.array(powers).tobytes()
            assert trace.metadata == metadata

    @given(st.sets(st.integers(0, 11)), st.sets(st.integers(0, 11)),
           st.sets(st.integers(0, 11)), st.sampled_from(PADS))
    def test_blank_lines_and_padding_give_the_clean_arrays(self, blank_before, padded,
                                                           spaced_comma, pad):
        powers = [-4.5e-05, 7.25, -3.125, 0.1, 12.0, -0.0, 1e-3, 2.5, -1.75, 8.0, 0.3, -6.0]
        clean = serialize_trace(_trace(np.arange(12) * 1e-3, powers, seed=5))
        head, columns, block = clean.partition("time_s,power_db\n")
        noisy = head + columns + "".join(
            ("\n" if i in blank_before else "")
            + (f"{pad}{row}{pad}" if i in padded else row).replace(
                ",", f"{pad},{pad}" if i in spaced_comma else ",")
            + "\n" for i, row in enumerate(block.split("\n")[:-1]))
        got, want = parse_trace(noisy), parse_trace(clean)
        assert got.times.tobytes() == want.times.tobytes()
        assert got.powers_db.tobytes() == want.powers_db.tobytes()
        assert got.metadata == want.metadata


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


def test_header_text_of_a_bundled_config_trace():
    text = serialize_trace(bundled_trace(42))
    assert text.startswith(BUNDLED_TRACE_HEADER)
    assert text.count("\n") == BUNDLED_TRACE_HEADER.count("\n") + 401
