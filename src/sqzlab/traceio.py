"""Noise-trace file format.

Plain text: '#'-prefixed header lines carrying acquisition metadata as
key=value pairs, a column-header line, then one "time_s,power_db" row per
sample.  Numbers are written in positional decimal with enough digits to
round-trip the underlying float exactly, so parse(serialize(trace))
reproduces the trace bit for bit.
"""

from __future__ import annotations

from decimal import Decimal

import numpy as np

from .detection import AcquisitionSettings, NoiseTrace, PhaseScan

_MAGIC = "# sqzlab-trace v1"
_COLUMNS = "time_s,power_db"


class TraceFormatError(ValueError):
    """Malformed trace file; the message carries the offending line number."""


def _fmt(value) -> str:
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    text = repr(float(value))
    if "e" in text or "E" in text:
        text = format(Decimal(text), "f")
    return text


def _parse_value(text: str):
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


def serialize_trace(trace: NoiseTrace) -> str:
    acq = trace.acquisition
    scan = acq.lo_scan
    lines = [_MAGIC]
    fields = [
        ("f_hz", acq.center_frequency),
        ("rbw_hz", acq.resolution_bandwidth),
        ("vbw_hz", acq.video_bandwidth),
        ("sweep_s", acq.sweep_duration),
        ("samples", acq.sample_count),
        ("scan_period_s", scan.period),
        ("scan_theta0_rad", scan.theta0),
        ("scan_jitter_rad", scan.jitter_sigma),
        ("shot_reference_db", trace.shot_reference_db),
    ]
    for key, value in fields:
        lines.append(f"# {key}={_fmt(value)}")
    for key in sorted(trace.metadata):
        value = trace.metadata[key]
        lines.append(f"# {key}={_fmt(value) if isinstance(value, (int, float, np.floating, np.integer)) else value}")
    lines.append(_COLUMNS)
    for t, p in zip(trace.times, trace.powers_db):
        lines.append(f"{_fmt(t)},{_fmt(p)}")
    return "\n".join(lines) + "\n"


def parse_trace(text: str) -> NoiseTrace:
    header: dict[str, object] = {}
    times: list[float] = []
    powers: list[float] = []
    saw_columns = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line.lstrip("#").strip()
            if not body or "=" not in body:
                if body.startswith("sqzlab-trace"):
                    continue
                raise TraceFormatError(f"line {lineno}: expected 'key=value' in header comment")
            key, _, value = body.partition("=")
            header[key.strip()] = _parse_value(value.strip())
            continue
        if line == _COLUMNS:
            saw_columns = True
            continue
        parts = line.split(",")
        if len(parts) != 2:
            raise TraceFormatError(f"line {lineno}: expected 'time_s,power_db', got {line!r}")
        try:
            times.append(float(parts[0]))
            powers.append(float(parts[1]))
        except ValueError:
            raise TraceFormatError(f"line {lineno}: non-numeric sample {line!r}") from None
    if not saw_columns and not times:
        raise TraceFormatError("line 1: no data rows found")

    required = ("f_hz", "rbw_hz", "vbw_hz", "sweep_s", "samples",
                "scan_period_s", "scan_theta0_rad", "scan_jitter_rad")
    missing = [key for key in required if key not in header]
    if missing:
        raise TraceFormatError(f"missing header field(s): {', '.join(missing)}")
    try:
        scan = PhaseScan(period=float(header.pop("scan_period_s")),
                         theta0=float(header.pop("scan_theta0_rad")),
                         jitter_sigma=float(header.pop("scan_jitter_rad")))
        acq = AcquisitionSettings(center_frequency=float(header.pop("f_hz")),
                                  resolution_bandwidth=float(header.pop("rbw_hz")),
                                  video_bandwidth=float(header.pop("vbw_hz")),
                                  sweep_duration=float(header.pop("sweep_s")),
                                  sample_count=int(header.pop("samples")),
                                  lo_scan=scan)
        shot_ref = float(header.pop("shot_reference_db", 0.0))
        trace = NoiseTrace(times=np.asarray(times), powers_db=np.asarray(powers),
                           acquisition=acq, shot_reference_db=shot_ref, metadata=header)
    except (ValueError, TypeError) as exc:  # bad header value or inconsistent samples
        raise TraceFormatError(f"invalid trace contents: {exc}") from None
    if acq.sample_count != len(trace):
        raise TraceFormatError(
            f"header says samples={acq.sample_count} but the file has {len(trace)} data rows")
    return trace


def save_trace(trace: NoiseTrace, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize_trace(trace))


def load_trace(path) -> NoiseTrace:
    with open(path, encoding="utf-8") as fh:
        return parse_trace(fh.read())
