"""Noise-trace file format.

Plain text: '#'-prefixed header lines carrying acquisition metadata as
key=value pairs, a column-header line, then one "time_s,power_db" row per
sample.  Numbers are written in positional decimal with enough digits to
round-trip the underlying float exactly, so parse(serialize(trace))
reproduces the trace bit for bit.

The header is stated once, in _ACQUISITION_HEADER and _SCAN_HEADER (key ->
constructor field and type, in file order), which serialize_trace and
parse_trace both walk; the shot-noise reference level and then the metadata,
in key order, follow them.  A key may appear once; the reader refuses a
repeated one.  The reader checks the format only: the types it builds own
each value's domain, finiteness included.

Both directions run at array speed on the files this module writes.
serialize_trace formats the whole data block in one pass of ``repr`` and
redoes it value by value only when a repr carries an exponent.  parse_trace
reads a plain data block (after the first column line: LF rows, exactly one
comma per row, no blank row, no '#', a trailing newline, and no data row
above the column line) with ``float()`` in one pass into two float64 arrays.
Anything else, and any value ``float()`` rejects, takes the line loop over the
whole text, which gives the same result and is the only source of errors and
their line numbers.  Neither path keeps one object per row alive, so a parse
or a serialize triggers no garbage collection.

Traces taken at one set of analyzer settings share their time axis, so
serialize_trace keeps the last axis it wrote: its float64 bytes, its row
tokens and a private read-only array.  It formats only the power column
when the times' bytes match, and a plain block whose time tokens equal the
kept tokens takes a copy of the kept array and runs float() on the powers
alone.  The memo never changes a result: every check runs on every call,
and a hit gives the same text and arrays as a miss.  It pays only when a
trace shares the axis of the last one written, as when each trace is
written and read back in turn; one entry, replaced whole and read once per
call, so threads may share it.

Metadata must read back as written: serialize_trace refuses, with a
TraceFormatError naming the key, an item parse_trace would read as another
key or value (see serialize_trace).
"""

from __future__ import annotations

import numpy as np

from .detection import AcquisitionSettings, NoiseTrace, PhaseScan

_MAGIC = "# sqzlab-trace v1"
_COLUMNS = "time_s,power_db"
# the ASCII line breaks of str.splitlines besides LF, and the comment mark
_NOT_PLAIN = "\r\x0b\x0c\x1c\x1d\x1e#"
_SHOT_REFERENCE = "shot_reference_db"  # optional on reading, default 0 dB

# header key -> (constructor field, type), in file order
_ACQUISITION_HEADER = {
    "f_hz": ("center_frequency", float),
    "rbw_hz": ("resolution_bandwidth", float),
    "vbw_hz": ("video_bandwidth", float),
    "sweep_s": ("sweep_duration", float),
    "samples": ("sample_count", int),
}
_SCAN_HEADER = {
    "scan_period_s": ("period", float),
    "scan_theta0_rad": ("theta0", float),
    "scan_jitter_rad": ("jitter_sigma", float),
}
_RESERVED = {*_ACQUISITION_HEADER, *_SCAN_HEADER, _SHOT_REFERENCE}  # not metadata keys
# (times' float64 bytes, row tokens, read-only array) of the last time axis
# written; see the module docstring
_last_axis = (None, None, None)


class TraceFormatError(ValueError):
    """Malformed trace file, the message carrying the offending line number,
    or trace metadata that would not read back as written."""


def _fmt(value) -> str:
    if isinstance(value, (float, np.floating)):
        text = repr(float(value))
        if "e" not in text:
            return text
        from decimal import Decimal

        text = format(Decimal(text), "f")
        return text if "." in text else text + ".0"  # 1e16 and up: still a float
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(value)


def _parse_value(text: str):
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def _header_fields(header: dict[str, str], table) -> dict:
    """Pop one object's header values as its constructor fields."""
    return {field: kind(header.pop(key)) for key, (field, kind) in table.items()}


def _header_item(body: str) -> tuple[str, str]:
    """(key, value) of a header comment's 'key=value' body, as the reader takes it."""
    key, _, value = body.partition("=")
    return key.strip(), value.strip()


def _metadata_line(key, value) -> str:
    """The header line of one metadata item, or TraceFormatError naming the
    key when parse_trace would not read the line back as this item."""
    text = _fmt(value)
    line = f"# {key}={text}"
    if key in _RESERVED:
        problem = "names a header field"
    elif line.splitlines() != [line]:
        problem = "or its value contains a line break"
    else:
        back_key, back_text = _header_item(line[2:])
        back = _parse_value(back_text)
        if (back_key, back_text) == (key, text) and isinstance(back, str) == isinstance(value, str) \
                and (back == value or value != value):  # NaN reads back as NaN
            return line
        problem = f"with the value {value!r} reads back as {back_key!r}={back!r}"
    raise TraceFormatError(f"metadata key {key!r} {problem}, so the trace would not read back "
                           "as written")


def serialize_trace(trace: NoiseTrace) -> str:
    """The trace as text.  TraceFormatError when a metadata item would not
    read back as written: a key that names a header field, a line break in
    a key or value, or an item that the reader would take as another key or
    value (a key with '=', a padded key or value, the str "1e3" that reads
    back as 1000.0).  Floats are written in positional decimal with a
    point, 1e16 and up included (1e16 as 10000000000000000.0), so a float
    reads back as the same float."""
    global _last_axis
    acq = trace.acquisition
    header = [(key, getattr(acq, field)) for key, (field, _) in _ACQUISITION_HEADER.items()]
    header += [(key, getattr(acq.lo_scan, field)) for key, (field, _) in _SCAN_HEADER.items()]
    lines = [_MAGIC, *(f"# {key}={_fmt(value)}" for key, value in header),
             f"# {_SHOT_REFERENCE}={_fmt(trace.shot_reference_db)}",
             *(_metadata_line(key, value)
               for key, value in sorted(trace.metadata.items(), key=lambda item: str(item[0]))),
             _COLUMNS]
    axis = trace.times.tobytes()
    memo = _last_axis
    hit = axis == memo[0]
    times = memo[1] if hit else list(map(repr, trace.times.tolist()))
    powers = trace.powers_db.tolist()
    rows = "".join([f"{t},{p!r}\n" for t, p in zip(times, powers)])
    if "e" in rows:  # some repr has an exponent: positional decimal value by value
        times = [_fmt(t) for t in trace.times.tolist()]
        rows = "".join([f"{t},{_fmt(p)}\n" for t, p in zip(times, powers)])
    if not hit:
        _last_axis = (axis, times, np.frombuffer(axis))
    return "\n".join(lines) + "\n" + rows


def _read_lines(text: str):
    """The line loop: (header, times, powers, saw_columns) of every line of
    text, or TraceFormatError naming the first bad line."""
    header: dict[str, str] = {}
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
            key, value = _header_item(body)
            if key in header:
                raise TraceFormatError(f"line {lineno}: duplicate header key '{key}'")
            header[key] = value
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
    return header, times, powers, saw_columns


def _plain_samples(block: str):
    """(times, powers) of a plain data block, each a contiguous float64 array
    read with float(), the times copied from the last axis written when its
    tokens match; None when the block is not plain or a value is not a
    number, which leaves the block to the line loop."""
    if (not block.endswith("\n") or not block.isascii()
            or any(map(block.__contains__, _NOT_PLAIN))):
        return None
    # one comma per row, so no blank row either: commas and LFs alternate, a comma first
    chars = np.frombuffer(block.encode(), np.uint8)
    (commas,), (ends,) = (chars == ord(",")).nonzero(), (chars == ord("\n")).nonzero()
    if commas.size != ends.size or (commas > ends).any() or (commas[1:] < ends[:-1]).any():
        return None
    values = block.replace("\n", ",").split(",")
    del values[-1]  # the empty string after the last LF
    memo = _last_axis
    try:
        if values[0::2] == memo[1]:  # the last axis written: float() on the powers alone
            return memo[2].copy(), np.fromiter(map(float, values[1::2]), float, len(memo[1]))
        samples = np.fromiter(map(float, values), float, len(values))
    except ValueError:
        return None
    return samples[0::2].copy(), samples[1::2].copy()


def parse_trace(text: str) -> NoiseTrace:
    head, columns, block = text.partition(f"\n{_COLUMNS}\n")
    header, above, _, _ = _read_lines(head)
    samples = _plain_samples(block) if columns and not above else None
    if samples is None:  # not plain: the line loop reads the whole text
        header, times, powers, saw_columns = _read_lines(text)
        if not saw_columns and not times:
            raise TraceFormatError("line 1: no data rows found")
    else:
        times, powers = samples

    missing = [key for table in (_ACQUISITION_HEADER, _SCAN_HEADER) for key in table
               if key not in header]
    if missing:
        raise TraceFormatError(f"missing header field(s): {', '.join(missing)}")
    try:
        scan = PhaseScan(**_header_fields(header, _SCAN_HEADER))
        acq = AcquisitionSettings(**_header_fields(header, _ACQUISITION_HEADER), lo_scan=scan)
        trace = NoiseTrace(times=np.asarray(times), powers_db=np.asarray(powers), acquisition=acq,
                           shot_reference_db=float(header.pop(_SHOT_REFERENCE, 0.0)),
                           metadata={key: _parse_value(value) for key, value in header.items()})
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
