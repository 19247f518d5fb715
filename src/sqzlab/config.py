"""Experiment configuration files.

Flat sectioned key=value text with mandatory unit suffixes on every
dimensioned quantity, e.g.::

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
    gain = 5.3        # or: power = 61mW, or: x = 0.57

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

Values convert to strict SI on ingestion and must be finite.  Parsing is
total: any input yields either a valid ExperimentConfig or a ConfigError
naming the key, line and constraint violated.

The format is stated once, in _SCHEMA (per section its constructor, per key
its unit kind, constructor field and whether it is required), which
parse_config and format_config both walk; format_config writes the scale-1.0
suffix of each unit kind in _UNITS.  Without [scan], one LO period per sweep.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

from .detection import AcquisitionSettings, DetectionChain, PhaseScan
from .opo import CavityParams, ParameterDomainError, PumpSpec


class ConfigError(ValueError):
    """Malformed or out-of-range configuration; message carries the location."""


@dataclass(frozen=True)
class ExperimentConfig:
    cavity: CavityParams
    detection: DetectionChain
    pump: PumpSpec
    acquisition: AcquisitionSettings | None = None


_NUMBER_RE = re.compile(r"^([+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)\s*(.*)$")

# unit kind -> {suffix: SI scale}; the scale-1.0 suffix is the one format_config
# writes, and "" is the suffix of the dimensionless kinds
_UNITS: dict[str, dict[str, float]] = {
    "length": {"mm": 1e-3, "cm": 1e-2, "m": 1.0},
    "inv_watt": {"/W": 1.0},
    "power": {"mW": 1e-3, "W": 1.0, "uW": 1e-6},
    "db": {"dB": 1.0},
    "frequency": {"Hz": 1.0, "kHz": 1e3, "MHz": 1e6, "GHz": 1e9},
    "time": {"ms": 1e-3, "s": 1.0},
    "angle": {"rad": 1.0, "mrad": 1e-3},
    "bare": {"": 1.0},
    "count": {"": 1.0},
}

# section -> (constructor, key -> (unit kind, constructor field, required)),
# keys in the order format_config writes them
_SCHEMA = {
    "cavity": (CavityParams, {
        "l": ("length", "round_trip_length", True),
        "T": ("bare", "coupler_transmittance", True),
        "L": ("bare", "intracavity_loss", True),
        "Enl": ("inv_watt", "nonlinear_efficiency", True),
    }),
    "detection": (DetectionChain, {
        "eta": ("bare", "quantum_efficiency", True),
        "xi": ("bare", "visibility", True),
        "prop": ("bare", "propagation_efficiency", False),
        "clearance": ("db", "circuit_noise_clearance_db", True),
    }),
    "pump": (PumpSpec, {
        "gain": ("bare", "parametric_gain", False),
        "power": ("power", "pump_power", False),
        "x": ("bare", "pump_parameter", False),
    }),
    "acquisition": (AcquisitionSettings, {
        "f": ("frequency", "center_frequency", True),
        "rbw": ("frequency", "resolution_bandwidth", True),
        "vbw": ("frequency", "video_bandwidth", True),
        "sweep": ("time", "sweep_duration", True),
        "samples": ("count", "sample_count", True),
    }),
    "scan": (PhaseScan, {
        "period": ("time", "period", True),
        "theta0": ("angle", "theta0", False),
        "jitter": ("angle", "jitter_sigma", False),
    }),
}


def parse_quantity(raw: str, unit_kind: str, key: str, where: str) -> float:
    """Parse one finite number with an optional unit suffix into SI units.

    unit_kind is one of "length", "inv_watt", "power", "db", "frequency",
    "time", "angle", "bare" (dimensionless) or "count" (dimensionless, an
    int when integral); key and the location where ("line 3", "--gains")
    label the ConfigError raised for a malformed or non-finite value, e.g.
    parse_quantity("61mW", "power", "power", "--powers") == 0.061.
    """
    match = _NUMBER_RE.match(raw)
    if not match:
        raise ConfigError(f"{where}: value of '{key}' is not a number: {raw!r}")
    number, suffix = float(match.group(1)), match.group(2).strip()
    table = _UNITS[unit_kind]
    if suffix not in table:
        if "" in table:
            raise ConfigError(f"{where}: '{key}' is dimensionless, unexpected suffix {suffix!r}")
        expected = ", ".join(sorted(table))
        raise ConfigError(
            f"{where}: bad unit suffix {suffix!r} for '{key}' (expected one of: {expected})")
    value = number * table[suffix]
    if not math.isfinite(value):
        raise ConfigError(f"{where}: value of '{key}' is not finite: {raw!r}")
    if unit_kind == "count" and value.is_integer():
        return int(value)
    return value


def _split_sections(text: str):
    """-> {section: {key: (value_string, lineno)}}, plus section header lines."""
    sections: dict[str, dict[str, tuple[str, int]]] = {}
    section_lines: dict[str, int] = {}
    current: str | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            if name not in _SCHEMA:
                raise ConfigError(f"line {lineno}: unknown section [{name}]")
            if name in sections:
                raise ConfigError(f"line {lineno}: duplicate section [{name}]")
            sections[name] = {}
            section_lines[name] = lineno
            current = name
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        if current is None:
            raise ConfigError(f"line {lineno}: key outside any [section]")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _SCHEMA[current][1]:
            raise ConfigError(f"line {lineno}: unknown key '{key}' in [{current}]")
        if key in sections[current]:
            raise ConfigError(f"line {lineno}: duplicate key '{key}' in [{current}]")
        if not value:
            raise ConfigError(f"line {lineno}: empty value for '{key}'")
        sections[current][key] = (value, lineno)
    return sections, section_lines


def _build(sections, section_lines, name: str, **nested: str):
    """Construct one section's object from its table in _SCHEMA.

    Parses the section's values onto constructor fields and checks its
    required keys, then builds each ``nested`` field from the section it
    names.  A ParameterDomainError moves onto the line of the key whose
    field its message starts with, alone or after the section name ("scan
    period ..."), else onto the section header line.
    """
    constructor, keys = _SCHEMA[name]
    fields, field_lines = {}, {}
    for key, (raw, lineno) in sections[name].items():
        unit_kind, field, _ = keys[key]
        fields[field] = parse_quantity(raw, unit_kind, key, f"line {lineno}")
        field_lines[field] = lineno
    missing = [key for key, (_, field, required) in keys.items()
               if required and field not in fields]
    if missing:
        raise ConfigError(f"[{name}] block is missing key(s): {', '.join(missing)}")
    for field, section in nested.items():
        fields[field] = _build(sections, section_lines, section)
    try:
        return constructor(**fields)
    except ParameterDomainError as exc:
        message = str(exc)
        lineno = next((line for field, line in field_lines.items()
                       if message.startswith((field, f"{name} {field}"))),
                      section_lines[name])
        raise ConfigError(f"line {lineno}: {message}") from None


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate a configuration; see the module docstring for the format."""
    sections, section_lines = _split_sections(text)
    for name in ("cavity", "detection", "pump"):
        if name not in sections:
            raise ConfigError(f"missing {name} block")
    cavity = _build(sections, section_lines, "cavity")
    detection = _build(sections, section_lines, "detection")
    if len(sections["pump"]) != 1:
        raise ConfigError(
            f"line {section_lines['pump']}: [pump] needs exactly one of gain/power/x, "
            f"got {sorted(sections['pump']) or 'none'}")
    pump = _build(sections, section_lines, "pump")
    acquisition = None
    if "acquisition" in sections:
        sweep = sections["acquisition"].get("sweep")
        if "scan" not in sections and sweep:
            # the default scan has one LO period per sweep; its errors land on the sweep line
            sections["scan"], section_lines["scan"] = {"period": sweep}, sweep[1]
        acquisition = _build(sections, section_lines, "acquisition", lo_scan="scan")
    elif "scan" in sections:
        raise ConfigError(f"line {section_lines['scan']}: [scan] requires an [acquisition] block")
    return ExperimentConfig(cavity, detection, pump, acquisition)


def format_config(config: ExperimentConfig) -> str:
    """Render a config back to text in canonical SI units; parse_config of the
    result reproduces the config value for value."""
    blocks = [("cavity", config.cavity), ("detection", config.detection), ("pump", config.pump)]
    if config.acquisition is not None:
        blocks += [("acquisition", config.acquisition), ("scan", config.acquisition.lo_scan)]
    text = []
    for name, obj in blocks:
        lines = [f"[{name}]"]
        for key, (unit_kind, field, _) in _SCHEMA[name][1].items():
            value = getattr(obj, field)
            if value is not None:
                suffix = next(s for s, scale in _UNITS[unit_kind].items() if scale == 1.0)
                lines.append(f"{key} = {value!r}{suffix}")
        text.append("\n".join(lines))
    return "\n\n".join(text) + "\n"


def load_config(path) -> ExperimentConfig:
    with open(path, encoding="utf-8") as fh:
        return parse_config(fh.read())
