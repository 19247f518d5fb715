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

Values convert to strict SI on ingestion.  Parsing is total: any input
yields either a valid ExperimentConfig or a ConfigError naming the key,
line and constraint violated.
"""

from __future__ import annotations

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

# per-key unit tables: suffix -> SI scale; None marks a dimensionless key
_UNITS: dict[str, dict[str, float] | None] = {
    "length": {"mm": 1e-3, "cm": 1e-2, "m": 1.0},
    "inv_watt": {"/W": 1.0},
    "power": {"mW": 1e-3, "W": 1.0, "uW": 1e-6},
    "db": {"dB": 1.0},
    "frequency": {"Hz": 1.0, "kHz": 1e3, "MHz": 1e6, "GHz": 1e9},
    "time": {"ms": 1e-3, "s": 1.0},
    "angle": {"rad": 1.0, "mrad": 1e-3},
    "bare": None,
}

# section -> key -> (unit table, diagnostic field name)
_SCHEMA: dict[str, dict[str, tuple[str, str]]] = {
    "cavity": {
        "l": ("length", "round_trip_length"),
        "T": ("bare", "coupler_transmittance"),
        "L": ("bare", "intracavity_loss"),
        "Enl": ("inv_watt", "nonlinear_efficiency"),
    },
    "detection": {
        "eta": ("bare", "quantum_efficiency"),
        "xi": ("bare", "visibility"),
        "prop": ("bare", "propagation_efficiency"),
        "clearance": ("db", "circuit_noise_clearance_db"),
    },
    "pump": {
        "gain": ("bare", "parametric_gain"),
        "power": ("power", "pump_power"),
        "x": ("bare", "pump_parameter"),
    },
    "acquisition": {
        "f": ("frequency", "center_frequency"),
        "rbw": ("frequency", "resolution_bandwidth"),
        "vbw": ("frequency", "video_bandwidth"),
        "sweep": ("time", "sweep_duration"),
        "samples": ("bare", "sample_count"),
    },
    "scan": {
        "period": ("time", "period"),
        "theta0": ("angle", "theta0"),
        "jitter": ("angle", "jitter_sigma"),
    },
}

_REQUIRED_KEYS = {
    "cavity": ("l", "T", "L", "Enl"),
    "detection": ("eta", "xi", "clearance"),
    "pump": (),
    "acquisition": ("f", "rbw", "vbw", "sweep", "samples"),
    "scan": ("period",),
}


def parse_quantity(raw: str, unit_kind: str, key: str, lineno: int) -> float:
    """Parse one number with an optional unit suffix into SI units.

    unit_kind is one of "length", "inv_watt", "power", "db", "frequency",
    "time", "angle" or "bare" (dimensionless); key and lineno only label the
    ConfigError raised for a malformed value, e.g.
    parse_quantity("61mW", "power", "power", 0) == 0.061.
    """
    match = _NUMBER_RE.match(raw)
    if not match:
        raise ConfigError(f"line {lineno}: value of '{key}' is not a number: {raw!r}")
    number, suffix = float(match.group(1)), match.group(2).strip()
    table = _UNITS[unit_kind]
    if table is None:
        if suffix:
            raise ConfigError(f"line {lineno}: '{key}' is dimensionless, unexpected suffix {suffix!r}")
        return number
    if suffix not in table:
        expected = ", ".join(sorted(table))
        raise ConfigError(
            f"line {lineno}: bad unit suffix {suffix!r} for '{key}' (expected one of: {expected})")
    return number * table[suffix]


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
        if key not in _SCHEMA[current]:
            raise ConfigError(f"line {lineno}: unknown key '{key}' in [{current}]")
        if key in sections[current]:
            raise ConfigError(f"line {lineno}: duplicate key '{key}' in [{current}]")
        if not value:
            raise ConfigError(f"line {lineno}: empty value for '{key}'")
        sections[current][key] = (value, lineno)
    return sections, section_lines


def _section_values(sections, name: str) -> dict[str, tuple[float, int]]:
    values: dict[str, tuple[float, int]] = {}
    for key, (raw, lineno) in sections.get(name, {}).items():
        unit_kind, _ = _SCHEMA[name][key]
        values[key] = (parse_quantity(raw, unit_kind, key, lineno), lineno)
    missing = [k for k in _REQUIRED_KEYS[name] if k not in values]
    if missing:
        raise ConfigError(f"[{name}] block is missing key(s): {', '.join(missing)}")
    return values


def _build(section: str, constructor, kwargs: dict, key_lines: dict[str, int],
           section_line: int):
    """Construct a domain object, relocating domain errors onto config lines."""
    try:
        return constructor(**kwargs)
    except ParameterDomainError as exc:
        message = str(exc)
        lineno = section_line
        for key, (_, field) in _SCHEMA[section].items():
            if message.startswith(field) and key in key_lines:
                lineno = key_lines[key]
                break
        raise ConfigError(f"line {lineno}: {message}") from None


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate a configuration; see the module docstring for the format."""
    sections, section_lines = _split_sections(text)
    for name in ("cavity", "detection", "pump"):
        if name not in sections:
            raise ConfigError(f"missing {name} block")

    lines = {name: {k: ln for k, (_, ln) in sections.get(name, {}).items()}
             for name in _SCHEMA}

    cav = _section_values(sections, "cavity")
    cavity = _build("cavity", CavityParams, {
        "round_trip_length": cav["l"][0],
        "coupler_transmittance": cav["T"][0],
        "intracavity_loss": cav["L"][0],
        "nonlinear_efficiency": cav["Enl"][0],
    }, lines["cavity"], section_lines["cavity"])

    det = _section_values(sections, "detection")
    det_kwargs = {
        "quantum_efficiency": det["eta"][0],
        "visibility": det["xi"][0],
        "circuit_noise_clearance_db": det["clearance"][0],
    }
    if "prop" in det:
        det_kwargs["propagation_efficiency"] = det["prop"][0]
    detection = _build("detection", DetectionChain, det_kwargs,
                       lines["detection"], section_lines["detection"])

    pump_vals = _section_values(sections, "pump")
    if len(pump_vals) != 1:
        raise ConfigError(
            f"line {section_lines['pump']}: [pump] needs exactly one of gain/power/x, "
            f"got {sorted(pump_vals) or 'none'}")
    pump_kwargs = {}
    for key, (value, _) in pump_vals.items():
        pump_kwargs[{"gain": "parametric_gain", "power": "pump_power", "x": "pump_parameter"}[key]] = value
    pump = _build("pump", PumpSpec, pump_kwargs, lines["pump"], section_lines["pump"])

    acquisition = None
    if "acquisition" in sections:
        acq = _section_values(sections, "acquisition")
        if "scan" in sections:
            sc = _section_values(sections, "scan")
            scan = _build("scan", PhaseScan, {
                "period": sc["period"][0],
                "theta0": sc.get("theta0", (0.0, 0))[0],
                "jitter_sigma": sc.get("jitter", (0.0, 0))[0],
            }, lines["scan"], section_lines["scan"])
        else:
            scan = PhaseScan(period=acq["sweep"][0])
        samples = acq["samples"][0]
        if samples != int(samples):
            raise ConfigError(f"line {lines['acquisition']['samples']}: sample_count must be an integer")
        acquisition = _build("acquisition", AcquisitionSettings, {
            "center_frequency": acq["f"][0],
            "resolution_bandwidth": acq["rbw"][0],
            "video_bandwidth": acq["vbw"][0],
            "sweep_duration": acq["sweep"][0],
            "sample_count": int(samples),
            "lo_scan": scan,
        }, lines["acquisition"], section_lines["acquisition"])
    elif "scan" in sections:
        raise ConfigError(f"line {section_lines['scan']}: [scan] requires an [acquisition] block")

    return ExperimentConfig(cavity=cavity, detection=detection, pump=pump,
                            acquisition=acquisition)


def format_config(config: ExperimentConfig) -> str:
    """Render a config back to text in canonical SI units; parse_config of the
    result reproduces the config value for value."""
    lines = ["[cavity]"]
    cav = config.cavity
    lines += [f"l = {cav.round_trip_length!r}m",
              f"T = {cav.coupler_transmittance!r}",
              f"L = {cav.intracavity_loss!r}",
              f"Enl = {cav.nonlinear_efficiency!r}/W",
              "", "[detection]"]
    det = config.detection
    lines += [f"eta = {det.quantum_efficiency!r}",
              f"xi = {det.visibility!r}",
              f"prop = {det.propagation_efficiency!r}",
              f"clearance = {det.circuit_noise_clearance_db!r}dB",
              "", "[pump]"]
    pump = config.pump
    if pump.kind == "power":
        lines.append(f"power = {pump.pump_power!r}W")
    elif pump.kind == "gain":
        lines.append(f"gain = {pump.parametric_gain!r}")
    else:
        lines.append(f"x = {pump.pump_parameter!r}")
    if config.acquisition is not None:
        acq = config.acquisition
        lines += ["", "[acquisition]",
                  f"f = {acq.center_frequency!r}Hz",
                  f"rbw = {acq.resolution_bandwidth!r}Hz",
                  f"vbw = {acq.video_bandwidth!r}Hz",
                  f"sweep = {acq.sweep_duration!r}s",
                  f"samples = {acq.sample_count}",
                  "", "[scan]",
                  f"period = {acq.lo_scan.period!r}s",
                  f"theta0 = {acq.lo_scan.theta0!r}rad",
                  f"jitter = {acq.lo_scan.jitter_sigma!r}rad"]
    return "\n".join(lines) + "\n"


def load_config(path) -> ExperimentConfig:
    with open(path, encoding="utf-8") as fh:
        return parse_config(fh.read())
