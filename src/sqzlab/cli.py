"""Command-line front end.

Subcommands::

    sqzlab predict   --config cfg [--circuit-noise]          model predictions
    sqzlab synth     --config cfg --seed N --out trace.csv   synthesize a trace
    sqzlab fit       --trace t.csv --config cfg              fit a trace
    sqzlab sweep     --config cfg --gains ... | --powers ... pump sweep table
    sqzlab reconcile --config cfg --measured smin,smax       discrepancy solve

Numbers in options and measured CSVs follow the config grammar (parse_quantity).
Exit codes: 0 success, 1 usage/parse error, 2 fit non-convergence.
Human-readable output rounds to 4 significant digits; --format json emits
full precision with a stable key set.
"""

from __future__ import annotations

import argparse
import atexit
import gc
import json
import math
import sys

from .config import ConfigError, load_config, parse_quantity
from .detection import synthesize_shot_reference, synthesize_trace
from .opo import (
    ParameterDomainError,
    PumpSpec,
    VarianceLevels,
    cavity_decay_rate,
    threshold_power,
)

# Each command imports the modules it runs (analysis, fitting, traceio) in its
# body, so a cold process loads only those: predict, sweep and reconcile load
# neither fitting nor traceio, synth no fitting and fit no analysis.

_CIRCUIT_NOTE = (
    "observed levels assume the same electronic floor in both the signal and "
    "the shot-noise reference; the anti-squeezing value is sensitive to this "
    "convention choice."
)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2; we use 1
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _fmt(value) -> str:
    return f"{value:.4g}"


def _analysis_frequency(cfg, args) -> float:
    """--frequency-hz if given, else the [acquisition] centre frequency, else 1 MHz."""
    if args.frequency_hz is not None:
        return parse_quantity(args.frequency_hz.strip(), "bare", "frequency_hz", "--frequency-hz")
    return cfg.acquisition.center_frequency if cfg.acquisition else 1e6


def _cmd_predict(args) -> int:
    from . import analysis

    cfg = load_config(args.config)
    p_th = threshold_power(cfg.cavity)
    frequency = _analysis_frequency(cfg, args)
    alpha, rho, x, omega_norm = analysis.operating_point(cfg.cavity, cfg.detection,
                                                         cfg.pump, frequency)
    levels = analysis.predict_levels(cfg.cavity, cfg.detection, cfg.pump, frequency)
    observed = None
    if args.circuit_noise:
        observed = analysis.predict_levels(cfg.cavity, cfg.detection, cfg.pump,
                                           frequency, include_circuit_noise=True)
    if args.format == "json":
        payload = {
            "threshold_w": p_th,
            "escape_efficiency": rho,
            "detection_efficiency": alpha,
            "decay_rate_rad_s": cavity_decay_rate(cfg.cavity),
            "detuning": omega_norm,
            "pump_parameter": x,
            "s_min_db": levels.s_min_db,
            "s_max_db": levels.s_max_db,
            "observed_s_min_db": observed.s_min_db if observed else None,
            "observed_s_max_db": observed.s_max_db if observed else None,
            "note": _CIRCUIT_NOTE if observed else None,
        }
        print(json.dumps(payload, indent=2))
    else:
        print(f"P_th = {_fmt(p_th * 1e3)} mW")
        print(f"rho = {_fmt(rho)}")
        print(f"alpha = {_fmt(alpha)}")
        print(f"gamma = {_fmt(cavity_decay_rate(cfg.cavity))} rad/s")
        print(f"Omega = {_fmt(omega_norm)}")
        print(f"x = {_fmt(x)}")
        print(f"s_min = {_fmt(levels.s_min_db)} dB")
        print(f"s_max = {_fmt(levels.s_max_db)} dB")
        if observed:
            print(f"s_min_observed = {_fmt(observed.s_min_db)} dB")
            print(f"s_max_observed = {_fmt(observed.s_max_db)} dB")
            print(f"note: {_CIRCUIT_NOTE}")
    return 0


def _cmd_synth(args) -> int:
    from . import analysis, traceio

    cfg = load_config(args.config)
    if cfg.acquisition is None:
        raise ConfigError("this command needs [acquisition] (and optionally [scan]) in the config")
    if args.shot_reference:
        trace = synthesize_shot_reference(cfg.acquisition, cfg.detection, args.seed)
    else:
        point = analysis.operating_point(cfg.cavity, cfg.detection, cfg.pump,
                                         cfg.acquisition.center_frequency)
        trace = synthesize_trace(*point, cfg.detection, cfg.acquisition, args.seed)
    traceio.save_trace(trace, args.out)
    print(f"wrote {len(trace)} samples to {args.out}")
    return 0


def _finite_or_none(value: float) -> float | None:
    """JSON has no infinity: an unbounded sigma is written as null."""
    return value if math.isfinite(value) else None


def _uncertainty(sigma_db: float) -> str:
    if math.isfinite(sigma_db):
        return f"+/- {_fmt(sigma_db)} dB (1 sigma)"
    return "dB, 1 sigma unbounded (the trace does not determine this level)"


def _cmd_fit(args) -> int:
    """Fit in the trace's recorded context; the config supplies a missing clearance."""
    from . import fitting, traceio

    clearance = load_config(args.config).detection.circuit_noise_clearance_db
    trace = traceio.load_trace(args.trace)
    recorded = trace.metadata.setdefault("clearance_db", clearance)
    if recorded != clearance:
        raise ConfigError(f"the trace records clearance_db = {recorded} dB but the config "
                          f"says clearance = {clearance} dB")
    result = fitting.fit_trace(trace)
    if args.format == "json":
        payload = {
            "s_min_db": result.levels.s_min_db,
            "s_min_sigma_db": _finite_or_none(result.s_min_sigma_db),
            "s_max_db": result.levels.s_max_db,
            "s_max_sigma_db": _finite_or_none(result.s_max_sigma_db),
            "theta0_rad": result.model.theta0,
            "scan_rate_rad_s": result.model.scan_rate,
            "residual_rms_db": result.residual_rms_db,
            "iterations": result.iterations,
            "converged": result.converged,
            "phase_identifiable": result.phase_identifiable,
            "uncertainty_convention": "1-sigma",
        }
        print(json.dumps(payload, indent=2))
    else:
        print(f"s_min = {_fmt(result.levels.s_min_db)} {_uncertainty(result.s_min_sigma_db)}")
        print(f"s_max = {_fmt(result.levels.s_max_db)} {_uncertainty(result.s_max_sigma_db)}")
        print(f"theta0 = {_fmt(result.model.theta0)} rad")
        print(f"scan_rate = {_fmt(result.model.scan_rate)} rad/s")
        print(f"residual_rms = {_fmt(result.residual_rms_db)} dB")
        print(f"iterations = {result.iterations}")
        print(f"converged = {'yes' if result.converged else 'no'}")
        undetermined = [name for name, sigma in (("s_min", result.s_min_sigma_db),
                                                 ("s_max", result.s_max_sigma_db))
                        if not math.isfinite(sigma)]
        if undetermined:
            print(f"warning: the trace does not determine {' or '.join(undetermined)}, "
                  "phase not identifiable (theta0 sigma = full period)")
        elif not result.phase_identifiable:
            print("warning: flat trace, phase not identifiable (theta0 sigma = full period)")
    return 0 if result.converged else 2


def _load_measured_csv(path):
    rows = []
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#") or line.startswith("power_mw"):
                continue
            parts = line.split(",")
            if len(parts) != 3:
                raise ConfigError(f"{path}:{lineno}: expected 'power_mw,s_min_db,s_max_db'")
            power_mw, lo, hi = (parse_quantity(part.strip(), "bare", key, f"{path}:{lineno}")
                                for part, key in zip(parts, ("power_mw", "s_min_db", "s_max_db")))
            rows.append((power_mw * 1e-3, VarianceLevels.from_db(lo, hi)))
    return rows


def _cmd_sweep(args) -> int:
    from . import analysis

    cfg = load_config(args.config)
    if bool(args.gains) == bool(args.powers):
        raise ConfigError("provide exactly one of --gains or --powers")
    if args.gains:
        pumps = [PumpSpec(parametric_gain=parse_quantity(item.strip(), "bare", "gain", "--gains"))
                 for item in args.gains.split(",")]
    else:
        pumps = [PumpSpec(pump_power=parse_quantity(item.strip(), "power", "power", "--powers"))
                 for item in args.powers.split(",")]
    frequency = _analysis_frequency(cfg, args)
    measured = _load_measured_csv(args.measured) if args.measured else None
    rows = analysis.sweep_pump(cfg.cavity, cfg.detection, pumps, frequency, measured)
    records = [{
        "power_mw": r.pump_power * 1e3,
        "gain": r.parametric_gain,
        "x": r.pump_parameter,
        "s_min_db": r.predicted.s_min_db if r.predicted else None,
        "s_max_db": r.predicted.s_max_db if r.predicted else None,
        "measured_s_min_db": r.measured.s_min_db if r.measured else None,
        "measured_s_max_db": r.measured.s_max_db if r.measured else None,
        "valid": r.valid,
    } for r in rows]
    if args.format == "json":
        print(json.dumps(records, indent=2))
    else:
        print(",".join(records[0]))  # one row per pump, and the pump axis is never empty
        for rec in records:
            cells = []
            for v in rec.values():
                if v is None:
                    cells.append("")
                elif isinstance(v, bool):
                    cells.append(str(v).lower())
                elif args.format == "text":
                    cells.append(_fmt(v))
                else:
                    cells.append(repr(v))
            print(",".join(cells))
    return 0


def _cmd_reconcile(args) -> int:
    from . import analysis

    cfg = load_config(args.config)
    parts = args.measured.split(",")
    if len(parts) != 2:
        raise ConfigError(f"expected 'smin_db,smax_db', got {args.measured!r}")
    measured = VarianceLevels.from_db(*(parse_quantity(part.strip(), "bare", key, "--measured")
                                        for part, key in zip(parts, ("s_min_db", "s_max_db"))))
    frequency = _analysis_frequency(cfg, args)
    result = analysis.reconcile_discrepancy(measured, cfg.cavity, cfg.detection,
                                            cfg.pump, frequency)
    loss_only = analysis.loss_only_explanation_check(measured, cfg.cavity, cfg.detection,
                                                     cfg.pump, frequency)
    if args.format == "json":
        payload = {
            "gain_scale": result.gain_scale,
            "efficiency_scale": result.efficiency_scale,
            "residual_db": result.residual_db,
            "amplitude_gain_scale": result.amplitude_gain_scale,
            "corrected_gain": result.corrected_gain,
            "exact_match": result.exact_match,
            "loss_only_feasible": loss_only.feasible,
            "loss_only_efficiency_scale": loss_only.efficiency_scale,
            "loss_only_s_max_error_db": loss_only.s_max_error_db,
        }
        print(json.dumps(payload, indent=2))
    else:
        print(f"gain_scale = {_fmt(result.gain_scale)} (corrected G = {_fmt(result.corrected_gain)})")
        print(f"amplitude_gain_scale = {_fmt(result.amplitude_gain_scale)} (sqrt-gain correction)")
        print(f"efficiency_scale = {_fmt(result.efficiency_scale)}")
        print(f"residual = {_fmt(result.residual_db)} dB")
        print(f"loss_only = {'feasible' if loss_only.feasible else 'infeasible'} "
              f"(s_max error {_fmt(loss_only.s_max_error_db)} dB at "
              f"efficiency_scale {_fmt(loss_only.efficiency_scale)})")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="sqzlab", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, formats=("text", "json"), frequency=True):
        p.add_argument("--config", required=True, help="experiment config file")
        if formats:
            p.add_argument("--format", choices=formats, default="text")
        if frequency:
            p.add_argument("--frequency-hz",
                           help="analysis frequency in Hz (default: [acquisition] f, else 1e6)")

    p = sub.add_parser("predict", help="predicted squeezing/anti-squeezing levels")
    add_common(p)
    p.add_argument("--circuit-noise", action="store_true",
                   help="also report levels as observed against the measured shot noise")
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("synth", help="synthesize a scanned-phase noise trace")
    add_common(p, formats=(), frequency=False)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True, help="output trace file")
    p.add_argument("--shot-reference", action="store_true",
                   help="synthesize the shot-noise reference (OPO blocked) instead")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("fit", help="fit a noise trace")
    add_common(p, frequency=False)
    p.add_argument("--trace", required=True, help="trace file to fit")
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("sweep", help="pump sweep table")
    add_common(p, formats=("text", "json", "csv"))
    p.add_argument("--gains", help="comma-separated parametric gains")
    p.add_argument("--powers", help="comma-separated pump powers with units, e.g. 40mW,61mW")
    p.add_argument("--measured", help="CSV of measured rows: power_mw,s_min_db,s_max_db")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("reconcile", help="gain/loss reconciliation against measured levels")
    add_common(p)
    p.add_argument("--measured", required=True, help="measured levels 'smin_db,smax_db'")
    p.set_defaults(func=_cmd_reconcile)
    return parser


def _reported_errors() -> tuple:
    """The errors main reports in one line.  A TraceFormatError can only come
    from a loaded traceio, so naming it loads nothing."""
    traceio = sys.modules.get(f"{__package__}.traceio")
    trace_errors = (traceio.TraceFormatError,) if traceio else ()
    return ConfigError, ParameterDomainError, OSError, *trace_errors


def main(argv=None) -> int:
    # A CLI process exits right after main, and the interpreter's shutdown
    # collections would only walk numpy's and sqzlab's objects: freeze them
    # at exit instead.  Unregistering first keeps one handler per process,
    # however often main runs.
    atexit.unregister(gc.freeze)
    atexit.register(gc.freeze)
    argv = list(sys.argv[1:] if argv is None else argv)
    # join "--measured -2.75,7.00" so argparse does not read the value as a flag
    for i, token in enumerate(argv[:-1]):
        if token == "--measured" and argv[i + 1].startswith("-"):
            argv[i : i + 2] = [f"--measured={argv[i + 1]}"]
            break
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _reported_errors() as exc:  # evaluated only when a command raised
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
