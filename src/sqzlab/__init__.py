"""Squeezed-vacuum OPO modelling, homodyne trace emulation, and trace fitting.

The public names load on first use (PEP 562): ``import sqzlab`` imports no
submodule, and ``sqzlab.fit_trace`` imports ``sqzlab.fitting`` then.  A
resolved name is kept in this module's globals, so later lookups are plain
attribute reads.
"""

import importlib

__version__ = "0.1.0"

# the public names of each submodule
_EXPORTS = {
    "opo": (
        "SPEED_OF_LIGHT",
        "AboveThresholdError",
        "CavityParams",
        "ParameterDomainError",
        "PumpSpec",
        "SpectralPoint",
        "VarianceLevels",
        "at_or_above_threshold",
        "cavity_decay_rate",
        "detuning_at",
        "detuning_parameter",
        "escape_efficiency",
        "extremal_variances",
        "from_db",
        "gain_from_pump_parameter",
        "min_max_levels",
        "pump_parameter",
        "quadrature_variance",
        "spectral_point",
        "threshold_power",
        "to_db",
    ),
    "detection": (
        "AcquisitionSettings",
        "DetectionChain",
        "NoiseTrace",
        "PhaseScan",
        "apply_circuit_noise",
        "detection_efficiency",
        "jitter_averaged_variance",
        "remove_circuit_noise",
        "synthesize_shot_reference",
        "synthesize_trace",
    ),
    "fitting": ("FitModel", "FitResult", "fit_trace", "initial_guess"),
    "analysis": (
        "LossOnlyReport",
        "ReconcileResult",
        "SweepRow",
        "loss_only_explanation_check",
        "operating_point",
        "predict_levels",
        "reconcile_discrepancy",
        "sweep_pump",
    ),
    "config": ("ConfigError", "ExperimentConfig", "format_config", "load_config", "parse_config"),
    "traceio": ("TraceFormatError", "load_trace", "parse_trace", "save_trace", "serialize_trace"),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

# constants, then classes, then functions, each group sorted
__all__ = sorted(_SOURCE, key=lambda name: (not name.isupper(), name[0].islower(), name))


def __getattr__(name):
    if name in _EXPORTS:  # a submodule not imported yet
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_SOURCE[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
