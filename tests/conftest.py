"""The bench's fixtures, acquisition settings, operating point and bundled
trace, the in-process CLI harness and its refusal contract, and the
reconciliation oracles that more than one test module compares against: an
exhaustive grid, the in-box closed form and a sequential scan of the box
edges."""

import json
import math
import pathlib
import warnings
from dataclasses import replace

import numpy as np
import pytest

from sqzlab import (
    AcquisitionSettings,
    CavityParams,
    DetectionChain,
    PhaseScan,
    PumpSpec,
    ReconcileResult,
    detection_efficiency,
    escape_efficiency,
    load_config,
    operating_point,
    remove_circuit_noise,
    spectral_point,
    synthesize_trace,
)
from sqzlab.analysis import EFFICIENCY_SCALE_BOX, GAIN_SCALE_BOX, _scaled_prediction_db
from sqzlab.cli import main

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
CANONICAL_CONFIG = REPO_ROOT / "configs" / "ppktp_795nm.cfg"
F0 = 1e6  # the bench's analysis frequency, Hz
# the bundled config's operating point (alpha, rho, x, Omega) at F0; alpha as quoted,
# the computed eta*xi^2 is 1 ulp above
ALPHA, RHO, X, OMEGA = 0.819819, 0.8525149190110828, 0.5656277572369306, 0.10720434894893513


@pytest.fixture
def cavity():
    return CavityParams(round_trip_length=0.600, coupler_transmittance=0.10,
                        intracavity_loss=0.0173, nonlinear_efficiency=0.023)


@pytest.fixture
def chain():
    return DetectionChain(quantum_efficiency=0.99, visibility=0.91,
                          circuit_noise_clearance_db=14.0)


@pytest.fixture
def pump_gain():
    return PumpSpec(parametric_gain=5.3)


def bench_acq(samples=401, sweep=0.2, period=0.2, jitter=0.0, rbw=1e5, vbw=30.0):
    """The bench's zero-span settings at F0 (k = 6667), with any of them changed."""
    return AcquisitionSettings(center_frequency=F0, resolution_bandwidth=rbw,
                               video_bandwidth=vbw, sweep_duration=sweep,
                               sample_count=samples,
                               lo_scan=PhaseScan(period=period, theta0=0.0, jitter_sigma=jitter))


@pytest.fixture
def acquisition():
    return bench_acq()


def bundled_trace(seed, **acquisition_changes):
    """The bundled config's trace for this seed, with any field of its
    acquisition changed; jitter_sigma changes its LO scan's."""
    cfg = load_config(CANONICAL_CONFIG)
    acq = cfg.acquisition
    if "jitter_sigma" in acquisition_changes:
        jitter = acquisition_changes.pop("jitter_sigma")
        acquisition_changes["lo_scan"] = replace(acq.lo_scan, jitter_sigma=jitter)
    acq = replace(acq, **acquisition_changes)
    point = operating_point(cfg.cavity, cfg.detection, cfg.pump, acq.center_frequency)
    return synthesize_trace(*point, cfg.detection, acq, seed)


@pytest.fixture
def config_path():
    return CANONICAL_CONFIG


def run_cli(capture, *argv):
    """(exit code, stdout, stderr) of `sqzlab argv` run in process with every
    warning an error; a usage error's SystemExit gives its code.  capture is
    capsys or capfd, read (and so emptied) once per run."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    captured = capture.readouterr()
    return code, captured.out, captured.err


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def strict_json(text):
    """json.loads that refuses NaN and Infinity, which JSON does not have."""
    return json.loads(text, parse_constant=_reject_constant)


def assert_refused(result, expected="", out=None):
    """The CLI's refusal contract on a run_cli result: exit 1, nothing on
    stdout, exactly one stderr line starting 'error:', the last, containing
    expected, and no file left at synth's out."""
    code, stdout, stderr = result
    lines = stderr.splitlines()
    assert (code, stdout) == (1, ""), result
    assert lines and [line for line in lines if line.startswith("error:")] == lines[-1:], stderr
    assert expected in lines[-1], stderr
    assert out is None or not out.exists()


def grid_search_oracle(measured, cavity, chain, gain, resolution=1e-3):
    """(gain_scale, efficiency_scale, residual) of least residual at F0 on an
    exhaustive grid over the correction box."""
    alpha = detection_efficiency(chain)
    rho = escape_efficiency(cavity)
    omega = spectral_point(cavity, F0).detuning_parameter
    n = 10.0 ** (-chain.circuit_noise_clearance_db / 10.0)
    gs = np.arange(0.5 + resolution, 1.5, resolution)
    es = np.arange(0.3 + resolution, 1.0 + resolution / 2, resolution)
    gg, ee = np.meshgrid(gs, es, indexing="ij")
    x = 1.0 - 1.0 / np.sqrt(gg * gain)
    w2 = 4.0 * omega * omega
    hi = 1.0 + 4.0 * ee * alpha * rho * x / ((1.0 - x) ** 2 + w2)
    lo = 1.0 - 4.0 * ee * alpha * rho * x / ((1.0 + x) ** 2 + w2)
    resid = np.hypot(10.0 * np.log10((lo + n) / (1.0 + n)) - measured.s_min_db,
                     10.0 * np.log10((hi + n) / (1.0 + n)) - measured.s_max_db)
    i, j = np.unravel_index(int(np.argmin(resid)), resid.shape)
    return float(gs[i]), float(es[j]), float(resid[i, j])


def _misfit(measured, cavity, chain, pump, frequency_hz):
    """The 2-norm dB misfit of the prediction with the gain and the efficiency
    scaled by (g, e), as a function of the scales."""
    alpha, rho, _, omega_norm = operating_point(cavity, chain, pump, frequency_hz)
    context = pump.parametric_gain, alpha, rho, omega_norm, chain.circuit_noise_clearance_db

    def misfit(g, e):
        lo_db, hi_db = _scaled_prediction_db(g, e, *context)
        return np.hypot(lo_db - measured.s_min_db, hi_db - measured.s_max_db)

    return misfit


def _reconcile_result(g, e, gain, misfit):
    norm = float(misfit(g, e))
    e_hi = EFFICIENCY_SCALE_BOX[1]
    return ReconcileResult(gain_scale=float(g), efficiency_scale=min(float(e), e_hi),
                           residual_db=norm, amplitude_gain_scale=math.sqrt(g),
                           corrected_gain=float(g * gain), iterations=0,
                           exact_match=norm < 1e-6)


def closed_form_reconcile(measured, cavity, chain, pump, frequency_hz=F0):
    """reconcile_discrepancy's result from the in-box root of the level ratio,
    in product form, on levels mapped one at a time by remove_circuit_noise;
    None for a pair with no root in the correction box."""
    alpha, rho, _, omega_norm = operating_point(cavity, chain, pump, frequency_hz)
    clearance = chain.circuit_noise_clearance_db
    s_min, s_max = (remove_circuit_noise(v, clearance) for v in (measured.s_min_db,
                                                                 measured.s_max_db))
    if not 0.0 < 1.0 - s_min < s_max - 1.0:
        return None
    ratio = (s_max - 1.0) / (1.0 - s_min)
    w2 = 4.0 * omega_norm * omega_norm
    disc = (1.0 + ratio) ** 2 - (1.0 - ratio) ** 2 * (1.0 + w2)
    if disc < 0.0:
        return None
    x = (ratio - 1.0) * (1.0 + w2) / (1.0 + ratio + math.sqrt(disc))
    if not x < 1.0:
        return None
    below = (1.0 - x) * (1.0 - x)
    g = 1.0 / (below * pump.parametric_gain)
    e = (s_max - 1.0) * (below + w2) / (4.0 * alpha * rho * x)
    (g_lo, g_hi), (e_lo, e_hi) = GAIN_SCALE_BOX, EFFICIENCY_SCALE_BOX
    if not (g_lo < g < g_hi and e_lo < e <= e_hi + 1e-12):
        return None
    return _reconcile_result(g, e, pump.parametric_gain,
                             _misfit(measured, cavity, chain, pump, frequency_hz))


def _edge_minimum(misfit, lo, hi):
    """Argmin of misfit(t) over [lo, hi] for one edge on its own: a 65-point
    grid, narrowed five times around its best point."""
    for _ in range(5):
        t = np.linspace(lo, hi, 65)
        i = int(np.argmin(misfit(t)))
        lo, hi = t[max(i - 1, 0)], t[min(i + 1, 64)]
    return float(t[i])


def sequential_edge_reconcile(measured, cavity, chain, pump, frequency_hz=F0):
    """Box-edge reconciliation with the four edges scanned one after another,
    each by its own 1-D scan, and the winner picked by re-evaluating the misfit."""
    misfit = _misfit(measured, cavity, chain, pump, frequency_hz)
    eps = 1e-7
    g_lo, g_hi = GAIN_SCALE_BOX[0] + eps, GAIN_SCALE_BOX[1] - eps
    e_lo, e_hi = EFFICIENCY_SCALE_BOX[0] + eps, EFFICIENCY_SCALE_BOX[1]
    edges = [(fixed, _edge_minimum(lambda t: misfit(fixed, t), e_lo, e_hi))
             for fixed in (g_lo, g_hi)]
    edges += [(_edge_minimum(lambda t: misfit(t, fixed), g_lo, g_hi), fixed)
              for fixed in (e_lo, e_hi)]
    g, e = min(edges, key=lambda point: misfit(*point))
    return _reconcile_result(g, e, pump.parametric_gain, misfit)
