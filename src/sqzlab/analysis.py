"""Prediction pipeline, pump sweeps, and model-data reconciliation.

``predict_levels`` composes the cavity and detection operations into the
squeezing/anti-squeezing prediction for a given pump drive and analysis
frequency.  ``reconcile_discrepancy`` solves the inverse problem posed by a
measurement that disagrees with that prediction: find a multiplicative
correction to the measured parametric gain together with an extra unknown
efficiency factor such that the corrected prediction matches the measured
level pair.  The solution is closed form; a pair with no root in the
correction box gets the least-squares point on the box edge.
``loss_only_explanation_check`` asks the narrower question of whether extra
loss alone can do the job.  ``operating_point`` derives the model inputs
that all of them share.

Measured levels are dB re the measured shot noise, so all comparisons here
are made between measured values and circuit-noise-mapped predictions.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace
from operator import attrgetter

import numpy as np

from .detection import (
    DetectionChain,
    apply_circuit_noise,
    circuit_noise_floor,
    detection_efficiency,
    remove_circuit_noise,
)
from .opo import (
    CavityParams,
    ParameterDomainError,
    PumpSpec,
    VarianceLevels,
    at_or_above_threshold,
    detuning_at,
    escape_efficiency,
    extremal_variances,
    gain_from_pump_parameter,
    min_max_levels,
    pump_parameter,
    pump_parameter_from_gain,
    pump_parameter_from_power,
    threshold_power,
    to_db,
)

GAIN_SCALE_BOX = (0.5, 1.5)
EFFICIENCY_SCALE_BOX = (0.3, 1.0)
LOSS_ONLY_TOLERANCE_DB = 0.1  # anti-squeezing misfit a loss-only explanation may leave
_EDGE_GRID = np.arange(65.0)  # point indices of one box-edge scan round
# grid indices of the two points around each possible best point of a round
_EDGE_BOUNDS = np.minimum(np.maximum(np.arange(65)[:, None] + [-1, 1], 0), 64)
_EDGE_ROWS = np.arange(4)
_BY_PUMP_POWER = attrgetter("pump_power")


def operating_point(cavity: CavityParams, chain: DetectionChain, pump: PumpSpec,
                    frequency_hz: float) -> tuple[float, float, float, float]:
    """(alpha, rho, x, omega_norm) at one analysis frequency, in the argument
    order of ``min_max_levels`` and ``synthesize_trace``."""
    return (detection_efficiency(chain), escape_efficiency(cavity),
            pump_parameter(pump, threshold_power(cavity)), detuning_at(cavity, frequency_hz))


def predict_levels(cavity: CavityParams, chain: DetectionChain, pump: PumpSpec,
                   frequency_hz: float, include_circuit_noise: bool = False) -> VarianceLevels:
    """Predicted squeezing/anti-squeezing levels at the given analysis frequency.

    With ``include_circuit_noise`` the returned levels are what the analyzer
    would display relative to the measured shot noise (electronic floor in
    both signal and reference).
    """
    levels = min_max_levels(*operating_point(cavity, chain, pump, frequency_hz))
    if not include_circuit_noise:
        return levels
    clearance = chain.circuit_noise_clearance_db
    return VarianceLevels.from_db(apply_circuit_noise(levels.s_min, clearance),
                                  apply_circuit_noise(levels.s_max, clearance))


@dataclass(frozen=True)
class SweepRow:
    """One pump point of a sweep: the supplied drive, its derived counterpart,
    and the predicted (and optionally measured) levels."""

    pump_power: float                      # W (primary or derived)
    parametric_gain: float | None          # None when above threshold
    pump_parameter: float | None
    predicted: VarianceLevels | None       # None when above threshold
    measured: VarianceLevels | None = None
    primary: str = "gain"                  # which representation was supplied
    valid: bool = True


def sweep_pump(cavity: CavityParams, chain: DetectionChain, pumps: list[PumpSpec],
               frequency_hz: float,
               measured: list[tuple[float, VarianceLevels]] | None = None) -> list[SweepRow]:
    """Predicted levels for a list of pump drives, ordered by pump power.

    The threshold, the efficiencies and the detuning parameter are derived
    once per sweep, and each pump's representation is read once: a power
    meets the threshold rule once, and a row below threshold derives its x,
    G and power each once, by the map of ``opo`` that owns it.  Each such
    row adds the linear pair of ``min_max_levels``, whose domain the types
    already hold (alpha and rho in (0, 1], omega_norm >= 0, x < 1 below
    threshold); the levels of the whole sweep then go to dB in one
    ``to_db`` call, with the bits of one ``min_max_levels`` call per pump.  A power ``at_or_above_threshold``
    is kept in the table as an invalid row rather than dropped.  Measured
    level pairs, given as (pump_power_W, levels), attach to the row with the
    nearest pump power; a measured power that is not finite and >= 0, or two
    that attach to the same row, raise ParameterDomainError.
    """
    if not pumps:
        raise ParameterDomainError("pump list must not be empty")
    p_th = threshold_power(cavity)
    alpha, rho = detection_efficiency(chain), escape_efficiency(cavity)
    omega_norm = detuning_at(cavity, frequency_hz)
    drives, linear = [], []  # (power, gain, x, kind) per pump, x None above threshold
    for pump in pumps:
        power, gain = pump.pump_power, pump.parametric_gain
        if power is not None:
            if at_or_above_threshold(power, p_th):
                drives.append((power, None, None, "power"))
                continue
            x = pump_parameter_from_power(power, p_th)
            drives.append((power, gain_from_pump_parameter(x), x, "power"))
        elif gain is not None:
            x = pump_parameter_from_gain(gain)
            drives.append((x * x * p_th, gain, x, "gain"))
        else:
            x = pump.pump_parameter
            drives.append((x * x * p_th, gain_from_pump_parameter(x), x, "x"))
        s_min, s_max = extremal_variances(alpha, rho, x, omega_norm)
        linear += float(s_min), float(s_max)
    db = to_db(linear).tolist()  # one call for the sweep, not two per row
    # rows and levels in field order: positional arguments cost a dataclass
    # __init__ less than keywords
    rows, i = [], 0
    for power, gain, x, kind in drives:
        if x is None:
            rows.append(SweepRow(power, None, None, None, None, kind, False))
            continue
        levels = VarianceLevels(linear[i], linear[i + 1], db[i], db[i + 1])
        rows.append(SweepRow(power, gain, x, levels, None, kind))
        i += 2
    rows.sort(key=_BY_PUMP_POWER)
    if measured:
        powers = np.array([r.pump_power for r in rows])
        assigned: dict[int, tuple[float, VarianceLevels]] = {}
        for m_power, m_levels in measured:
            if not 0.0 <= m_power < math.inf:
                raise ParameterDomainError(
                    f"measured pump power must be finite and >= 0, got {m_power} W")
            i = int(np.argmin(np.abs(powers - m_power)))
            if i in assigned:
                raise ParameterDomainError(
                    f"measured rows at {assigned[i][0]} W and {m_power} W both attach to "
                    f"the sweep row at {rows[i].pump_power} W")
            assigned[i] = m_power, m_levels
        rows = [replace(r, measured=assigned[i][1]) if i in assigned else r
                for i, r in enumerate(rows)]
    return rows


@dataclass(frozen=True)
class ReconcileResult:
    """Gain/efficiency corrections explaining a measured level pair.

    gain_scale multiplies the nominal parametric gain G; efficiency_scale
    multiplies the nominal detection efficiency.  amplitude_gain_scale is
    the same correction expressed on sqrt(G), the amplitude gain, since a
    fractional correction reads very differently on the two scales.
    residual_db is the remaining 2-norm misfit of the level pair.
    iterations is always 0: the solution is closed-form.
    """

    gain_scale: float
    efficiency_scale: float
    residual_db: float
    amplitude_gain_scale: float
    corrected_gain: float
    iterations: int
    exact_match: bool


def _scaled_prediction_db(gain_scale, efficiency_scale, nominal_gain: float, alpha: float,
                          rho: float, omega_norm: float, clearance_db: float):
    """Observed (s_min_db, s_max_db) with the gain and the detection efficiency
    scaled; the scales may be arrays that broadcast together.  A float gain
    scale takes max and math.sqrt, the IEEE operations of np.maximum and
    np.sqrt, without 0-d arrays."""
    if isinstance(gain_scale, float):
        x = pump_parameter_from_gain(max(gain_scale * nominal_gain, 1.0))
    else:
        x = 1.0 - 1.0 / np.sqrt(np.maximum(gain_scale * nominal_gain, 1.0))
    s_min, s_max = extremal_variances(efficiency_scale * alpha, rho, x, omega_norm)
    return apply_circuit_noise(s_min, clearance_db), apply_circuit_noise(s_max, clearance_db)


def _box_edge_minimum(measured: VarianceLevels, gain: float, alpha: float, rho: float,
                      omega_norm: float, clearance_db: float, edges: tuple) -> tuple:
    """(g, e, misfit) of least misfit on the box edges ``edges`` = (g_lo, g_hi,
    e_lo, e_hi).

    Rows 0 and 1 scan e on g = g_lo and g_hi, rows 2 and 3 scan g on e = e_lo
    and e_hi, each on a 65-point grid narrowed five times around its best
    point; the best of the last round's row minima wins.  Each element is
    the misfit of ``_scaled_prediction_db`` with the same operations in the
    same order, so the point is the one a scan of that function finds, and
    the returned misfit that function's value there, bit for bit.  The
    fixed coordinate's chain is worked out once per row, and a round
    evaluates only the scanned chain, in place.
    """
    g_lo, g_hi, e_lo, e_hi = edges
    w2 = 4.0 * omega_norm * omega_norm
    n = circuit_noise_floor(clearance_db)
    # nine lanes of (4, 65) elements, with ar = e*alpha*rho
    lanes = np.empty((9, 4, 65))
    x, loss, ar4, x4, below, below_w2, above_w2, s_max, s_min = lanes
    levels = lanes[7:]
    # the fixed coordinate's lanes, once, in Python floats (the same IEEE
    # operations as numpy's, sqrt included): the g-chain of rows 0-1 and the
    # e-chain of rows 2-3; the scanned lanes are filled per round
    fixed = []
    for g in (g_lo, g_hi):
        xg = 1.0 - 1.0 / math.sqrt(max(g * gain, 1.0))
        sq = (1.0 - xg) * (1.0 - xg)
        fixed.append((xg, 0.0, 0.0, 4.0 * xg, sq, sq + w2, (1.0 + xg) * (1.0 + xg) + w2))
    for e in (e_lo, e_hi):
        ar = e * alpha * rho
        fixed.append((0.0, 1.0 - ar, 4.0 * ar, 0.0, 0.0, 0.0, 0.0))
    lanes[:7] = np.array(fixed).T[:, :, None]
    t = np.empty((4, 65))
    t_e, ar_e, ar4_e = t[:2], loss[:2], ar4[:2]  # ar is worked out where 1 - ar goes
    t_g, x_g, x4_g, below_g = t[2:], x[2:], x4[2:], below[2:]
    below_w2_g, above_w2_g = below_w2[2:], above_w2[2:]
    values = np.empty((4, 65))
    lo, hi = np.array([[e_lo], [e_lo], [g_lo], [g_lo]]), np.array([[e_hi], [e_hi], [g_hi], [g_hi]])
    for _ in range(5):
        # np.linspace(lo, hi, 65, axis=-1) bit for bit (no row has zero width):
        # lo + i*step with the last point pinned to hi
        np.multiply(_EDGE_GRID, (hi - lo) / 64, out=t)
        t += lo
        t[:, 64:] = hi
        np.multiply(t_e, alpha, out=ar_e)
        ar_e *= rho
        np.multiply(ar_e, 4.0, out=ar4_e)
        np.subtract(1.0, ar_e, out=ar_e)
        np.multiply(t_g, gain, out=x_g)
        np.maximum(x_g, 1.0, out=x_g)
        np.sqrt(x_g, out=x_g)
        np.divide(1.0, x_g, out=x_g)
        np.subtract(1.0, x_g, out=x_g)
        np.multiply(x_g, 4.0, out=x4_g)
        np.subtract(1.0, x_g, out=below_g)
        below_g *= below_g
        np.add(below_g, w2, out=below_w2_g)
        np.add(1.0, x_g, out=above_w2_g)
        above_w2_g *= above_w2_g
        above_w2_g += w2
        # opo.extremal_variances: s_max = ((1-x)^2 + W^2 + 4ar*x) / ((1-x)^2 + W^2),
        # s_min = ((1-x)^2 + 4x*(1 - ar) + W^2) / ((1+x)^2 + W^2).  Both are > 0
        # (ar <= 1 and x < 1), so apply_circuit_noise's domain check is not
        # repeated per round; reconcile_discrepancy's final misfit runs it
        np.multiply(lanes[2:4], lanes[0:2], out=levels)  # 4ar*x, 4x*(1 - ar)
        s_max += below_w2
        s_min += below
        s_min += w2
        levels /= lanes[5:7]
        levels += n  # detection.apply_circuit_noise, both levels at once
        levels /= 1.0 + n
        np.log10(levels, out=levels)
        levels *= 10.0
        s_max -= measured.s_max_db
        s_min -= measured.s_min_db
        np.hypot(s_min, s_max, out=values)
        i = values.argmin(axis=1)
        bounds = t[_EDGE_ROWS[:, None], _EDGE_BOUNDS[i]]
        lo, hi = bounds[:, :1], bounds[:, 1:]
    best = int(values[_EDGE_ROWS, i].argmin())
    point, misfit = t[best, i[best]], values[best, i[best]]
    return (edges[best], point, misfit) if best < 2 else (point, edges[best], misfit)


def reconcile_discrepancy(measured: VarianceLevels, cavity: CavityParams,
                          chain: DetectionChain, pump: PumpSpec,
                          frequency_hz: float) -> ReconcileResult:
    """Find (gain_scale, efficiency_scale), g in (0.5, 1.5) and e in (0.3, 1],
    whose corrected prediction matches the measured levels.

    The measured levels, each mapped back through the electronic floor by
    ``remove_circuit_noise`` to S_min and S_max, give
    R = (S_max - 1) / (1 - S_min) = D+ / D-, with D+- = (1 +- x)^2 + 4 W^2:
    a quadratic in the pump parameter x.  Its root
    x = (R - 1)(1 + 4W^2) / (1 + R + sqrt((1 + R)^2 - (1 - R)^2 (1 + 4W^2)))
    in [0, 1) gives g = 1 / ((1 - x)^2 G) and e = (S_max - 1) D- / (4 a r x).

    With no root (R <= 1, a level on the wrong side of shot noise, or a
    negative discriminant) or a root outside the box, the least-squares point
    on the box edge is returned with ``exact_match=False``: R(x) is strictly
    increasing, so every interior critical point of the misfit is a root.
    Each edge is scanned on a 65-point grid narrowed five times around its
    best point, and the best of the last round's edge minima wins.  All four
    edges are scanned together on preallocated (4, 65) arrays: each edge's
    fixed coordinate is worked out once, a round evaluates only the scanned
    coordinate's chain in place, and both levels go through the electronic
    floor as one stacked array, every element in the operation order of
    ``_scaled_prediction_db``, so the scan's last-round value at its point
    is the residual: the forward model is evaluated only at an in-box root.
    ``iterations`` is always 0.  A level at or below the electronic floor
    raises ParameterDomainError, and so do an efficiency product alpha*rho
    that underflows (below the smallest normal float) and a gain G at which
    1.5*G is at threshold to double precision.
    """
    if pump.kind != "gain":
        raise ParameterDomainError(
            "reconciliation corrects a measured parametric gain; supply the pump as a gain")
    gain = pump.parametric_gain
    alpha, rho, _, omega_norm = operating_point(cavity, chain, pump, frequency_hz)
    # the root's x is at least about 5e-17, so 4*alpha*rho*x stays > 0 for a
    # normal alpha*rho; a gain scaled to the box's top must stay below threshold
    if not alpha * rho >= sys.float_info.min:
        raise ParameterDomainError(f"the efficiency product alpha*rho underflows: {alpha * rho}")
    if not pump_parameter_from_gain(GAIN_SCALE_BOX[1] * gain) < 1.0:
        raise ParameterDomainError(f"parametric gain {gain} scaled by {GAIN_SCALE_BOX[1]} "
                                   "is at threshold to double precision")
    clearance = chain.circuit_noise_clearance_db
    # Python floats, so that a product overflowing below gives inf, not a warning
    s_min = remove_circuit_noise(measured.s_min_db, clearance)
    s_max = remove_circuit_noise(measured.s_max_db, clearance)
    g_lo, g_hi = GAIN_SCALE_BOX
    e_lo, e_hi = EFFICIENCY_SCALE_BOX
    in_box = False
    if 0.0 < 1.0 - s_min < s_max - 1.0:  # R > 1, both levels on their side of shot noise
        ratio = (s_max - 1.0) / (1.0 - s_min)
        w2 = 4.0 * omega_norm * omega_norm
        # (1 +- R)^2 raises OverflowError above R ~ 1.3e154, where a root
        # would round to x = 1: no root in the box
        disc = (1.0 + ratio) ** 2 - (1.0 - ratio) ** 2 * (1.0 + w2) if ratio < 1e150 else -1.0
        if disc >= 0.0:
            x = (ratio - 1.0) * (1.0 + w2) / (1.0 + ratio + math.sqrt(disc))
            if x < 1.0:
                below = (1.0 - x) * (1.0 - x)  # products, as in opo.extremal_variances
                g = 1.0 / (below * gain)
                e = (s_max - 1.0) * (below + w2) / (4.0 * alpha * rho * x)
                in_box = g_lo < g < g_hi and e_lo < e <= e_hi + 1e-12  # e = 1 to rounding
    if in_box:
        lo_db, hi_db = _scaled_prediction_db(g, e, gain, alpha, rho, omega_norm, clearance)
        norm = np.hypot(lo_db - measured.s_min_db, hi_db - measured.s_max_db)
    else:
        eps = 1e-7  # the box is open at g = 0.5, 1.5 and e = 0.3
        g_lo, g_hi, e_lo = g_lo + eps, g_hi - eps, e_lo + eps
        g, e, norm = _box_edge_minimum(measured, gain, alpha, rho, omega_norm, clearance,
                                       (g_lo, g_hi, e_lo, e_hi))
    norm = float(norm)
    # positional, in field order: gain_scale, efficiency_scale, residual_db,
    # amplitude_gain_scale, corrected_gain, iterations, exact_match
    return ReconcileResult(float(g), min(float(e), e_hi), norm, math.sqrt(g), float(g * gain), 0,
                           norm < 1e-6)


@dataclass(frozen=True)
class LossOnlyReport:
    """Can extra loss alone explain a measured level pair?

    efficiency_scale matches the measured squeezing level exactly; the
    anti-squeezing misfit that remains decides feasibility.
    """

    efficiency_scale: float
    s_max_predicted_db: float
    s_max_error_db: float
    feasible: bool
    tolerance_db: float


def loss_only_explanation_check(measured: VarianceLevels, cavity: CavityParams,
                                chain: DetectionChain, pump: PumpSpec,
                                frequency_hz: float) -> LossOnlyReport:
    """Fit a single efficiency scale to the measured squeezing level and report
    the resulting anti-squeezing error.

    The squeezing level pins the efficiency scale in closed form: with
    S_min = 1 - 4*a*r*x / D+, D+ = (1 + x)^2 + 4 W^2, and the measured S_min
    recovered from the circuit-noise map, e = (1 - S_min_meas) * D+ / (4*a*r*x).
    Feasible means the implied anti-squeezing agrees within LOSS_ONLY_TOLERANCE_DB.
    A pump at x = 0, a product 4*alpha*rho*x that underflows to 0, or a
    squeezing level outside (floor, shot noise) raises ParameterDomainError.
    """
    alpha, rho, x, omega_norm = operating_point(cavity, chain, pump, frequency_hz)
    if not x > 0.0:
        raise ParameterDomainError("loss-only check needs a pump above zero (x > 0)")
    if not 4.0 * alpha * rho * x > 0.0:
        raise ParameterDomainError(f"4*alpha*rho*x underflows to 0 (alpha*rho = {alpha * rho}, x = {x})")
    clearance = chain.circuit_noise_clearance_db
    s_min_underlying = remove_circuit_noise(measured.s_min_db, clearance)
    if not s_min_underlying < 1.0:
        raise ParameterDomainError("measured squeezing level must lie below shot noise")
    d_plus = (1.0 + x) * (1.0 + x) + 4.0 * omega_norm * omega_norm  # as in extremal_variances
    e = (1.0 - s_min_underlying) * d_plus / (4.0 * alpha * rho * x)
    e = min(e, 1.0)  # efficiency cannot exceed the nominal chain
    # e*alpha, rho, x and omega_norm lie in the domain of min_max_levels
    s_max_pred_db = apply_circuit_noise(extremal_variances(e * alpha, rho, x, omega_norm)[1],
                                        clearance)
    err = s_max_pred_db - measured.s_max_db
    # positional, in field order: efficiency_scale, s_max_predicted_db,
    # s_max_error_db, feasible, tolerance_db
    return LossOnlyReport(float(e), s_max_pred_db, float(err), abs(err) <= LOSS_ONLY_TOLERANCE_DB,
                          LOSS_ONLY_TOLERANCE_DB)
