"""Closed-form physics of a sub-threshold degenerate OPO.

Everything in this module is a pure function of value-type inputs, in strict
SI units (watts, meters, radians per second).  Decibels and bench units
(mW, mm, MHz) belong to the I/O layer.

The central quantity is the quadrature variance of the OPO output relative
to shot noise,

    S(theta) = s_max*cos^2(theta) + s_min*sin^2(theta),
    s_max, s_min = 1 +- 4*a*r*x / ((1 -+ x)^2 + 4*W^2),

with ``a`` the detection efficiency, ``r`` the cavity escape efficiency,
``x`` the pump parameter and ``W`` the sideband frequency normalised by the
cavity decay rate.  theta = 0 is the anti-squeezed quadrature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

SPEED_OF_LIGHT = 299_792_458.0  # m/s, exact


class ParameterDomainError(ValueError):
    """A physical parameter is outside its valid domain."""


def to_db(s_linear):
    """Linear variance (relative to shot noise) -> dB.  A scalar (Python,
    numpy or 0-d) gives a Python float, an array an array of its shape."""
    out = 10.0 * np.log10(s_linear)
    return float(out) if out.ndim == 0 else out


def from_db(s_db):
    """dB (relative to shot noise) -> linear variance; scalar/array contract
    of ``to_db``.  A variance that overflows (a level above about 3082 dB)
    is inf, without a warning."""
    if isinstance(s_db, float):  # np.float64 included: Python's float pow is libm's pow
        try:
            return 10.0 ** (float(s_db) / 10.0)
        except OverflowError:
            return math.inf
    with np.errstate(over="ignore"):
        out = 10.0 ** (np.asarray(s_db) / 10.0)
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class CavityParams:
    """Geometry and losses of the OPO cavity.

    round_trip_length     cavity round-trip length l in meters
    coupler_transmittance output-coupler transmittance T (fraction)
    intracavity_loss      residual intracavity loss L (fraction)
    nonlinear_efficiency  single-pass nonlinear conversion efficiency E_NL in 1/W
    """

    round_trip_length: float
    coupler_transmittance: float
    intracavity_loss: float
    nonlinear_efficiency: float

    def __post_init__(self):
        T, L = self.coupler_transmittance, self.intracavity_loss
        if not 0.0 < T < 1.0:
            raise ParameterDomainError(f"coupler_transmittance must be in (0, 1), got {T}")
        if not 0.0 <= L < 1.0:
            raise ParameterDomainError(f"intracavity_loss must be in [0, 1), got {L}")
        if not T + L < 1.0:
            raise ParameterDomainError(f"total loss T + L must be < 1, got {T + L}")
        for name in ("round_trip_length", "nonlinear_efficiency"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ParameterDomainError(f"{name} must be finite and > 0, got {getattr(self, name)}")
        for name, derived in (("decay rate c*(T + L)/l", cavity_decay_rate),
                              ("threshold (T + L)^2/(4*E_NL)", threshold_power)):
            if not 0.0 < derived(self) < math.inf:
                raise ParameterDomainError(f"cavity {name} {'overflows' if derived(self) else 'underflows to 0'}")


@dataclass(frozen=True)
class PumpSpec:
    """Pump drive, given as exactly one of:

    pump_power       pump power incident on the OPO, in watts
    parametric_gain  classical (intensity) parametric gain G >= 1, short of
                     the G (about 3.2e32) at which x = 1 - 1/sqrt(G) rounds to 1
    pump_parameter   normalised pump amplitude x in [0, 1)

    The representation that was supplied is preserved (``kind``), because
    gain- and power-derived pump parameters need not agree for real data and
    downstream analysis treats them separately.
    """

    pump_power: float | None = None
    parametric_gain: float | None = None
    pump_parameter: float | None = None

    def __post_init__(self):
        given = [name for name in ("pump_power", "parametric_gain", "pump_parameter")
                 if getattr(self, name) is not None]
        if len(given) != 1:
            raise ParameterDomainError(
                f"exactly one of pump_power/parametric_gain/pump_parameter required, got {given or 'none'}")
        if self.pump_power is not None and not self.pump_power >= 0.0:
            raise ParameterDomainError(f"pump_power must be >= 0, got {self.pump_power}")
        if self.parametric_gain is not None:
            if not self.parametric_gain >= 1.0:
                raise ParameterDomainError(f"parametric_gain must be >= 1, got {self.parametric_gain}")
            if not pump_parameter(self) < 1.0:  # from G of about 3.2e32 on, inf included
                raise ParameterDomainError(
                    f"parametric_gain {self.parametric_gain} is at threshold to double precision "
                    "(x = 1 - 1/sqrt(G) rounds to 1)")
        if self.pump_parameter is not None and not 0.0 <= self.pump_parameter < 1.0:
            raise ParameterDomainError(f"pump_parameter must be in [0, 1), got {self.pump_parameter}")

    @property
    def kind(self) -> str:
        if self.pump_power is not None:
            return "power"
        if self.parametric_gain is not None:
            return "gain"
        return "x"


@dataclass(frozen=True)
class SpectralPoint:
    """Sideband analysis point: the detuning parameter omega / gamma."""

    detuning_parameter: float  # dimensionless

    def __post_init__(self):
        if not self.detuning_parameter >= 0.0:
            raise ParameterDomainError(f"detuning_parameter must be >= 0, got {self.detuning_parameter}")
        _check_detuning_square(self.detuning_parameter)


def _check_detuning_square(w: float) -> None:
    """4*W^2 of the detuning parameter, squared as a float (no numpy warning), must be finite."""
    w = float(w)
    if not 4.0 * w * w < math.inf:
        raise ParameterDomainError(f"detuning_parameter {w} overflows 4*detuning_parameter^2")


@dataclass(frozen=True)
class VarianceLevels:
    """Extremal quadrature variances relative to shot noise.

    s_min/s_max are linear; the *_db fields are 10*log10 of them.
    """

    s_min: float
    s_max: float
    s_min_db: float
    s_max_db: float

    # positional arguments, in field order: they cost a dataclass __init__ less than keywords
    @classmethod
    def from_linear(cls, s_min: float, s_max: float) -> "VarianceLevels":
        return cls(float(s_min), float(s_max), to_db(s_min), to_db(s_max))

    @classmethod
    def from_db(cls, s_min_db: float, s_max_db: float) -> "VarianceLevels":
        return cls(from_db(s_min_db), from_db(s_max_db), float(s_min_db), float(s_max_db))


def threshold_power(cavity: CavityParams) -> float:
    """Parametric oscillation threshold (T + L)^2 / (4 E_NL), in watts."""
    tl = cavity.coupler_transmittance + cavity.intracavity_loss
    return tl * tl / (4.0 * cavity.nonlinear_efficiency)


def escape_efficiency(cavity: CavityParams) -> float:
    """Fraction T / (T + L) of intracavity squeezing that leaves through the coupler."""
    return cavity.coupler_transmittance / (cavity.coupler_transmittance + cavity.intracavity_loss)


def cavity_decay_rate(cavity: CavityParams) -> float:
    """Cavity amplitude decay rate c (T + L) / l, in rad/s."""
    return SPEED_OF_LIGHT * (cavity.coupler_transmittance + cavity.intracavity_loss) / cavity.round_trip_length


def detuning_parameter(cavity: CavityParams, omega: float) -> float:
    """Normalised sideband frequency omega / gamma for a finite angular
    frequency omega > 0."""
    if not 0.0 < omega < math.inf:
        raise ParameterDomainError(f"analysis frequency must be finite and > 0, got {omega}")
    return omega / cavity_decay_rate(cavity)


def detuning_at(cavity: CavityParams, frequency_hz: float) -> float:
    """The detuning parameter omega / gamma at an analysis frequency in Hz
    (omega = 2*pi*f), as a float.  A frequency that is not finite and > 0, a
    finite one whose 2*pi*f overflows, and a detuning parameter whose 4*W^2
    overflows raise ParameterDomainError.  The frequency is taken as a Python
    float, so a numpy one overflows without numpy's warning."""
    frequency_hz = float(frequency_hz)
    if not 0.0 < frequency_hz < math.inf:
        raise ParameterDomainError(f"analysis frequency must be finite and > 0, got {frequency_hz}")
    omega = 2.0 * math.pi * frequency_hz
    if omega == math.inf:
        raise ParameterDomainError(
            f"analysis frequency {frequency_hz} Hz overflows the angular frequency 2*pi*f")
    w = detuning_parameter(cavity, omega)
    _check_detuning_square(w)
    return w


def spectral_point(cavity: CavityParams, frequency_hz: float) -> SpectralPoint:
    """``detuning_at`` as a SpectralPoint."""
    return SpectralPoint(detuning_at(cavity, frequency_hz))


def at_or_above_threshold(pump_power: float, threshold: float) -> bool:
    """The threshold rule: the variance model is valid only for a pump power
    below the threshold power."""
    return pump_power >= threshold


def pump_parameter(pump: PumpSpec, threshold: float | None = None) -> float:
    """Normalised pump amplitude x in [0, 1).

    Power variant:  x = sqrt(P_pump / P_th)   (threshold required)
    Gain variant:   x = 1 - 1 / sqrt(G)
    x variant:      identity

    Raises ParameterDomainError for a power ``at_or_above_threshold``.
    """
    if pump.pump_power is not None:
        if threshold is None or not threshold > 0.0:
            raise ParameterDomainError("power variant needs a positive threshold power")
        if at_or_above_threshold(pump.pump_power, threshold):
            raise ParameterDomainError(
                f"pump power {pump.pump_power} W is at or above threshold {threshold} W")
        return pump_parameter_from_power(pump.pump_power, threshold)
    if pump.parametric_gain is not None:
        return pump_parameter_from_gain(pump.parametric_gain)
    return pump.pump_parameter


def pump_parameter_from_power(pump_power: float, threshold: float) -> float:
    """x = sqrt(P_pump / P_th) of a power below a positive threshold, unchecked."""
    return math.sqrt(pump_power / threshold)


def pump_parameter_from_gain(parametric_gain: float) -> float:
    """x = 1 - 1 / sqrt(G) of a gain G >= 1, unchecked."""
    return 1.0 - 1.0 / math.sqrt(parametric_gain)


def gain_from_pump_parameter(x: float) -> float:
    """Classical parametric gain G = 1 / (1 - x)^2; inverse of the gain variant."""
    if not 0.0 <= x < 1.0:
        raise ParameterDomainError(f"pump parameter must be in [0, 1), got {x}")
    return 1.0 / (1.0 - x) ** 2


def quadrature_variance(theta, alpha: float, rho: float, x: float, omega_norm: float):
    """Quadrature variance S(theta) relative to shot noise, from the extremal
    pair (and domain) of ``min_max_levels``: s_max*cos^2 + s_min*sin^2.

    theta may be a scalar or array (radians).  alpha and rho are the
    detection and escape efficiencies in [0, 1], x the pump parameter in
    [0, 1), omega_norm the detuning parameter (>= 0).
    """
    levels = min_max_levels(alpha, rho, x, omega_norm)
    c2 = np.cos(theta) ** 2
    return levels.s_max * c2 + levels.s_min * (1.0 - c2)


def extremal_variances(alpha, rho, x, omega_norm):
    """Linear (s_min, s_max) = (S(pi/2), S(0)); broadcasts, checks no domain.

    Uses the cancellation-free rearrangement
        s_min = ((1-x)^2 + 4x(1 - a*r) + 4 W^2) / ((1+x)^2 + 4 W^2),
    which keeps s_min accurate (and s_min*s_max = 1 at unit efficiency, zero
    detuning) even for x close to 1, where the direct 1 - 4arx/D form loses
    most of its significant digits.
    """
    w2 = 4.0 * omega_norm * omega_norm
    ar = alpha * rho
    # products, not ** 2: float ** 2 calls libm pow, which can miss numpy's square by an ulp
    below, above = (1.0 - x) * (1.0 - x), (1.0 + x) * (1.0 + x)
    s_max = (below + w2 + 4.0 * ar * x) / (below + w2)
    s_min = (below + 4.0 * x * (1.0 - ar) + w2) / (above + w2)
    return s_min, s_max


def min_max_levels(alpha: float, rho: float, x: float, omega_norm: float) -> VarianceLevels:
    """``extremal_variances`` after the domain checks, which NaN fails; a
    detuning parameter whose 4*W^2 overflows is refused too."""
    if not 0.0 <= alpha <= 1.0:
        raise ParameterDomainError(f"detection efficiency must be in [0, 1], got {alpha}")
    if not 0.0 <= rho <= 1.0:
        raise ParameterDomainError(f"escape efficiency must be in [0, 1], got {rho}")
    if not 0.0 <= x < 1.0:
        raise ParameterDomainError(f"pump parameter must be in [0, 1), got {x}")
    if not omega_norm >= 0.0:
        raise ParameterDomainError(f"detuning parameter must be >= 0, got {omega_norm}")
    _check_detuning_square(omega_norm)
    return VarianceLevels.from_linear(*extremal_variances(alpha, rho, x, omega_norm))
