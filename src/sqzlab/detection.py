"""Homodyne detection chain and scanned-phase trace synthesis.

Models the path from the OPO output to a number on the spectrum analyzer:
detection efficiency, the electronic (circuit) noise floor, local-oscillator
phase jitter, and the power-estimator scatter of an analyzer running in
zero-span mode.

Conventions:

* Relative noise powers are dB re the *measured* shot noise.  Both the
  signal trace and the shot-noise reference contain the same additive
  electronic floor n = 10^(-clearance/10), so the reported level for an
  underlying variance S is 10*log10((S + n) / (1 + n)).
* The LO phase scan is a linear ramp theta(t) = theta0 + 2*pi*t/T_scan.
* Phase jitter is zero-mean Gaussian and quasi-static within one analyzer
  sample.  Because S(theta) = A + B*cos(2*theta) exactly, its jitter average
  has the closed form A + B*exp(-2*sigma^2)*cos(2*theta0) (Gaussian moment
  E[cos 2d] = exp(-2*sigma^2)); no quadrature is needed on this side.
* Analyzer scatter per sample is a normalised chi-square with
  k = max(2, round(2*RBW/VBW)) degrees of freedom.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .opo import ParameterDomainError, from_db, min_max_levels, quadrature_variance, to_db

_REAL = (float, int, numbers.Real)  # float and int first: they skip the slow ABC check
_MAX_INDEX = int(np.iinfo(np.intp).max)  # the largest count numpy can index


def circuit_noise_floor(clearance_db) -> float:
    """Electronic floor n = 10^(-clearance/10), a linear variance relative to
    shot noise.  The clearance must be a finite real > 0 dB; anything else
    (a trace header may carry text) raises ParameterDomainError."""
    if not (isinstance(clearance_db, _REAL) and 0.0 < clearance_db < math.inf):
        raise ParameterDomainError(f"clearance must be finite and > 0 dB, got {clearance_db}")
    return from_db(-clearance_db)


@dataclass(frozen=True)
class DetectionChain:
    """Efficiencies of the homodyne detection path.

    quantum_efficiency      photodiode quantum efficiency eta, in (0, 1]
    visibility              homodyne fringe visibility xi, in (0, 1]
    propagation_efficiency  extra intensity transmission between OPO and
                            detector (default 1; a knob for loss studies)
    circuit_noise_clearance_db  electronic noise floor, dB below shot noise
    """

    quantum_efficiency: float
    visibility: float
    propagation_efficiency: float = 1.0
    circuit_noise_clearance_db: float = 14.0

    def __post_init__(self):
        for name in ("quantum_efficiency", "visibility", "propagation_efficiency"):
            v = getattr(self, name)
            if not 0.0 < v <= 1.0:
                raise ParameterDomainError(f"{name} must be in (0, 1], got {v}")
        if not detection_efficiency(self) > 0.0:
            raise ParameterDomainError("detection efficiency eta*xi^2*propagation_efficiency "
                                       "underflows to 0")
        try:
            circuit_noise_floor(self.circuit_noise_clearance_db)
        except ParameterDomainError as exc:
            raise ParameterDomainError(f"circuit_noise_clearance_db: {exc}") from None


@dataclass(frozen=True)
class PhaseScan:
    """Linear LO phase ramp theta(t) = theta0 + 2*pi*t/period, with optional
    per-sample Gaussian phase jitter (RMS jitter_sigma, radians)."""

    period: float
    theta0: float = 0.0
    jitter_sigma: float = 0.0

    def __post_init__(self):
        if not 0.0 < self.period < math.inf:
            raise ParameterDomainError(f"scan period must be > 0 and finite, got {self.period}")
        if not self.rate < math.inf:
            raise ParameterDomainError(f"period {self.period} s gives a scan rate 2*pi/period that overflows")
        if not math.isfinite(self.theta0):
            raise ParameterDomainError(f"theta0 must be finite, got {self.theta0}")
        if not 0.0 <= self.jitter_sigma < math.inf:
            raise ParameterDomainError(f"jitter_sigma must be finite and >= 0, got {self.jitter_sigma}")

    @property
    def rate(self) -> float:
        """Phase scan rate, rad/s."""
        return 2.0 * math.pi / self.period


@dataclass(frozen=True)
class AcquisitionSettings:
    """Spectrum-analyzer settings for a zero-span measurement."""

    center_frequency: float       # Hz
    resolution_bandwidth: float   # Hz
    video_bandwidth: float        # Hz
    sweep_duration: float         # s
    sample_count: int
    lo_scan: PhaseScan

    def __post_init__(self):
        if not isinstance(self.sample_count, (int, np.integer)):
            raise ParameterDomainError("sample_count must be an integer")
        for name in ("center_frequency", "resolution_bandwidth", "video_bandwidth", "sweep_duration"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ParameterDomainError(f"{name} must be finite and > 0, got {getattr(self, name)}")
        if not 2.0 * self.lo_scan.rate * self.sweep_duration < math.inf:
            raise ParameterDomainError(
                f"sweep_duration {self.sweep_duration} s at scan period {self.lo_scan.period} s "
                "gives a scan phase 2*rate*sweep_duration that overflows")
        if not self.video_bandwidth <= self.resolution_bandwidth:
            raise ParameterDomainError("video_bandwidth must not exceed resolution_bandwidth")
        if not 2.0 * self.resolution_bandwidth / self.video_bandwidth < math.inf:
            raise ParameterDomainError(f"video_bandwidth {self.video_bandwidth} Hz overflows 2*RBW/VBW")
        if not self.sample_count >= 2:
            raise ParameterDomainError(f"sample_count must be >= 2, got {self.sample_count}")
        if not self.sample_count <= _MAX_INDEX:  # shown to 3 digits: float() overflows above 1.8e308
            from decimal import Context, Decimal

            shown = Decimal(self.sample_count).normalize(Context(prec=3))
            raise ParameterDomainError(f"sample_count must be at most {_MAX_INDEX}, got {shown:g}")

    @property
    def times(self) -> np.ndarray:
        try:
            return np.linspace(0.0, self.sweep_duration, self.sample_count)
        except (MemoryError, ValueError, IndexError):  # numpy cannot size or allocate the array
            raise ParameterDomainError(
                f"sample_count {self.sample_count} is more float64 times than numpy can allocate "
                f"({8 * int(self.sample_count):.3g} bytes)") from None

    @property
    def estimator_dof(self) -> int:
        """Chi-square degrees of freedom of one power sample: RBW-band power
        detection followed by VBW averaging."""
        return max(2, round(2.0 * self.resolution_bandwidth / self.video_bandwidth))


@dataclass(frozen=True, eq=False)
class NoiseTrace:
    """A scanned-phase noise-power record relative to shot noise."""

    times: np.ndarray              # s, strictly increasing
    powers_db: np.ndarray          # dB re measured shot noise
    acquisition: AcquisitionSettings
    shot_reference_db: float = 0.0
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        p = np.asarray(self.powers_db, dtype=float)
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "powers_db", p)
        if t.shape != p.shape or t.ndim != 1:
            raise ParameterDomainError("times and powers_db must be 1-D arrays of equal length")
        if not (t[1:] > t[:-1]).all():
            raise ParameterDomainError("sample times must be strictly increasing")
        if not np.isfinite(t).all():
            raise ParameterDomainError("sample times must be finite")
        if not np.isfinite(p).all():
            raise ParameterDomainError("power values must be finite")
        if not math.isfinite(self.shot_reference_db):
            raise ParameterDomainError(f"shot_reference_db must be finite, got {self.shot_reference_db}")

    def __len__(self) -> int:
        return int(self.times.size)


def detection_efficiency(chain: DetectionChain) -> float:
    """Total detection efficiency eta * xi^2 * propagation_efficiency."""
    return (chain.quantum_efficiency * chain.visibility ** 2
            * chain.propagation_efficiency)


def apply_circuit_noise(s_linear, clearance_db: float):
    """Observed level, dB re measured shot noise, of an underlying variance.

    Both the signal and the shot-noise reference acquire the same additive
    electronic floor n = 10^(-clearance/10); the observable is therefore
    10*log10((s + n) / (1 + n)).  Scalar/array contract of ``to_db``.
    """
    n = circuit_noise_floor(clearance_db)
    if isinstance(s_linear, float):  # the same arithmetic on floats, without 0-d arrays
        if not s_linear > 0.0:
            raise ParameterDomainError("variance must be > 0")
        return to_db((s_linear + n) / (1.0 + n))
    s = np.asarray(s_linear, dtype=float)
    if not (s > 0.0).all():
        raise ParameterDomainError("variance must be > 0")
    return to_db((s + n) / (1.0 + n))


def remove_circuit_noise(observed_db, clearance_db: float) -> float:
    """Underlying linear variance, as a Python float, from one observed level
    (a float, a numpy float or a 0-d array); inverse of apply_circuit_noise,
    with its clearance domain.  A level at or below the floor (and NaN)
    raises ParameterDomainError; an array of one or more dimensions, or a
    list, is a TypeError from float().  A level whose variance overflows
    (above about 3082 dB) raises ParameterDomainError too."""
    n = circuit_noise_floor(clearance_db)
    level = float(observed_db)
    s = from_db(level) * (1.0 + n) - n
    if not s > 0.0:
        raise ParameterDomainError("observed level lies at or below the electronic floor")
    if s == math.inf:
        raise ParameterDomainError(f"observed level {level} dB overflows as a linear variance")
    return s


def jitter_averaged_variance(theta0: float, sigma: float, alpha: float, rho: float,
                             x: float, omega_norm: float) -> float:
    """Expected variance E[S(theta0 + d)] over LO phase jitter d ~ N(0, sigma^2).

    S(theta) = A + B*cos(2*theta) holds exactly, with A and B the mean and
    half-difference of the extremal levels, and E[cos(2*(theta0 + d))] =
    exp(-2*sigma^2)*cos(2*theta0), so the average is the closed form
    A + B*exp(-2*sigma^2)*cos(2*theta0), exact at every sigma.  sigma = 0
    returns the jitter-free variance S(theta0) exactly.
    """
    if not sigma >= 0.0:
        raise ParameterDomainError(f"jitter sigma must be >= 0, got {sigma}")
    if sigma == 0.0:
        return float(quadrature_variance(theta0, alpha, rho, x, omega_norm))
    levels = min_max_levels(alpha, rho, x, omega_norm)
    a = 0.5 * (levels.s_max + levels.s_min)
    b = 0.5 * (levels.s_max - levels.s_min)
    return a + b * math.exp(-2.0 * sigma * sigma) * math.cos(2.0 * theta0)


def synthesize_trace(alpha: float, rho: float, x: float, omega_norm: float,
                     chain: DetectionChain, acq: AcquisitionSettings,
                     rng_seed: int) -> NoiseTrace:
    """Emulate one zero-span analyzer sweep of the scanned-phase noise power.

    Per sample: the LO phase is the scan ramp plus (optionally) one Gaussian
    jitter draw; the mean observed power is the variance at that phase pushed
    through the circuit-noise map; the recorded power is that mean times a
    normalised chi-square estimator factor.  Bit-identical for a fixed seed.
    """
    rng = np.random.default_rng(rng_seed)
    t = acq.times
    theta = acq.lo_scan.theta0 + acq.lo_scan.rate * t
    if acq.lo_scan.jitter_sigma > 0.0:
        theta = theta + rng.normal(0.0, acq.lo_scan.jitter_sigma, size=t.size)
    s = quadrature_variance(theta, alpha, rho, x, omega_norm)
    k = acq.estimator_dof
    factors = rng.chisquare(k, size=t.size) / k
    powers_db = apply_circuit_noise(s, chain.circuit_noise_clearance_db) + to_db(factors)
    meta = {
        "alpha": alpha, "rho": rho, "x": x, "omega_norm": omega_norm,
        "clearance_db": chain.circuit_noise_clearance_db, "seed": rng_seed,
    }
    return NoiseTrace(times=t, powers_db=powers_db, acquisition=acq,
                      shot_reference_db=0.0, metadata=meta)


def synthesize_shot_reference(acq: AcquisitionSettings, chain: DetectionChain,
                              rng_seed: int) -> NoiseTrace:
    """Shot-noise reference sweep: the same generator with the OPO blocked (x = 0)."""
    return synthesize_trace(detection_efficiency(chain), 1.0, 0.0, 0.0, chain, acq, rng_seed)
