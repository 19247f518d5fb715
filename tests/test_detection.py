import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sqzlab import (
    DetectionChain,
    NoiseTrace,
    ParameterDomainError,
    PhaseScan,
    apply_circuit_noise,
    detection_efficiency,
    jitter_averaged_variance,
    min_max_levels,
    quadrature_variance,
    remove_circuit_noise,
    synthesize_shot_reference,
    synthesize_trace,
)
from sqzlab.detection import circuit_noise_floor

from conftest import ALPHA, OMEGA, RHO, X, bench_acq


class TestDetectionEfficiency:
    def test_quoted_value(self, chain):
        assert detection_efficiency(chain) == pytest.approx(0.819819, rel=1e-12)
        assert detection_efficiency(chain) == pytest.approx(0.82, abs=0.005)

    def test_perfect(self):
        perfect = DetectionChain(1.0, 1.0, 1.0, 14.0)
        assert detection_efficiency(perfect) == 1.0

    def test_propagation_knob(self):
        lossy = DetectionChain(0.99, 0.91, 0.9, 14.0)
        assert detection_efficiency(lossy) == pytest.approx(0.9 * 0.819819, rel=1e-12)

    def test_validation(self):
        with pytest.raises(ParameterDomainError, match="quantum_efficiency"):
            DetectionChain(0.0, 0.91, 1.0, 14.0)
        with pytest.raises(ParameterDomainError, match="visibility"):
            DetectionChain(0.99, 1.2, 1.0, 14.0)
        with pytest.raises(ParameterDomainError, match="^detection efficiency .* underflows to 0$"):
            DetectionChain(1e-200, 1e-100, 1.0, 14.0)  # eta*xi^2 = 1e-400
        # the domain of circuit_noise_floor, so every chain's trace can be fitted
        for clearance in (0.0, -5.0, math.inf, math.nan):
            with pytest.raises(ParameterDomainError, match="^circuit_noise_clearance_db: clearance "
                                                           f"must be finite and > 0 dB, got {clearance}$"):
                DetectionChain(0.99, 0.91, 1.0, clearance)


class TestCircuitNoise:
    def test_squeezing_correction(self):
        # s = 0.367 observed against a 14 dB-clear floor, frozen from direct evaluation
        assert apply_circuit_noise(0.367, 14.0) == pytest.approx(-4.075619037881852, abs=1e-12)
        assert apply_circuit_noise(0.367, 14.0) == pytest.approx(-4.1, abs=0.05)

    def test_antisqueezing_correction(self):
        assert apply_circuit_noise(7.89, 14.0) == pytest.approx(8.823085316421723, abs=1e-12)

    @given(st.floats(min_value=0.1, max_value=100.0))
    def test_shot_noise_fixed_point(self, clearance):
        assert apply_circuit_noise(1.0, clearance) == pytest.approx(0.0, abs=1e-12)

    @given(st.floats(min_value=1e-3, max_value=1e3), st.floats(min_value=1.0, max_value=60.0))
    def test_contracts_toward_zero_db(self, s, clearance):
        corrected = apply_circuit_noise(s, clearance)
        raw = 10.0 * math.log10(s)
        if abs(raw) > 1e-9:
            assert abs(corrected) < abs(raw)
            assert corrected * raw > 0.0  # same side of shot noise

    @given(st.floats(min_value=1e-3, max_value=1e3), st.floats(min_value=1e-3, max_value=1e3))
    def test_monotone(self, s1, s2):
        lo, hi = sorted((s1, s2))
        assert apply_circuit_noise(lo, 14.0) <= apply_circuit_noise(hi, 14.0)
        if hi > lo * (1.0 + 1e-9):  # strict once the gap clears float resolution
            assert apply_circuit_noise(lo, 14.0) < apply_circuit_noise(hi, 14.0)

    @given(st.floats(min_value=1e-3, max_value=1e3))
    def test_remove_inverts_apply(self, s):
        assert remove_circuit_noise(apply_circuit_noise(s, 14.0), 14.0) == pytest.approx(s, rel=1e-10)

    def test_domain(self):
        with pytest.raises(ParameterDomainError):
            apply_circuit_noise(0.5, 0.0)
        with pytest.raises(ParameterDomainError):
            apply_circuit_noise(0.0, 14.0)
        with pytest.raises(ParameterDomainError):
            remove_circuit_noise(-20.0, 14.0)  # below the floor

    @pytest.mark.parametrize("observed, clearance",
                             [(0.0, -5.0), (-3.0, 0.0), (0.0, math.nan), (0.0, math.inf)])
    def test_remove_rejects_the_clearances_apply_rejects(self, observed, clearance):
        message = f"clearance must be finite and > 0 dB, got {clearance}"
        with pytest.raises(ParameterDomainError, match=message):
            apply_circuit_noise(1.0, clearance)
        with pytest.raises(ParameterDomainError, match=message):
            remove_circuit_noise(observed, clearance)


class TestJitterAveraging:
    def test_negative_sigma_rejected(self):
        with pytest.raises(ParameterDomainError, match=r"^jitter sigma must be >= 0, got -0.1$"):
            jitter_averaged_variance(0.0, -0.1, ALPHA, RHO, X, OMEGA)

    def test_zero_jitter_is_identity(self):
        for theta0 in (0.0, 0.4, math.pi / 2):
            assert jitter_averaged_variance(theta0, 0.0, ALPHA, RHO, X, OMEGA) == pytest.approx(
                float(quadrature_variance(theta0, ALPHA, RHO, X, OMEGA)), rel=1e-15)

    # an oracle independent of the closed form: brute-force average over the jitter density
    @pytest.mark.parametrize("sigma", [0.02, 0.1, 0.2, 0.3, 0.5, 0.8, 1.5, 3.0, 10.0])
    @pytest.mark.parametrize("theta0", [0.0, 0.7, 0.9, math.pi / 2])
    def test_against_brute_force_trapezoid(self, sigma, theta0):
        deltas = np.linspace(-8 * sigma, 8 * sigma, 400_001)
        density = np.exp(-0.5 * (deltas / sigma) ** 2) / (sigma * math.sqrt(2 * math.pi))
        s = quadrature_variance(theta0 + deltas, ALPHA, RHO, X, OMEGA)
        brute = float(np.trapezoid(s * density, deltas))
        got = jitter_averaged_variance(theta0, sigma, ALPHA, RHO, X, OMEGA)
        assert got == pytest.approx(brute, rel=1e-9)

    def test_large_sigma_reaches_phase_average(self):
        levels = min_max_levels(ALPHA, RHO, X, OMEGA)
        phase_avg = 0.5 * (levels.s_min + levels.s_max)
        for theta0 in (0.0, 0.3, 1.2, math.pi / 2):
            got = jitter_averaged_variance(theta0, 50.0, ALPHA, RHO, X, OMEGA)
            assert got == pytest.approx(phase_avg, rel=1e-6)

    @given(st.floats(min_value=0.0, max_value=3.0), st.floats(min_value=0.0, max_value=2 * math.pi))
    def test_bounded_by_extrema(self, sigma, theta0):
        levels = min_max_levels(ALPHA, RHO, X, OMEGA)
        got = jitter_averaged_variance(theta0, sigma, ALPHA, RHO, X, OMEGA)
        assert levels.s_min - 1e-12 <= got <= levels.s_max + 1e-12

    def test_monotone_in_sigma_at_extrema(self):
        sigmas = np.linspace(0.0, 1.0, 21)
        at_min = [jitter_averaged_variance(math.pi / 2, s, ALPHA, RHO, X, OMEGA) for s in sigmas]
        at_max = [jitter_averaged_variance(0.0, s, ALPHA, RHO, X, OMEGA) for s in sigmas]
        assert np.all(np.diff(at_min) > 0.0)
        assert np.all(np.diff(at_max) < 0.0)


class TestAcquisitionSettings:
    def test_estimator_dof_bench_settings(self):
        assert bench_acq().estimator_dof == 6667

    def test_estimator_dof_floor(self):
        assert bench_acq(rbw=100.0, vbw=100.0).estimator_dof == 2

    def test_vbw_cannot_exceed_rbw(self):
        with pytest.raises(ParameterDomainError):
            bench_acq(rbw=100.0, vbw=200.0)

    def test_sample_count_minimum(self):
        with pytest.raises(ParameterDomainError):
            bench_acq(samples=1)


_INTP_MAX = int(np.iinfo(np.intp).max)


class TestValueDomains:
    """Each type rejects every value the code cannot use, the quantities it
    derives included, with a message that starts with the field name; the
    positive-period message starts 'scan period', which TestDefaultScan pins."""

    @pytest.mark.parametrize("fields, message", [
        ({"period": math.inf}, r"^scan period must be > 0 and finite, got inf$"),
        ({"period": 1e-320}, r"^period 1e-320 s gives a scan rate 2\*pi/period that overflows$"),
        ({"theta0": math.nan}, r"^theta0 must be finite, got nan$"),
        ({"theta0": -math.inf}, r"^theta0 must be finite, got -inf$"),
        ({"jitter_sigma": math.inf}, r"^jitter_sigma must be finite and >= 0, got inf$"),
    ])
    def test_phase_scan(self, fields, message):
        with pytest.raises(ParameterDomainError, match=message):
            replace(PhaseScan(period=0.2), **fields)

    def test_smallest_period_with_a_finite_rate_accepted(self):
        assert PhaseScan(period=1e-300).rate == 2.0 * math.pi / 1e-300

    @pytest.mark.parametrize("fields, message", [
        ({"resolution_bandwidth": 0.0}, r"^resolution_bandwidth must be finite and > 0, got 0.0$"),
        ({"resolution_bandwidth": math.inf}, r"^resolution_bandwidth must be finite and > 0, got inf$"),
        ({"center_frequency": math.inf}, r"^center_frequency must be finite and > 0, got inf$"),
        ({"sweep_duration": math.nan}, r"^sweep_duration must be finite and > 0, got nan$"),
        ({"video_bandwidth": 1e-320}, r"^video_bandwidth 1e-320 Hz overflows 2\*RBW/VBW$"),
        ({"sample_count": int(1e300)}, rf"^sample_count must be at most {_INTP_MAX}, got 1e\+300$"),
        ({"sample_count": 10 ** 400}, rf"^sample_count must be at most {_INTP_MAX}, got 1e\+400$"),
        ({"sample_count": _INTP_MAX + 1}, rf"^sample_count must be at most {_INTP_MAX}, got "),
        ({"sweep_duration": 1e10, "lo_scan": PhaseScan(period=1e-300)},
         r"^sweep_duration 10000000000.0 s at scan period 1e-300 s gives a scan phase "
         r"2\*rate\*sweep_duration that overflows$"),
    ])
    def test_acquisition_settings(self, fields, message):
        with pytest.raises(ParameterDomainError, match=message):
            replace(bench_acq(), **fields)

    def test_largest_indexable_count_accepted(self):
        assert replace(bench_acq(), sample_count=_INTP_MAX).sample_count == _INTP_MAX

    # 8 bytes per time: 8e17 bytes and more exceed the 57-bit virtual address
    # space of any 64-bit CPU, so no overcommit can grant them
    @pytest.mark.parametrize("count", [10 ** 17, 2 * 10 ** 18, _INTP_MAX, np.int64(_INTP_MAX)])
    def test_count_numpy_cannot_allocate_is_a_domain_error(self, count):
        with pytest.raises(ParameterDomainError,
                           match=rf"^sample_count {count} is more float64 times than numpy can allocate"):
            replace(bench_acq(), sample_count=count).times

    @pytest.mark.parametrize("times, powers, shot_reference_db, message", [
        ([0.0, 0.1, 0.2], [1.0, 2.0], 0.0, r"^times and powers_db must be 1-D arrays of equal length$"),
        ([0.0, 0.2, 0.1], [1.0, 2.0, 3.0], 0.0, r"^sample times must be strictly increasing$"),
        ([0.0, 0.1, 0.2], [1.0, 2.0, 3.0], math.nan, r"^shot_reference_db must be finite, got nan$"),
        ([0.0, 0.1, 0.2], [1.0, 2.0, 3.0], math.inf, r"^shot_reference_db must be finite, got inf$"),
    ])
    def test_noise_trace(self, times, powers, shot_reference_db, message):
        with pytest.raises(ParameterDomainError, match=message):
            NoiseTrace(np.array(times), np.array(powers), bench_acq(samples=3), shot_reference_db)


class TestSynthesis:
    def test_deterministic_for_seed(self, chain):
        a = synthesize_trace(ALPHA, RHO, X, OMEGA, chain, bench_acq(), 123)
        b = synthesize_trace(ALPHA, RHO, X, OMEGA, chain, bench_acq(), 123)
        assert np.array_equal(a.powers_db, b.powers_db)
        assert np.array_equal(a.times, b.times)

    def test_seeds_differ(self, chain):
        a = synthesize_trace(ALPHA, RHO, X, OMEGA, chain, bench_acq(), 123)
        b = synthesize_trace(ALPHA, RHO, X, OMEGA, chain, bench_acq(), 124)
        assert not np.array_equal(a.powers_db, b.powers_db)

    def test_shot_only_trace_is_centred_on_zero_db(self, chain):
        acq = bench_acq(samples=10_000, sweep=2.0)
        trace = synthesize_trace(ALPHA, RHO, 0.0, OMEGA, chain, acq, 7)
        assert abs(float(np.mean(trace.powers_db))) < 0.05

    def test_high_scatter_mean_matches_phase_average(self, chain):
        # VBW = RBW -> 2 degrees of freedom, exponential scatter
        acq = bench_acq(samples=50_000, sweep=5.0, period=0.25, rbw=1e5, vbw=1e5)
        trace = synthesize_trace(ALPHA, RHO, X, OMEGA, chain, acq, 99)
        linear = 10.0 ** (trace.powers_db / 10.0)
        n = circuit_noise_floor(chain.circuit_noise_clearance_db)
        thetas = np.linspace(0.0, math.pi, 10_001)
        target = np.mean((quadrature_variance(thetas, ALPHA, RHO, X, OMEGA) + n) / (1.0 + n))
        assert float(np.mean(linear)) == pytest.approx(float(target), rel=0.01)

    def test_per_sample_scatter_matches_dof(self, chain):
        # relative SD of one sample is sqrt(2/k); k = 6667 at the bench settings
        acq = bench_acq(samples=20_000, sweep=2.0)
        trace = synthesize_trace(ALPHA, RHO, 0.0, OMEGA, chain, acq, 11)
        linear = 10.0 ** (trace.powers_db / 10.0)
        rel_sd = float(np.std(linear) / np.mean(linear))
        assert rel_sd == pytest.approx(math.sqrt(2.0 / 6667.0), rel=0.05)

    def test_jitter_increases_scatter_about_the_mean_curve(self, chain):
        n = circuit_noise_floor(chain.circuit_noise_clearance_db)

        def residual_std(trace):
            scan = trace.acquisition.lo_scan
            theta = scan.theta0 + scan.rate * trace.times
            s = quadrature_variance(theta, ALPHA, RHO, X, OMEGA)
            mean_db = 10.0 * np.log10((s + n) / (1.0 + n))
            return float(np.std(trace.powers_db - mean_db))

        smooth = synthesize_trace(ALPHA, RHO, X, OMEGA, chain, bench_acq(), 5)
        jittered = synthesize_trace(ALPHA, RHO, X, OMEGA, chain, bench_acq(jitter=0.15), 5)
        assert residual_std(jittered) > 3 * residual_std(smooth)

    def test_shot_reference(self, chain):
        ref1 = synthesize_shot_reference(bench_acq(samples=10_000, sweep=1.0), chain, 21)
        ref2 = synthesize_shot_reference(bench_acq(samples=10_000, sweep=1.0), chain, 21)
        ref3 = synthesize_shot_reference(bench_acq(samples=10_000, sweep=1.0), chain, 22)
        assert np.array_equal(ref1.powers_db, ref2.powers_db)
        assert not np.array_equal(ref1.powers_db, ref3.powers_db)
        assert abs(float(np.mean(ref1.powers_db))) < 0.05
