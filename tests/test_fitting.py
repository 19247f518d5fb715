import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.optimize import least_squares

from sqzlab import (
    DetectionChain,
    FitModel,
    NoiseTrace,
    ParameterDomainError,
    fit_trace,
    initial_guess,
    min_max_levels,
    parse_trace,
    serialize_trace,
    synthesize_trace,
)
from sqzlab import fitting
from sqzlab.fitting import _damped_solve, _model_and_jacobian

from conftest import ALPHA, OMEGA, RHO, X, bench_acq, bundled_trace

CLEARANCE = 14.0
TRUTH = min_max_levels(ALPHA, RHO, X, OMEGA)


def _chain():
    return DetectionChain(0.99, 0.91, 1.0, CLEARANCE)


def _synth(seed, jitter=0.0, x=X, samples=401):
    acq = bench_acq(samples=samples, jitter=jitter)
    return synthesize_trace(ALPHA, RHO, x, OMEGA, _chain(), acq, seed)


def _perturbed_guess(jitter=0.0):
    return FitModel(s_min_db=TRUTH.s_min_db + 0.6, s_max_db=TRUTH.s_max_db - 0.6,
                    theta0=0.35, scan_rate=2 * math.pi / 0.2 * 1.04,
                    omega_norm=OMEGA, clearance_db=CLEARANCE, jitter_sigma=jitter)


class TestFitRoundTrip:
    def test_recovers_levels_from_clean_trace(self):
        trace = _synth(seed=301)
        result = fit_trace(trace, _perturbed_guess())
        assert result.converged
        assert result.phase_identifiable
        assert abs(result.levels.s_min_db - TRUTH.s_min_db) < 2 * result.s_min_sigma_db + 0.02
        assert abs(result.levels.s_max_db - TRUTH.s_max_db) < 2 * result.s_max_sigma_db + 0.02
        assert result.s_min_sigma_db < 0.1
        assert result.residual_rms_db < 0.15

    def test_recovers_scan_parameters(self):
        trace = _synth(seed=302)
        result = fit_trace(trace, _perturbed_guess())
        assert result.model.scan_rate == pytest.approx(2 * math.pi / 0.2, rel=1e-3)
        # true theta0 = 0, reported modulo pi
        wrapped = min(result.model.theta0, math.pi - result.model.theta0)
        assert wrapped < 0.02

    def test_jitter_aware_fit_is_unbiased(self):
        hits = 0
        for seed in range(10):
            trace = _synth(seed=400 + seed, jitter=0.05)
            result = fit_trace(trace, _perturbed_guess(jitter=0.05))
            assert result.converged
            if (abs(result.levels.s_min_db - TRUTH.s_min_db) < 2 * result.s_min_sigma_db
                    and abs(result.levels.s_max_db - TRUTH.s_max_db) < 2 * result.s_max_sigma_db):
                hits += 1
        assert hits >= 7


class TestFitMechanics:
    def test_objective_never_increases(self):
        trace = _synth(seed=310)
        result = fit_trace(trace, _perturbed_guess())
        assert np.all(np.diff(result.objective_history) < 0.0)

    def test_covariance_symmetric_psd(self):
        trace = _synth(seed=311)
        result = fit_trace(trace, _perturbed_guess())
        cov = result.covariance
        assert np.allclose(cov, cov.T, rtol=1e-12, atol=1e-15)
        eigvals = np.linalg.eigvalsh(cov)
        assert eigvals.min() >= -1e-10 * max(eigvals.max(), 1e-30)

    def test_sigmas_are_sqrt_of_diagonal(self):
        trace = _synth(seed=312)
        result = fit_trace(trace, _perturbed_guess())
        assert result.s_min_sigma_db == pytest.approx(math.sqrt(result.covariance[0, 0]))
        assert result.s_max_sigma_db == pytest.approx(math.sqrt(result.covariance[1, 1]))

    def test_iteration_cap_reports_nonconvergence(self, monkeypatch):
        trace = _synth(seed=313)
        monkeypatch.setattr(fitting, "_MAX_ITERATIONS", 1)
        result = fit_trace(trace, _perturbed_guess())
        assert not result.converged
        assert result.iterations == 1
        assert np.isfinite(result.levels.s_min_db)

    def test_matches_scipy_least_squares(self):
        trace = _synth(seed=314)
        guess = _perturbed_guess()
        result = fit_trace(trace, guess)
        floor = 10.0 ** (-CLEARANCE / 10.0)

        def residual(p):
            return _model_and_jacobian(p, trace.times, floor, 0.0)[0] - trace.powers_db

        p0 = np.array([guess.s_min_db, guess.s_max_db, guess.theta0, guess.scan_rate])
        ref = least_squares(residual, p0, method="lm", xtol=1e-14, ftol=1e-14)
        ours = np.array([result.model.s_min_db, result.model.s_max_db,
                         result.model.theta0, result.model.scan_rate])
        ssr_ref = float(ref.fun @ ref.fun)
        ssr_ours = float(np.sum(residual(ours) ** 2))
        assert ssr_ours == pytest.approx(ssr_ref, rel=1e-6)
        assert result.levels.s_min_db == pytest.approx(
            min(ref.x[0], ref.x[1]), abs=1e-4)

    def test_short_trace_rejected(self):
        trace = _synth(seed=315, samples=30)
        with pytest.raises(ParameterDomainError):
            fit_trace(trace, _perturbed_guess())


class TestFlatTrace:
    def test_shot_noise_trace_flags_phase(self):
        trace = _synth(seed=320, x=0.0)
        guess = FitModel(s_min_db=-0.3, s_max_db=0.3, theta0=0.2,
                         scan_rate=2 * math.pi / 0.2, clearance_db=CLEARANCE)
        result = fit_trace(trace, guess)
        assert abs(result.levels.s_min_db) < 3 * max(result.s_min_sigma_db, 0.01) + 0.05
        assert abs(result.levels.s_max_db) < 3 * max(result.s_max_sigma_db, 0.01) + 0.05
        assert not result.phase_identifiable
        assert result.parameter_sigmas[2] == math.pi


class TestExtremaCrossCheck:
    def test_closed_form_start_is_within_half_a_db_of_the_truth(self):
        trace = _synth(seed=330)
        guess = initial_guess(trace, clearance_db=CLEARANCE)
        assert guess.s_min_db == pytest.approx(TRUTH.s_min_db, abs=0.5)
        assert guess.s_max_db == pytest.approx(TRUTH.s_max_db, abs=0.5)


def _trapezoid_jitter_average(p, t, floor, sigma, points=20001):
    """Brute-force oracle: the dB curve averaged over N(0, sigma^2) phase
    offsets by the trapezoid rule on [-12 sigma, 12 sigma]."""
    lo, hi = 10.0 ** (p[0] / 10.0), 10.0 ** (p[1] / 10.0)
    d = np.linspace(-12.0 * sigma, 12.0 * sigma, points)
    w = np.exp(-0.5 * (d / sigma) ** 2)
    w[[0, -1]] *= 0.5
    s = 0.5 * (hi + lo) + 0.5 * (hi - lo) * np.cos(2.0 * (p[2] + p[3] * t[:, None] + d))
    return 10.0 * np.log10((s + floor) / (1.0 + floor)) @ (w / w.sum())


def _direct_jitter_sum(p, t, floor, sigma):
    """Per-term oracle of the jitter series: the model in dB and its (N, 4)
    Jacobian from ln(S + n) = ln c + 2*sum_m (-1)^(m+1) r^m g_m cos(2*m*theta)/m,
    g_m = exp(-2 m^2 sigma^2), each term from its own cos/sin, summed until
    the coefficient (-1)^(m+1) r^(m-1) g_m falls below 1e-20."""
    s_min, s_max = 10.0 ** (p[0] / 10.0), 10.0 ** (p[1] / 10.0)
    sl, sh = math.sqrt(s_min + floor), math.sqrt(s_max + floor)
    r = (sh - sl) / (sh + sl)
    theta = p[2] + p[3] * t
    ln_avg = np.full(t.size, 2.0 * math.log(0.5 * (sh + sl)) - math.log(1.0 + floor))
    d_r = np.zeros(t.size)      # d ln(S + n) / d r
    d_theta = np.zeros(t.size)  # d ln(S + n) / d theta
    m = 1
    while True:
        c = (-1) ** (m + 1) * r ** (m - 1) * math.exp(-2.0 * sigma * sigma * m * m)
        if abs(c) < 1e-20:
            break
        ln_avg += 2.0 * c * r * np.cos(2 * m * theta) / m
        d_r += 2.0 * c * np.cos(2 * m * theta)
        d_theta -= 4.0 * c * r * np.sin(2 * m * theta)
        m += 1
    # r = (sh - sl)/(sh + sl): dr/dsl = -2 sh/(sh + sl)^2, dr/dsh = 2 sl/(sh + sl)^2,
    # and d sl / d s_min_db = s_min * ln10/10 / (2 sl)
    u = 1.0 / (sh + sl)
    ln10_over_10 = math.log(10.0) / 10.0
    jac = np.column_stack((s_min / (2.0 * sl) * (2.0 * u - 2.0 * sh * u * u * d_r),
                           s_max / (2.0 * sh) * (2.0 * u + 2.0 * sl * u * u * d_r),
                           d_theta / ln10_over_10,
                           d_theta * t / ln10_over_10))
    return ln_avg / ln10_over_10, jac


SERIES_CASES = [  # (s_min_db, s_max_db, clearance_db)
    (TRUTH.s_min_db, TRUTH.s_max_db, CLEARANCE),   # bundled pair
    (-10.0, 15.0, 20.0),                           # deep pair at high clearance (k = 16 at 0.01 rad)
    (TRUTH.s_max_db, TRUTH.s_min_db, CLEARANCE),   # swapped: s_min > s_max, so r < 0
]


class TestExactJitterSeries:
    @pytest.mark.parametrize("levels", SERIES_CASES)
    @pytest.mark.parametrize("sigma", [0.01, 0.05, 0.12, 0.5, 1.0, 2.0])
    def test_matches_a_dense_trapezoid_oracle(self, sigma, levels):
        lo_db, hi_db, clearance = levels
        p = np.array([lo_db, hi_db, 0.3, 2 * math.pi / 0.2])
        t = np.linspace(0.0, 0.2, 61)
        floor = 10.0 ** (-clearance / 10.0)
        model, _ = _model_and_jacobian(p, t, floor, sigma)
        oracle = _trapezoid_jitter_average(p, t, floor, sigma)
        np.testing.assert_allclose(model, oracle, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("levels", SERIES_CASES + [(-4.0, -4.0, 10.0)])  # last: r = 0, k = 1
    @pytest.mark.parametrize("sigma", [0.01, 0.05, 0.12, 0.5])
    def test_matches_a_direct_per_term_sum(self, sigma, levels):
        lo_db, hi_db, clearance = levels
        p = np.array([lo_db, hi_db, 0.3, 2 * math.pi / 0.2])
        t = np.linspace(0.0, 0.2, 61)
        floor = 10.0 ** (-clearance / 10.0)
        model, jac = _model_and_jacobian(p, t, floor, sigma)
        oracle_model, oracle_jac = _direct_jitter_sum(p, t, floor, sigma)
        np.testing.assert_allclose(model, oracle_model, rtol=0.0, atol=1e-12)
        gap = np.abs(jac - oracle_jac).max(axis=0)
        assert np.all(gap <= 1e-12 * np.abs(oracle_jac).max(axis=0)), gap

    @pytest.mark.parametrize("levels", SERIES_CASES + [(-4.0, -4.0, 10.0)])  # last: r = 0
    @pytest.mark.parametrize("sigma", [0.0, 0.05, 0.5, 2.0])
    def test_jacobian_matches_central_differences(self, sigma, levels):
        lo_db, hi_db, clearance = levels
        p = np.array([lo_db, hi_db, 0.3, 2 * math.pi / 0.2])
        t = np.linspace(0.0, 0.2, 61)
        floor = 10.0 ** (-clearance / 10.0)
        _, jac = _model_and_jacobian(p, t, floor, sigma)
        numeric = np.empty_like(jac)
        for i in range(4):
            step = np.zeros(4)
            step[i] = 1e-6 * max(1.0, abs(p[i]))
            numeric[:, i] = (_model_and_jacobian(p + step, t, floor, sigma)[0]
                             - _model_and_jacobian(p - step, t, floor, sigma)[0]) / (2 * step[i])
        np.testing.assert_allclose(jac, numeric, rtol=0.0, atol=1e-7 * np.abs(numeric).max())

    def test_noise_free_mean_trace_fits_back_to_its_levels(self):
        # x = 0.7 at 20 dB clearance and sigma = 0.5: a deep dip under strong
        # jitter, where any error in the average biases the levels without noise
        truth = min_max_levels(ALPHA, RHO, 0.7, OMEGA)
        acq = bench_acq(jitter=0.5)
        p = np.array([truth.s_min_db, truth.s_max_db, 0.0, acq.lo_scan.rate])
        mean = _trapezoid_jitter_average(p, acq.times, 0.01, 0.5, points=4001)
        guess = FitModel(s_min_db=truth.s_min_db + 0.3, s_max_db=truth.s_max_db - 0.3,
                         theta0=0.05, scan_rate=acq.lo_scan.rate * 1.01,
                         clearance_db=20.0, jitter_sigma=0.5)
        result = fit_trace(NoiseTrace(acq.times, mean, acq), guess)
        assert result.converged
        assert result.levels.s_min_db == pytest.approx(truth.s_min_db, abs=1e-9)
        assert result.levels.s_max_db == pytest.approx(truth.s_max_db, abs=1e-9)

    def test_strong_jitter_round_trip_is_unbiased_within_the_quoted_sigma(self):
        truth = min_max_levels(ALPHA, RHO, 0.7, OMEGA)
        chain = DetectionChain(0.99, 0.91, 1.0, 20.0)
        errors, sigmas = [], []
        for seed in range(20):
            trace = synthesize_trace(ALPHA, RHO, 0.7, OMEGA, chain, bench_acq(jitter=0.5), seed)
            result = fit_trace(trace, initial_guess(trace, clearance_db=20.0, jitter_sigma=0.5))
            assert result.converged
            errors.append((result.levels.s_min_db - truth.s_min_db,
                           result.levels.s_max_db - truth.s_max_db))
            sigmas.append((result.s_min_sigma_db, result.s_max_sigma_db))
        assert np.all(np.abs(np.mean(errors, axis=0)) < np.mean(sigmas, axis=0))


class TestStartModelDomain:
    def test_overflowing_start_level_rejected(self):
        trace = _synth(seed=341)
        guess = replace(_perturbed_guess(), s_max_db=4000.0)
        with pytest.raises(ParameterDomainError, match="non-finite"):
            fit_trace(trace, guess)

    def test_overflowing_start_level_with_jitter_rejected(self):
        # the series sees r = NaN here; it must not fail before the residual check
        trace = _synth(seed=343, jitter=0.05)
        guess = replace(_perturbed_guess(jitter=0.05), s_max_db=4000.0)
        with pytest.raises(ParameterDomainError, match="non-finite"):
            fit_trace(trace, guess)

    def test_nan_start_phase_rejected(self):
        trace = _synth(seed=342)
        guess = replace(_perturbed_guess(), theta0=math.nan)
        with pytest.raises(ParameterDomainError, match="non-finite"):
            fit_trace(trace, guess)

    def test_overflowing_sample_rejected_by_the_start(self):
        # 1e300 dB is finite, so the trace holds it, but 10^(y/10) overflows; at
        # 3082.5 dB 10^(y/10) is finite, its product with 1 + n (n = 0.04) is not
        trace = _synth(seed=347)
        for sample, shown in ((1e300, "1e\\+300"), (3082.5, "3082.5")):
            powers = trace.powers_db.copy()
            powers[7] = sample
            bad = replace(trace, powers_db=powers)
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                with pytest.raises(ParameterDomainError, match=f"sample of {shown} dB overflows"):
                    initial_guess(bad, clearance_db=CLEARANCE)
                with pytest.raises(ParameterDomainError, match=f"sample of {shown} dB overflows"):
                    fit_trace(bad)

    def test_overflowing_start_ssr_rejected(self):
        # 1e160 dB is a finite residual, but its square overflows the SSR
        trace = bundled_trace(5)
        start = initial_guess(trace, clearance_db=trace.metadata["clearance_db"],
                              jitter_sigma=trace.acquisition.lo_scan.jitter_sigma)
        powers = trace.powers_db.copy()
        powers[100] = 1e160
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ParameterDomainError, match="sum of squares overflows"):
                fit_trace(replace(trace, powers_db=powers), start)

    def test_jitter_that_washes_out_the_modulation_rejected(self):
        # exp(-2*sigma^2) underflows to 0 above sigma ~ 19.3 rad
        trace = _synth(seed=344, jitter=30.0)
        with pytest.raises(ParameterDomainError, match="washes out"):
            fit_trace(trace)

    # PhaseScan's domain, checked by the start itself: a NaN jitter would give NaN levels
    @pytest.mark.parametrize("jitter", [math.nan, -0.12, math.inf])
    def test_start_jitter_must_be_finite_and_non_negative(self, jitter):
        with pytest.raises(ParameterDomainError,
                           match=rf"^jitter_sigma must be finite and >= 0, got {jitter}$"):
            initial_guess(_synth(seed=348), CLEARANCE, OMEGA, jitter)

    # 1e400 parses to inf; a negative clearance lets s_min run off to about
    # -2e8 dB, and an infinite one removes the floor from the model
    @pytest.mark.parametrize("clearance", ["-5", "0", "1e400", "nan", "abc"])
    def test_recorded_clearance_must_be_finite_and_positive(self, clearance):
        text = serialize_trace(_synth(seed=345)).replace(
            "# clearance_db=14.0\n", f"# clearance_db={clearance}\n")
        trace = parse_trace(text)  # the header itself parses
        with pytest.raises(ParameterDomainError, match="clearance must be finite and > 0 dB"):
            fit_trace(trace)

    @pytest.mark.parametrize("clearance", [-5.0, 0.0, math.inf, math.nan])
    def test_given_clearance_must_be_finite_and_positive(self, clearance):
        trace = _synth(seed=346)
        with pytest.raises(ParameterDomainError, match="clearance must be finite and > 0 dB"):
            initial_guess(trace, clearance_db=clearance)
        with pytest.raises(ParameterDomainError, match="clearance must be finite and > 0 dB"):
            fit_trace(trace, replace(_perturbed_guess(), clearance_db=clearance))


def _mean_trace(sigma, theta0, sweep):
    """Noise-free trace of the jitter-averaged mean power at the TRUTH levels."""
    acq = bench_acq(sweep=sweep, jitter=sigma)
    a, b = 0.5 * (TRUTH.s_max + TRUTH.s_min), 0.5 * (TRUTH.s_max - TRUTH.s_min)
    s = a + b * math.exp(-2.0 * sigma * sigma) * np.cos(2.0 * (theta0 + acq.lo_scan.rate * acq.times))
    floor = 10.0 ** (-CLEARANCE / 10.0)
    return NoiseTrace(acq.times, 10.0 * np.log10((s + floor) / (1.0 + floor)), acq)


class TestClosedFormGuess:
    @pytest.mark.parametrize("sweep", [0.2, 0.05])  # one scan period, a quarter period
    @pytest.mark.parametrize("theta0", [0.0, 0.4, 1.3, 2.9])
    @pytest.mark.parametrize("sigma", [0.0, 0.12, 0.5])
    def test_noise_free_mean_recovered_exactly(self, sigma, theta0, sweep):
        guess = initial_guess(_mean_trace(sigma, theta0, sweep), clearance_db=CLEARANCE,
                              jitter_sigma=sigma)
        assert guess.s_min_db == pytest.approx(TRUTH.s_min_db, abs=1e-9)
        assert guess.s_max_db == pytest.approx(TRUTH.s_max_db, abs=1e-9)
        wrapped = (guess.theta0 - theta0) % math.pi
        assert min(wrapped, math.pi - wrapped) < 1e-9
        assert 0.0 <= guess.theta0 < math.pi

    def test_overstated_jitter_starts_s_min_at_a_fraction_of_the_mean(self):
        # the jitter-free mean curve read as sigma = 1 implies B > A: s_min is clamped
        guess = initial_guess(_mean_trace(0.0, 0.4, 0.2), clearance_db=CLEARANCE,
                              jitter_sigma=1.0)
        a = 0.5 * (TRUTH.s_max + TRUTH.s_min)
        assert guess.s_min_db == pytest.approx(10.0 * math.log10(0.01 * a), abs=1e-9)
        assert guess.s_max_db > TRUTH.s_max_db

    # VBW 10 kHz: estimator dof k = 20
    @pytest.mark.parametrize("jitter, acq", [(0.12, bench_acq(jitter=0.12)),
                                             (0.0, bench_acq(vbw=1e4)),
                                             (0.12, bench_acq(jitter=0.12, vbw=1e4)),
                                             (0.0, bench_acq())])
    def test_auto_guess_reaches_the_perturbed_optimum(self, jitter, acq):
        for seed in (350, 351, 352):
            trace = synthesize_trace(ALPHA, RHO, X, OMEGA, _chain(), acq, seed)
            from_perturbed = fit_trace(trace, _perturbed_guess(jitter=jitter))
            from_auto = fit_trace(trace, initial_guess(trace, clearance_db=CLEARANCE,
                                                       jitter_sigma=jitter))
            assert from_auto.converged and from_perturbed.converged
            assert from_auto.levels.s_min_db == pytest.approx(from_perturbed.levels.s_min_db, abs=1e-6)
            assert from_auto.levels.s_max_db == pytest.approx(from_perturbed.levels.s_max_db, abs=1e-6)

    @pytest.mark.parametrize("jitter", [0.05, 0.12])
    def test_strong_pump_k20_fits_without_runtime_warnings(self, jitter):
        # with a -40 dB s_min start, seeds 16 and 43 at sigma = 0.12 overflowed in LM trials
        acq = bench_acq(jitter=jitter, vbw=1e4)  # k = 20
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for seed in range(50):
                trace = synthesize_trace(ALPHA, RHO, 0.7, OMEGA, _chain(), acq, seed)
                result = fit_trace(trace, initial_guess(trace, clearance_db=CLEARANCE,
                                                        jitter_sigma=jitter))
                assert result.converged

    @pytest.mark.parametrize("trace, jitter", [
        (_synth(seed=360, x=0.0), 0.0),                      # flat shot-noise trace
        (_synth(seed=361, jitter=1.0), 1.0),                 # strong jitter
        (NoiseTrace(bench_acq().times, np.full(401, -30.0), bench_acq()), 0.0),  # below the floor
    ])
    def test_degenerate_traces_give_finite_guesses(self, trace, jitter):
        guess = initial_guess(trace, clearance_db=CLEARANCE, jitter_sigma=jitter)
        levels = [guess.s_min_db, guess.s_max_db, guess.theta0]
        assert np.all(np.isfinite(levels))
        assert guess.s_min_db <= guess.s_max_db
        assert 0.0 <= guess.theta0 < math.pi


class TestDefaultGuess:
    def test_default_fit_records_the_trace_detuning(self):
        assert fit_trace(bundled_trace(42)).model.omega_norm == pytest.approx(0.1072, abs=5e-5)

    def test_default_fit_uses_the_recorded_jitter(self):
        trace = _synth(seed=370, jitter=0.12)
        default = fit_trace(trace)
        aware = fit_trace(trace, initial_guess(trace, clearance_db=CLEARANCE, omega_norm=OMEGA,
                                               jitter_sigma=0.12))
        assert default.model.jitter_sigma == 0.12
        assert default.levels.s_min_db == aware.levels.s_min_db
        assert default.levels.s_max_db == aware.levels.s_max_db


class TestStationarityCheck:
    def test_no_descent_from_a_non_stationary_start_is_not_convergence(self, monkeypatch):
        trace = _synth(seed=301)
        monkeypatch.setattr(fitting, "_LAMBDA0", 1e300)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            result = fit_trace(trace, _perturbed_guess())
        assert not result.converged
        assert result.iterations == 1
        assert len(result.objective_history) == 1  # no step accepted: still at the start
        assert result.objective_history[0] > 1e3


class TestPredictedDropStop:
    """The damping loop needs no try cap: the predicted drop is at most
    8*ssr/lam, so it falls below eps*ssr within 33 tries from _LAMBDA0."""

    def test_refit_from_its_own_optimum_takes_few_evaluations(self, monkeypatch):
        # steps that move p by ulps but predict no resolvable SSR drop are not tried
        counts = {}
        for seed in range(40):
            trace = bundled_trace(seed)
            first = fit_trace(trace)
            calls = []

            def counted(*args):
                calls.append(None)
                return _model_and_jacobian(*args)

            with monkeypatch.context() as patch:
                patch.setattr(fitting, "_model_and_jacobian", counted)
                again = fit_trace(trace, first.model)
            assert again.converged
            counts[seed] = len(calls)
        assert max(counts.values()) <= 8, counts

    @pytest.mark.parametrize("seed", range(10))
    def test_loop_ends_when_no_trial_is_finite(self, seed, monkeypatch):
        trace = bundled_trace(seed)
        calls = []

        def nan_after_the_start(*args):
            calls.append(None)
            model, jac = _model_and_jacobian(*args)
            if len(calls) > 1:
                model[:] = math.nan
            return model, jac

        monkeypatch.setattr(fitting, "_model_and_jacobian", nan_after_the_start)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            result = fit_trace(trace)
        assert not result.converged
        assert result.iterations == 1
        assert len(calls) <= 34  # the start plus ceil(log4(8/(eps*_LAMBDA0))) = 33 tries


_EPS = np.finfo(float).eps
_UNIT = st.floats(min_value=-1.0, max_value=1.0)


@st.composite
def _scaled_normal_equations(draw):
    """(H, g) = (D^-1/2 X^T X D^-1/2, D^-1/2 X^T r), D = diag(X^T X), for a
    random X of 1-6 rows, so H is a unit-diagonal Gram matrix of rank <= the
    row count; a copied or negated column makes it exactly rank-deficient."""
    rows = draw(st.integers(min_value=1, max_value=6))
    x = np.array(draw(st.lists(_UNIT, min_size=4 * rows, max_size=4 * rows))).reshape(rows, 4)
    copy = draw(st.sampled_from([None, (0, 1, 1.0), (2, 3, -1.0), (1, 3, 1.0)]))
    if copy is not None:
        x[:, copy[1]] = copy[2] * x[:, copy[0]]
    norms = np.sum(x * x, axis=0)
    if np.any(norms < 1e-6):
        x[:, norms < 1e-6] = 1.0  # no column may vanish: H has a unit diagonal
    r = np.array(draw(st.lists(_UNIT, min_size=rows, max_size=rows)))
    r /= max(np.max(np.abs(r)), 1e-300)  # g scales the drop by |g|^2; keep that off the subnormals
    scale = 1.0 / np.sqrt(np.sum(x * x, axis=0))
    return (x.T @ x) * np.outer(scale, scale), (x.T @ r) * scale


_LAMBDAS = st.floats(min_value=-14.0, max_value=3.0).map(lambda e: 10.0 ** e)


def _lower(h):
    return h[np.tril_indices(4)].tolist()


class TestDampedSolve:
    """The unrolled Cholesky solve of (H + lam*I) u = -g against numpy, each
    to n^2 = 16 ulps times the condition number of H + lam*I."""

    @given(_scaled_normal_equations(), _LAMBDAS)
    def test_matches_numpy_solve_and_the_eigenbasis_drop(self, system, lam):
        h, g = system
        damped = h + lam * np.eye(4)
        eig = np.linalg.eigvalsh(damped)
        tol = 16.0 * _EPS * eig[-1] / eig[0]
        u, drop = _damped_solve(_lower(h), g.tolist(), lam)
        want = np.linalg.solve(damped, -g)
        assert np.linalg.norm(np.subtract(u, want)) <= tol * np.linalg.norm(want)
        w, v = np.linalg.eigh(h)
        gv = v.T @ g
        want_drop = float(np.sum(gv * gv / (w + lam) ** 2 * (w + 2.0 * lam)))
        assert abs(drop - want_drop) <= tol * want_drop

    @given(_scaled_normal_equations(), _LAMBDAS, st.floats(min_value=1e-6, max_value=1.0))
    def test_indefinite_matrix_damps_more(self, system, lam, depth):
        # H - shift*I + lam*I has its least eigenvalue at -depth
        h, g = system
        shift = np.linalg.eigvalsh(h)[0] + lam + depth
        assert _damped_solve(_lower(h - shift * np.eye(4)), g.tolist(), lam) is None


class TestDampMore:
    """A non-positive pivot in the loop multiplies lam by 4 and solves again,
    without evaluating the model; the fit still reaches the same optimum."""

    @pytest.mark.parametrize("seed", range(3))
    def test_first_solve_without_a_positive_pivot(self, seed, monkeypatch):
        trace = bundled_trace(seed)
        start = initial_guess(trace, trace.metadata["clearance_db"],
                              jitter_sigma=trace.acquisition.lo_scan.jitter_sigma)
        want = fit_trace(trace, start)  # the start solves by _damped_solve too: built unpatched
        events = []

        def solve_none_first(h, g, lam):
            first = all(kind != "solve" for kind, _ in events)
            events.append(("solve", lam))
            return None if first else _damped_solve(h, g, lam)

        def counted_model(*args):
            events.append(("model", None))
            return _model_and_jacobian(*args)

        monkeypatch.setattr(fitting, "_damped_solve", solve_none_first)
        monkeypatch.setattr(fitting, "_model_and_jacobian", counted_model)
        got = fit_trace(trace, start)
        solves = [i for i, (kind, _) in enumerate(events) if kind == "solve"]
        first, second = solves[0], solves[1]
        assert all(kind == "solve" for kind, _ in events[first:second + 1])
        assert events[second][1] == 4.0 * events[first][1]
        assert got.converged
        assert got.levels.s_min_db == pytest.approx(want.levels.s_min_db, abs=1e-6)
        assert got.levels.s_max_db == pytest.approx(want.levels.s_max_db, abs=1e-6)


class TestLinalgCalls:
    """The fit stays off numpy's small-matrix wrappers: from a given start or
    the default one (initial_guess solves on Python floats), it calls np.linalg
    once, for the SVD of the final Jacobian."""

    @pytest.mark.parametrize("given_start", [True, False], ids=["given_start", "default_start"])
    def test_a_fit_calls_only_the_svd(self, given_start, monkeypatch):
        traces = [bundled_trace(seed) for seed in range(10)]
        starts = [initial_guess(trace, clearance_db=trace.metadata["clearance_db"],
                                jitter_sigma=trace.acquisition.lo_scan.jitter_sigma)
                  if given_start else None for trace in traces]
        want = [fit_trace(trace, start) for trace, start in zip(traces, starts)]
        svd, calls = np.linalg.svd, []

        def counted_svd(*args, **kwargs):
            calls.append(None)
            return svd(*args, **kwargs)

        def forbidden(*args, **kwargs):
            raise AssertionError("the fit called an np.linalg function other than svd")

        for name in np.linalg.__all__:
            if name != "svd" and not isinstance(getattr(np.linalg, name), type):
                monkeypatch.setattr(np.linalg, name, forbidden)
        monkeypatch.setattr(np.linalg, "svd", counted_svd)
        got = [fit_trace(trace, start) for trace, start in zip(traces, starts)]
        assert len(calls) == len(traces)
        for a, b in zip(got, want):
            assert (a.model, a.levels, a.iterations, a.converged) == (b.model, b.levels,
                                                                      b.iterations, b.converged)
            assert np.array_equal(a.covariance, b.covariance)
            assert np.array_equal(a.objective_history, b.objective_history)


def _lstsq_start(trace, clearance_db, jitter_sigma):
    """initial_guess's start, with its regression solved by np.linalg.lstsq."""
    floor = 10.0 ** (-clearance_db / 10.0)
    phase = 2.0 * trace.acquisition.lo_scan.rate * trace.times
    design = np.column_stack((np.ones_like(phase), np.cos(phase), np.sin(phase)))
    s = 10.0 ** (trace.powers_db / 10.0) * (1.0 + floor) - floor
    (a, bc, bs), *_ = np.linalg.lstsq(design, s, rcond=None)
    a = max(a, floor)
    b = math.hypot(bc, bs) / math.exp(-2.0 * jitter_sigma * jitter_sigma)
    lo, hi = max(a - b, 0.01 * a), a + b
    return 10.0 * math.log10(lo), 10.0 * math.log10(hi), 0.5 * math.atan2(-bs, bc) % math.pi


class TestNormalEquationStart:
    """initial_guess solves the regression as normal equations, whose pivots
    shrink with the phase the sweep covers; it must match a least-squares
    solver while 1, cos and sin are separable, and refuse once they are not."""

    @pytest.mark.parametrize("sweep", [0.2, 0.05, 1e-3])  # bundled, a quarter period, 1 ms
    def test_matches_a_lstsq_oracle(self, sweep):
        trace = bundled_trace(42, sweep_duration=sweep)
        jitter = trace.acquisition.lo_scan.jitter_sigma
        guess = initial_guess(trace, clearance_db=trace.metadata["clearance_db"], jitter_sigma=jitter)
        s_min_db, s_max_db, theta0 = _lstsq_start(trace, trace.metadata["clearance_db"], jitter)
        assert abs(guess.s_min_db - s_min_db) < 1e-9
        assert abs(guess.s_max_db - s_max_db) < 1e-9
        wrapped = (guess.theta0 - theta0) % math.pi
        assert min(wrapped, math.pi - wrapped) < 1e-9

    # at a 0.2 s period the cos pivot is 3.5e-7 of its diagonal entry for a
    # 1 ms sweep, 4e-15 for 10 us, and from 1 us down sits at the 4e-16
    # rounding floor, not at 0, so a test for a non-positive pivot misses it
    @pytest.mark.parametrize("sweep, span", [(1e-5, "0.000628"), (1e-6, "6.28e-05"),
                                             (1e-7, "6.28e-06")])
    def test_a_sweep_too_short_to_separate_the_regressors_is_rejected(self, sweep, span):
        trace = bundled_trace(42, sweep_duration=sweep)
        message = rf"^the trace sweeps {span} rad of 2\*theta, too little to separate"
        with pytest.raises(ParameterDomainError, match=message):
            initial_guess(trace, clearance_db=trace.metadata["clearance_db"])
        with pytest.raises(ParameterDomainError, match=message):
            fit_trace(trace)

    def test_fewer_samples_than_regressors_rejected(self):
        acq = bench_acq(samples=2)
        with pytest.raises(ParameterDomainError, match=r"^need at least 3 samples .*, got 2$"):
            initial_guess(NoiseTrace(acq.times, np.zeros(2), acq), clearance_db=CLEARANCE)

    def test_a_scan_phase_that_overflows_is_rejected(self):
        # the acquisition's own phase 2*rate*sweep_duration is 2.5e300 rad, but the trace's
        # times run past its sweep to 1e10 s, where 2*rate*t overflows; the start refuses
        # before its cos and sin would turn the inf into NaN pivots
        acq = bench_acq(period=1e-300)
        trace = NoiseTrace(np.linspace(0.0, 1e10, 401), np.zeros(401), acq)
        with pytest.raises(ParameterDomainError, match=r"^the scan phase 2\*rate\*t overflows at "
                                                       r"\|t\| = 10000000000.0 s \(scan period 1e-300 s\)"):
            initial_guess(trace, clearance_db=CLEARANCE)


class TestUndeterminedLevel:
    """At 1 rad of jitter s_min can sink far below the electronic floor, where
    its Jacobian column vanishes; its sigma is then unbounded, not zero."""

    @pytest.mark.parametrize("seed", [3, 7])
    def test_null_space_level_has_infinite_sigma(self, seed):
        result = fit_trace(bundled_trace(seed, jitter_sigma=1.0))
        assert result.converged
        assert result.levels.s_min_db < -1000.0
        assert result.s_min_sigma_db == math.inf
        assert result.covariance[0, 0] == math.inf
        assert 0.0 < result.s_max_sigma_db < 1.0
        assert not result.phase_identifiable
        assert result.parameter_sigmas[2] == math.pi


def _fitted(result):
    m = result.model
    return np.array([m.s_min_db, m.s_max_db, m.theta0, m.scan_rate])


def _correlation_scaled_gap(cov, expected):
    """max |cov - expected| over sqrt(expected_ii * expected_jj)."""
    scale = np.sqrt(np.outer(np.diag(expected), np.diag(expected)))
    return float(np.max(np.abs(cov - expected) / scale))


class TestCovariance:
    """The covariance is ssr/dof * inv(J^T J) at the fitted, canonical
    parameters, whichever of the equivalent parameterisations the fit ran in."""

    @pytest.mark.parametrize("jitter", [0.0, 0.12])
    def test_matches_gauss_newton_on_a_central_difference_jacobian(self, jitter):
        trace = _synth(seed=390, jitter=jitter)
        result = fit_trace(trace, _perturbed_guess(jitter))
        p = _fitted(result)
        floor = 10.0 ** (-CLEARANCE / 10.0)

        def model(q):
            return _model_and_jacobian(q, trace.times, floor, jitter)[0]

        steps = 1e-6 * np.maximum(np.abs(p), 1.0)
        jac = np.column_stack([(model(p + h * e) - model(p - h * e)) / (2.0 * h)
                               for h, e in zip(steps, np.eye(4))])
        r = model(p) - trace.powers_db
        expected = float(r @ r) / (len(trace) - 4) * np.linalg.inv(jac.T @ jac)
        assert _correlation_scaled_gap(result.covariance, expected) < 1e-6
        assert result.parameter_sigmas[:2] == pytest.approx(np.sqrt(np.diag(expected)[:2]),
                                                           rel=1e-6)

    @pytest.mark.parametrize("jitter", [0.0, 0.12])
    @pytest.mark.parametrize("mirror", ["swapped levels", "negated rate"])
    def test_equivalent_starts_give_the_canonical_fit(self, jitter, mirror):
        trace = _synth(seed=391, jitter=jitter)
        guess = _perturbed_guess(jitter)
        canonical = fit_trace(trace, guess)
        if mirror == "swapped levels":
            start = replace(guess, s_min_db=guess.s_max_db, s_max_db=guess.s_min_db,
                            theta0=guess.theta0 + math.pi / 2.0)
        else:
            start = replace(guess, theta0=-guess.theta0, scan_rate=-guess.scan_rate)
        mirrored = fit_trace(trace, start)
        assert mirrored.converged and canonical.converged
        assert mirrored.levels.s_min_db == pytest.approx(canonical.levels.s_min_db, rel=1e-10)
        assert mirrored.levels.s_max_db == pytest.approx(canonical.levels.s_max_db, rel=1e-10)
        assert mirrored.model.scan_rate == pytest.approx(canonical.model.scan_rate, rel=1e-10)
        assert _correlation_scaled_gap(mirrored.covariance, canonical.covariance) < 1e-10


class TestRecordedClearance:
    def test_default_fit_of_a_trace_without_clearance_is_a_domain_error(self):
        text = serialize_trace(_synth(seed=392))
        stripped = parse_trace("".join(line for line in text.splitlines(keepends=True)
                                       if not line.startswith("# clearance_db=")))
        assert "clearance_db" not in stripped.metadata
        with pytest.raises(ParameterDomainError, match="records no clearance_db"):
            fit_trace(stripped)


class TestFitContext:
    def test_a_model_without_clearance_is_a_type_error(self):
        with pytest.raises(TypeError, match="clearance_db"):
            FitModel(s_min_db=-4.0, s_max_db=9.0, theta0=0.0, scan_rate=2 * math.pi / 0.2)

    def test_a_start_model_with_another_clearance_is_a_domain_error(self):
        trace = _synth(seed=393, jitter=0.12)
        model = replace(initial_guess(trace, CLEARANCE, OMEGA, 0.12), clearance_db=20.0)
        with pytest.raises(ParameterDomainError) as info:
            fit_trace(trace, model)
        assert str(info.value) == ("the model's clearance_db = 20.0 dB differs from "
                                   "the trace's recorded clearance_db = 14.0 dB")

    def test_a_start_model_with_another_jitter_is_a_domain_error(self):
        trace = _synth(seed=394, jitter=0.12)
        model = initial_guess(trace, CLEARANCE, OMEGA)
        with pytest.raises(ParameterDomainError) as info:
            fit_trace(trace, model)
        assert str(info.value) == ("the model's jitter_sigma = 0.0 rad differs from "
                                   "the trace's recorded jitter_sigma = 0.12 rad")

    def test_a_trace_without_clearance_takes_the_model_clearance(self):
        trace = _synth(seed=395, jitter=0.12)
        stripped = NoiseTrace(trace.times, trace.powers_db, trace.acquisition,
                              metadata={k: v for k, v in trace.metadata.items() if k != "clearance_db"})
        model = initial_guess(trace, CLEARANCE, OMEGA, 0.12)
        got, want = fit_trace(stripped, model), fit_trace(trace, model)
        assert (got.levels, got.iterations) == (want.levels, want.iterations)
