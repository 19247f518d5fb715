import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize import least_squares
from scipy.special import roots_hermite

from sqzlab import (
    AcquisitionSettings,
    DetectionChain,
    FitModel,
    FitOptions,
    NoiseTrace,
    ParameterDomainError,
    PhaseScan,
    extrema_levels,
    fit_trace,
    initial_guess,
    min_max_levels,
    synthesize_trace,
)
from sqzlab.fitting import _gh_nodes, _model_db

ALPHA, RHO, X, OMEGA = 0.819819, 0.8525149190110828, 0.5656277572369306, 0.10720434894893513
CLEARANCE = 14.0
TRUTH = min_max_levels(ALPHA, RHO, X, OMEGA)


def _acq(samples=401, sweep=0.2, period=0.2, jitter=0.0):
    return AcquisitionSettings(center_frequency=1e6, resolution_bandwidth=1e5,
                               video_bandwidth=30.0, sweep_duration=sweep,
                               sample_count=samples,
                               lo_scan=PhaseScan(period=period, theta0=0.0, jitter_sigma=jitter))


def _chain():
    return DetectionChain(0.99, 0.91, 1.0, CLEARANCE)


def _synth(seed, jitter=0.0, x=X, samples=401):
    return synthesize_trace(ALPHA, RHO, x, OMEGA, _chain(), _acq(samples=samples, jitter=jitter), seed)


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

    def test_auto_guess_converges_to_same_optimum(self):
        trace = _synth(seed=303)
        from_perturbed = fit_trace(trace, _perturbed_guess())
        auto = initial_guess(trace, clearance_db=CLEARANCE)
        from_auto = fit_trace(trace, auto)
        assert from_auto.levels.s_min_db == pytest.approx(from_perturbed.levels.s_min_db, abs=1e-6)
        assert from_auto.levels.s_max_db == pytest.approx(from_perturbed.levels.s_max_db, abs=1e-6)


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

    def test_iteration_cap_reports_nonconvergence(self):
        trace = _synth(seed=313)
        result = fit_trace(trace, _perturbed_guess(), FitOptions(max_iterations=1))
        assert not result.converged
        assert result.iterations == 1
        assert np.isfinite(result.levels.s_min_db)

    def test_matches_scipy_least_squares(self):
        trace = _synth(seed=314)
        guess = _perturbed_guess()
        result = fit_trace(trace, guess)
        floor = 10.0 ** (-CLEARANCE / 10.0)

        def residual(p):
            return _model_db(p, trace.times, floor, 0.0, 21) - trace.powers_db

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
    def test_percentile_mode_agrees_roughly(self):
        trace = _synth(seed=330)
        levels = extrema_levels(trace, clearance_db=CLEARANCE)
        assert levels.s_min_db == pytest.approx(TRUTH.s_min_db, abs=0.5)
        assert levels.s_max_db == pytest.approx(TRUTH.s_max_db, abs=0.5)


class TestGaussHermiteRule:
    @pytest.mark.parametrize("n", [1, 2, 21, 61, 200])
    def test_matches_scipy_roots_hermite(self, n):
        nodes, weights = _gh_nodes(n)
        ref_nodes, ref_weights = roots_hermite(n)
        np.testing.assert_allclose(nodes, ref_nodes, rtol=0.0, atol=1e-13)
        np.testing.assert_allclose(weights, ref_weights / math.sqrt(math.pi), rtol=0.0, atol=1e-13)

    # numpy's hermgauss weights overflow from about 380 nodes
    @pytest.mark.parametrize("n", [0, -3, 400])
    def test_unusable_node_count_rejected(self, n):
        with pytest.raises(ParameterDomainError):
            _gh_nodes(n)

    def test_zero_nodes_with_jitter_rejected_by_fit(self):
        trace = _synth(seed=340, jitter=0.05)
        guess = replace(_perturbed_guess(jitter=0.05), gh_nodes=0)
        with pytest.raises(ParameterDomainError):
            fit_trace(trace, guess)


class TestStartModelDomain:
    def test_overflowing_start_level_rejected(self):
        trace = _synth(seed=341)
        guess = replace(_perturbed_guess(), s_max_db=4000.0)
        with pytest.raises(ParameterDomainError, match="non-finite"):
            fit_trace(trace, guess)

    def test_nan_start_phase_rejected(self):
        trace = _synth(seed=342)
        guess = replace(_perturbed_guess(), theta0=math.nan)
        with pytest.raises(ParameterDomainError, match="non-finite"):
            fit_trace(trace, guess)


def _acq_k20(jitter=0.0):
    """Bundled RBW with VBW 10 kHz: estimator dof k = 20."""
    return replace(_acq(jitter=jitter), video_bandwidth=1e4)


def _mean_trace(sigma, theta0, sweep):
    """Noise-free trace of the jitter-averaged mean power at the TRUTH levels."""
    acq = _acq(sweep=sweep, jitter=sigma)
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

    @pytest.mark.parametrize("jitter, acq", [(0.12, _acq(jitter=0.12)), (0.0, _acq_k20()),
                                             (0.12, _acq_k20(jitter=0.12))])
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
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for seed in range(50):
                trace = synthesize_trace(ALPHA, RHO, 0.7, OMEGA, _chain(), _acq_k20(jitter), seed)
                result = fit_trace(trace, initial_guess(trace, clearance_db=CLEARANCE,
                                                        jitter_sigma=jitter))
                assert result.converged

    @pytest.mark.parametrize("trace, jitter", [
        (_synth(seed=360, x=0.0), 0.0),                      # flat shot-noise trace
        (_synth(seed=361, jitter=1.0), 1.0),                 # strong jitter
        (NoiseTrace(_acq().times, np.full(401, -30.0), _acq()), 0.0),  # below the floor
    ])
    def test_degenerate_traces_give_finite_guesses(self, trace, jitter):
        guess = initial_guess(trace, clearance_db=CLEARANCE, jitter_sigma=jitter)
        levels = [guess.s_min_db, guess.s_max_db, guess.theta0]
        assert np.all(np.isfinite(levels))
        assert guess.s_min_db <= guess.s_max_db
        assert 0.0 <= guess.theta0 < math.pi

    def test_extrema_levels_use_the_regression(self):
        trace = _synth(seed=362, jitter=0.12)
        guess = initial_guess(trace, clearance_db=CLEARANCE, jitter_sigma=0.12)
        levels = extrema_levels(trace, clearance_db=CLEARANCE, jitter_sigma=0.12)
        assert (levels.s_min_db, levels.s_max_db) == (guess.s_min_db, guess.s_max_db)


class TestDefaultGuess:
    def test_default_fit_uses_the_recorded_jitter(self):
        trace = _synth(seed=370, jitter=0.12)
        default = fit_trace(trace)
        aware = fit_trace(trace, initial_guess(trace, clearance_db=CLEARANCE, omega_norm=OMEGA,
                                               jitter_sigma=0.12))
        assert default.model.jitter_sigma == 0.12
        assert default.levels.s_min_db == aware.levels.s_min_db
        assert default.levels.s_max_db == aware.levels.s_max_db


class TestStationarityCheck:
    def test_no_descent_from_a_non_stationary_start_is_not_convergence(self):
        trace = _synth(seed=301)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            result = fit_trace(trace, _perturbed_guess(), FitOptions(lambda0=1e300))
        assert not result.converged
        assert result.iterations == 1
        assert len(result.objective_history) == 1  # no step accepted: still at the start
        assert result.objective_history[0] > 1e3
