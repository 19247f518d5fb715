import math
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
