"""Least-squares fitting of scanned-phase noise traces.

The physical parameters of the variance formula (efficiencies and pump
parameter) are not individually identifiable from a single trace: the trace
determines only the two extremal levels, the phase offset and the scan rate.
The fit therefore works in the reparameterised space

    p = (s_min_db, s_max_db, theta0, scan_rate)

and maps back to the variance curve through S(theta) = A + B*cos(2*theta)
with A = (s_max + s_min)/2 and B = (s_max - s_min)/2.  Residuals are taken
in dB space, where the analyzer's estimator scatter is close to
homoscedastic.

When the acquisition is known to carry LO phase jitter of RMS sigma, the
model mean is the average of the dB curve over the jitter distribution,
which keeps the fitted levels unbiased estimates of the underlying
jitter-free levels.  The dB map is nonlinear, but the average is still an
exact series: with lo, hi the extremal levels plus the floor,
S + n = c*(1 + r^2 + 2*r*cos 2*theta) for r = (sqrt(hi) - sqrt(lo)) /
(sqrt(hi) + sqrt(lo)) and c = ((sqrt(hi) + sqrt(lo))/2)^2, so
ln(S + n) = ln c + 2*sum_m (-1)^(m+1) r^m cos(2*m*theta)/m (Gradshteyn &
Ryzhik 1.514), and Gaussian jitter multiplies term m by exp(-2*m^2*sigma^2).
The series is summed until the dropped terms fall below _SERIES_TOL, as k
blocks of k terms (baby-step giant-step, Paterson & Stockmeyer 1973): with
z = exp(2i*theta) and w = z^k, one real matrix product of the (2k, k)
coefficient matrix with the baby powers z^1..z^k, read as (re, im) pairs,
gives every block, and the blocks times the giant powers w^0..w^(k-1),
summed over the block axis, give the model and its Jacobian.  A free
jitter width would be structurally non-identifiable here: averaging the
variance only shrinks B by exp(-2*sigma^2), which a rescaled
(s_min, s_max) pair reproduces exactly, so jitter enters the model as a
fixed, known value.

The start needs no search: in linear power the mean trace is linear in
(A, B*cos 2*theta0, B*sin 2*theta0) at the known scan rate (the separable
structure of Golub & Pereyra, 1973), so initial_guess is one regression,
solved as 3x3 normal equations by the LM's unrolled Cholesky on Python floats
and refined once on its residual (iterative refinement, Bjorck 1996).  A sweep
over too little phase to separate 1, cos and sin is rejected, not fitted.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace

import numpy as np

from .detection import NoiseTrace, circuit_noise_floor
from .opo import ParameterDomainError, VarianceLevels, from_db

_LN10_OVER_10 = math.log(10.0) / 10.0
_N_FREE = 4
_MIN_START_FRACTION = 0.01  # s_min start floor, fraction of the mean level A
_GRADIENT_COSINE_TOL = 1e-6  # MINPACK max|J_i.r|/(|J_i||r|) at a stationary point
_SERIES_TOL = 1e-16  # largest dropped term of the jitter series, natural-log units
_MAX_TERMS = 1 << 16  # binds only below sigma ~ 6.5e-5 rad with levels > 70 dB apart
_RANK_RTOL = 1e-8  # singular values (and null-vector components) below this are zero
_RATE_FLIP = np.array([1.0, 1.0, -1.0, -1.0])  # (theta0, rate) -> (-theta0, -rate)
_MAX_ITERATIONS = 200  # LM iteration cap; the fit then returns converged=False
_FTOL = 1e-12  # relative SSR decrease considered converged
_XTOL = 1e-10  # max parameter step considered converged
_LAMBDA0 = 1e-3  # initial LM damping
# initial_guess's normal equations square the design's condition number: a
# Cholesky pivot is a difference of terms of the size of its diagonal entry,
# so it carries a rounding error of about eps times that entry, and at this
# fraction of it keeps ~4 digits, enough for one refinement step to restore
# the rest.  Below it the sweep covers too little phase to tell 1, cos and
# sin apart, and rounding, not the trace, would set the start.
_PIVOT_RTOL = 1e-12


@dataclass(frozen=True)
class FitModel:
    """Scanned-phase fit model: free level/phase parameters plus fixed context.

    s_min_db, s_max_db  extremal underlying variances, dB re shot noise (free)
    theta0              LO phase at t = 0, radians (free)
    scan_rate           LO phase scan rate, rad/s (free)
    clearance_db        circuit-noise clearance, fixed (required, no default)
    omega_norm          detuning parameter, fixed (kept for back-mapping to
                        pump parameter, not used by the trace model itself)
    jitter_sigma        known RMS LO phase jitter, fixed (0 = no averaging;
                        otherwise the model is the exact jitter average)
    """

    s_min_db: float
    s_max_db: float
    theta0: float
    scan_rate: float
    clearance_db: float
    omega_norm: float = 0.0
    jitter_sigma: float = 0.0


@dataclass(frozen=True)
class FitResult:
    """Outcome of ``fit_trace``: the fitted model, its 1-sigma uncertainties
    (``math.inf`` for a level the trace does not determine) and the solver's
    record."""

    model: FitModel                 # fitted parameter values
    covariance: np.ndarray          # 4x4 over (s_min_db, s_max_db, theta0, rate)
    parameter_sigmas: np.ndarray    # sqrt of the covariance diagonal
    levels: VarianceLevels
    s_min_sigma_db: float
    s_max_sigma_db: float
    residual_rms_db: float
    iterations: int
    converged: bool
    phase_identifiable: bool
    objective_history: np.ndarray   # SSR after each accepted step


def _model_and_jacobian(p: np.ndarray, t: np.ndarray, floor: float, jitter: float):
    """Model trace in dB and its Jacobian over p at the sample times t.

    The Jacobian is built as four contiguous rows, one per parameter, and
    returned as their (N, 4) transposed view.  The map (S + n)/(1 + n), and
    its inverse in initial_guess, stay written out: the Jacobian needs S + n,
    and apply_circuit_noise/remove_circuit_noise reject the levels LM trial
    steps and below-floor samples legitimately reach."""
    s_min, s_max = 10.0 ** (p[0] / 10.0), 10.0 ** (p[1] / 10.0)
    phase = np.multiply(p[3], t)  # 2*theta, theta = p[2] + p[3]*t
    phase += p[2]
    phase *= 2.0
    jt = np.empty((_N_FREE, t.size))
    if jitter > 0.0:
        sl, sh = math.sqrt(s_min + floor), math.sqrt(s_max + floor)
        u = 1.0 / (sh + sl)
        r = (sh - sl) * u
        # terms until r^m * exp(-2 m^2 sigma^2) < tol: the positive root of
        # beta*m + 2*sigma^2*m^2 = ln(1/tol); non-finite levels need one term
        beta = -math.log(abs(r)) if r else math.inf
        ln_tol = -math.log(_SERIES_TOL)
        root = 2.0 * ln_tol / (beta + math.sqrt(beta * beta + 8.0 * jitter * jitter * ln_tol))
        terms = min(max(math.ceil(root), 1), _MAX_TERMS) if math.isfinite(root) else 1
        k = 1 + math.isqrt(terms - 1)
        m = np.arange(1.0, k * k + 1)
        coef = np.empty((2, k * k))  # (coef/m, coef), coef = (-r)^(m-1) exp(-2 sigma^2 m^2)
        np.power(abs(r), m - 1.0, out=coef[1])  # numpy's pow is slow on a negative base
        if r > 0.0:
            coef[1, 1::2] *= -1.0
        coef[1] *= np.exp(-2.0 * jitter * jitter * m * m)
        np.divide(coef[1], m, out=coef[0])
        # h = (sum coef z^m / m, sum coef z^m), z = exp(2i*theta): the blocks
        # of k terms from one real matrix product over (re, im) pairs of the
        # baby powers z^1..z^k, then summed times the giant powers w^i, w = z^k
        zw = np.empty((2, k, t.size), dtype=complex)
        baby, giant = zw
        np.cos(phase, out=baby[0].real)
        np.sin(phase, out=baby[0].imag)
        for i in range(1, k):
            np.multiply(baby[i - 1], baby[0], out=baby[i])
        giant[0] = 1.0
        for i in range(1, k):
            np.multiply(giant[i - 1], baby[-1], out=giant[i])
        blocks = (coef.reshape(2 * k, k) @ baby.view(float)).view(complex).reshape(2, k, t.size)
        blocks *= giant
        h = blocks.sum(axis=1)
        model = np.multiply(h[0].real, 2.0 * r)
        model += 2.0 * math.log(0.5 * (sh + sl)) - math.log1p(floor)
        model /= _LN10_OVER_10
        # d ln(S + n) / d r = 2*Re h[1]
        levels = jt[:2]
        np.multiply.outer((-2.0 * sh * u, 2.0 * sl * u), h[1].real, out=levels)
        levels += 1.0
        levels *= np.array(((s_min * u / sl,), (s_max * u / sh,)))
        np.multiply(h[1].imag, -4.0 * r, out=jt[2])
        jt[2] /= _LN10_OVER_10
    else:
        b = 0.5 * (s_max - s_min)
        c = np.cos(phase)
        s = np.multiply(b, c)
        s += 0.5 * (s_max + s_min)
        s += floor
        model = np.divide(s, 1.0 + floor)
        np.log10(model, out=model)
        model *= 10.0
        np.subtract(1.0, c, out=jt[0])
        jt[0] *= 0.5 * s_min
        jt[0] /= s
        np.add(1.0, c, out=jt[1])
        jt[1] *= 0.5 * s_max
        jt[1] /= s
        np.sin(phase, out=jt[2])
        jt[2] *= -2.0 * b
        jt[2] /= s
        jt[2] /= _LN10_OVER_10
    np.multiply(jt[2], t, out=jt[3])
    return model, jt.T


def _damped_solve(h, g, lam, rtol=0.0):
    """Solve (H + lam*I) u = -g by an unrolled Cholesky factorization L L^T.

    h holds the lower triangle of the symmetric 4x4 H by rows, (h00, h10,
    h11, h20, h21, h22, h30, h31, h32, h33); g has 4 entries.  Returns
    (u, drop) with drop = lam*|u|^2 - g.u = lam*|u|^2 + |z|^2, z = L^-1 (-g),
    the SSR drop that the Gauss-Newton model predicts for u, or None when a
    pivot is at or below rtol times its diagonal entry h_ii (rtol = 0: not
    positive, H + lam*I indefinite to rounding).  A NaN pivot passes, as does
    any at rtol = 0 whose h_ii is infinite (0*inf is NaN)."""
    h00, h10, h11, h20, h21, h22, h30, h31, h32, h33 = h
    g0, g1, g2, g3 = g
    d = h00 + lam
    if d <= rtol * h00:
        return None
    l00 = math.sqrt(d)
    l10, l20, l30 = h10 / l00, h20 / l00, h30 / l00
    d = h11 + lam - l10 * l10
    if d <= rtol * h11:
        return None
    l11 = math.sqrt(d)
    l21 = (h21 - l20 * l10) / l11
    l31 = (h31 - l30 * l10) / l11
    d = h22 + lam - l20 * l20 - l21 * l21
    if d <= rtol * h22:
        return None
    l22 = math.sqrt(d)
    l32 = (h32 - l30 * l20 - l31 * l21) / l22
    d = h33 + lam - l30 * l30 - l31 * l31 - l32 * l32
    if d <= rtol * h33:
        return None
    l33 = math.sqrt(d)
    z0 = -g0 / l00
    z1 = (-g1 - l10 * z0) / l11
    z2 = (-g2 - l20 * z0 - l21 * z1) / l22
    z3 = (-g3 - l30 * z0 - l31 * z1 - l32 * z2) / l33
    u3 = z3 / l33
    u2 = (z2 - l32 * u3) / l22
    u1 = (z1 - l21 * u2 - l31 * u3) / l11
    u0 = (z0 - l10 * u1 - l20 * u2 - l30 * u3) / l00
    drop = lam * (u0 * u0 + u1 * u1 + u2 * u2 + u3 * u3) + (z0 * z0 + z1 * z1 + z2 * z2 + z3 * z3)
    return (u0, u1, u2, u3), drop


def _lm_minimize(p0, t, y, floor, jitter):
    """Damped Gauss-Newton (Levenberg-Marquardt); SSR never increases across
    accepted steps.  Returns (p, jac, ssr, history, iterations, converged),
    jac the Jacobian at p.  The 4x4 algebra runs on Python floats, read once
    per accepted point from J^T J and J^T r: with D = diag(J^T J) (More 1978),
    each damping try solves (H + lam*I) u = -g, H = D^-1/2 J^T J D^-1/2 and
    g = D^-1/2 J^T r, by Cholesky (_damped_solve); the step is D^-1/2 u and
    its predicted SSR drop lam*|u|^2 - g.u.  A pivot that is not positive
    (H indefinite to rounding) damps more without evaluating the model.  The
    damping loop stops once the drop is at most eps*ssr, below what a float
    SSR resolves.  No cap is needed: for any exact solve |g_i| <= sqrt(ssr)
    bounds the drop by 8*ssr/lam, and lam only grows within the loop, so it
    ends within ceil(log4(8/(eps*lam))) tries, 33 from _LAMBDA0, 51 from 1e-14.
    p stays a float64 array, as _model_and_jacobian relies on numpy's pow."""
    p = np.asarray(p0, dtype=float).copy()
    lam = _LAMBDA0
    with np.errstate(all="ignore"):
        r, jac = _model_and_jacobian(p, t, floor, jitter)
        r -= y
        ssr = float(r @ r)
        if not math.isfinite(ssr):
            raise ParameterDomainError("start model gives non-finite residuals, or residuals whose "
                                       "sum of squares overflows; check its levels and phase and "
                                       "the trace's samples")
        history = [ssr]
        converged = False
        it = 0
        for it in range(1, _MAX_ITERATIONS + 1):
            (h00, h01, h02, h03), (_, h11, h12, h13), (_, _, h22, h23), (_, _, _, h33) = \
                (jac.T @ jac).tolist()
            grad = (jac.T @ r).tolist()
            diag = (h00, h11, h22, h33)
            s0, s1, s2, s3 = scale = [1.0 / math.sqrt(max(hi, 1e-14)) for hi in diag]  # a NaN hi stays NaN
            h = (h00 * s0 * s0, h01 * s0 * s1, h11 * s1 * s1, h02 * s0 * s2, h12 * s1 * s2,
                 h22 * s2 * s2, h03 * s0 * s3, h13 * s1 * s3, h23 * s2 * s3, h33 * s3 * s3)
            g = [gi * si for gi, si in zip(grad, scale)]
            accepted = False
            while True:
                solved = _damped_solve(h, g, lam)
                if solved is None:
                    lam *= 4.0
                    continue
                u, drop = solved
                if not drop > sys.float_info.epsilon * ssr:
                    break  # no resolvable drop (NaN included): converged only at a stationary point
                step = [si * ui for si, ui in zip(scale, u)]
                p_new = p + step
                r_new, jac_new = _model_and_jacobian(p_new, t, floor, jitter)
                r_new -= y
                ssr_new = float(r_new @ r_new)
                if math.isfinite(ssr_new) and ssr_new < ssr:
                    accepted = True
                    break
                lam *= 4.0
            if not accepted:
                root_ssr = math.sqrt(ssr)
                converged = all(abs(gi) / max(math.sqrt(hi) * root_ssr, 1e-300) <= _GRADIENT_COSINE_TOL
                                for gi, hi in zip(grad, diag))  # a NaN cosine is not convergence
                break
            rel_drop = (ssr - ssr_new) / max(ssr, 1e-300)
            p, r, ssr, jac = p_new, r_new, ssr_new, jac_new
            history.append(ssr)
            lam = max(lam / 3.0, 1e-14)
            if rel_drop < _FTOL or max(map(abs, step)) < _XTOL:
                converged = True
                break
    return p, jac, ssr, np.asarray(history), it, converged


def _normalize(p: np.ndarray, jac: np.ndarray):
    """Canonical parameter form: s_min <= s_max, scan_rate > 0, theta0 in [0, pi).
    Each map is its own inverse, so the Jacobian's columns follow the parameters."""
    p = p.copy()
    if p[0] > p[1]:
        p[[0, 1]] = p[[1, 0]]
        p[2] += math.pi / 2.0
        jac = jac[:, [1, 0, 2, 3]]
    if p[3] < 0.0:
        p[2:] = -p[2:]
        jac = jac * _RATE_FLIP
    p[2] = p[2] % math.pi
    return p, jac


def initial_guess(trace: NoiseTrace, clearance_db: float, omega_norm: float = 0.0,
                  jitter_sigma: float = 0.0) -> FitModel:
    """Closed-form start: regress the linear powers 10^(y/10)*(1+n) - n, which
    are mean-unbiased (the estimator factor has mean 1), on [1, cos, sin] of
    2*rate*t, with the rate the trace's recorded LO scan rate; their mean is
    A + B*exp(-2*sigma^2)*cos(2*theta0 + 2*rate*t).
    s_min starts no lower than A/100: far below, its Jacobian column vanishes
    and LM trial steps overflow.  ParameterDomainError is raised for a
    jitter_sigma not finite and >= 0 or so wide that exp(-2*sigma^2)
    underflows to 0 (no modulation left), a clearance not finite and > 0 dB,
    a sample time at which the scan phase 2*rate*t overflows, and a sample
    whose linear power overflows (above about 3082 dB).  The
    regression solves (D D^T) c = D s for the (3, N) design D of rows
    [1, cos, sin] by _damped_solve at lam = 0, padded to 4x4 by a unit
    pivot, then once more for the residual's correction; fewer than 3
    samples, or a pivot at or below _PIVOT_RTOL of its diagonal entry (a
    sweep over too little phase to separate the rows, e.g. 10 us at a 0.2 s
    period), raise ParameterDomainError."""
    if not 0.0 <= jitter_sigma < math.inf:
        raise ParameterDomainError(f"jitter_sigma must be finite and >= 0, got {jitter_sigma}")
    contrast = math.exp(-2.0 * jitter_sigma * jitter_sigma)
    if contrast == 0.0:
        raise ParameterDomainError(
            f"jitter_sigma = {jitter_sigma} rad washes out the phase modulation "
            "(exp(-2*sigma^2) underflows to 0), so the levels cannot be fitted")
    if len(trace) < 3:
        raise ParameterDomainError(f"need at least 3 samples to regress on [1, cos, sin], got {len(trace)}")
    floor = circuit_noise_floor(clearance_db)
    rate = trace.acquisition.lo_scan.rate
    # a parsed trace's times can run past its sweep, so the phase is checked
    # on them, not on the acquisition
    t_max = max(-float(trace.times[0]), float(trace.times[-1]))
    if not 2.0 * rate * t_max < math.inf:
        raise ParameterDomainError(
            f"the scan phase 2*rate*t overflows at |t| = {t_max} s (scan period "
            f"{trace.acquisition.lo_scan.period} s), so the levels cannot be fitted")
    design = np.empty((3, len(trace)))
    design[0] = 1.0
    phase = np.multiply(2.0 * rate, trace.times, out=design[2])
    np.cos(phase, out=design[1])
    np.sin(phase, out=design[2])
    with np.errstate(over="ignore"):  # a finite 10^(y/10) can overflow times 1 + n
        s = from_db(trace.powers_db) * (1.0 + floor) - floor
    if not np.isfinite(s).all():
        raise ParameterDomainError(
            f"the trace sample of {trace.powers_db.max()} dB overflows as a linear power, "
            "so the levels cannot be fitted")
    (h00, h01, h02), (_, h11, h12), (_, _, h22) = (design @ design.T).tolist()
    h = (h00, h01, h11, h02, h12, h22, 0.0, 0.0, 0.0, 1.0)
    g0, g1, g2 = (design @ s).tolist()
    solved = _damped_solve(h, (-g0, -g1, -g2, 0.0), 0.0, _PIVOT_RTOL)
    if solved is None:
        span = 2.0 * rate * (trace.times[-1] - trace.times[0])
        raise ParameterDomainError(
            f"the trace sweeps {span:.3g} rad of 2*theta, too little to separate the mean "
            "level from the phase modulation, so the levels cannot be fitted")
    c = solved[0][:3]
    g0, g1, g2 = (design @ (s - np.dot(c, design))).tolist()
    (d0, d1, d2, _), _ = _damped_solve(h, (-g0, -g1, -g2, 0.0), 0.0, _PIVOT_RTOL)
    a = max(c[0] + d0, floor)
    bc, bs = c[1] + d1, c[2] + d2
    b = math.hypot(bc, bs) / contrast
    lo, hi = max(a - b, _MIN_START_FRACTION * a), a + b
    theta0 = 0.5 * math.atan2(-bs, bc) % math.pi  # a tiny negative angle rounds up to pi
    return FitModel(s_min_db=10.0 * math.log10(lo), s_max_db=10.0 * math.log10(hi),
                    theta0=theta0 if theta0 < math.pi else 0.0, scan_rate=rate,
                    omega_norm=omega_norm, clearance_db=clearance_db,
                    jitter_sigma=jitter_sigma)


def fit_trace(trace: NoiseTrace, model: FitModel | None = None) -> FitResult:
    """Fit the scanned-phase model to a noise trace.

    ``model`` supplies the initial guess and the fixed context (clearance,
    detuning, known jitter); if omitted, initial_guess builds it from the
    trace and its recorded clearance, detuning and jitter.  Non-convergence
    (the iteration cap, or no descending step from a non-stationary point)
    returns the best-so-far values with ``converged=False``.  A trace without
    usable phase modulation is flagged ``phase_identifiable=False`` and the
    phase uncertainty is reported as the full model period (pi).  The
    uncertainties, the rank and the unbounded parameters all come from one
    thin SVD J = U diag(s) V^T of the normalized Jacobian: the covariance is
    ssr/dof * V diag(1/s^2) V^T over the s above _RANK_RTOL * s[0], and a
    parameter with a component in a null row of V^T (e.g. s_min far below
    the electronic floor) is not determined by the trace: its variance and
    sigma are ``math.inf``.  ParameterDomainError is raised for a start model
    whose curve is not finite (e.g. an overflowing level), whose residuals'
    sum of squares overflows (e.g. a sample of 1e160 dB), or whose clearance
    or jitter differs from the trace's record, for a clearance not finite and
    > 0 dB, when neither the model nor the trace gives a clearance, and for
    a sample whose linear power overflows when initial_guess builds the start.
    """
    if len(trace) < 10 * _N_FREE:
        raise ParameterDomainError(
            f"need at least {10 * _N_FREE} samples to fit {_N_FREE} parameters, got {len(trace)}")
    jitter = trace.acquisition.lo_scan.jitter_sigma
    if model is None:
        if "clearance_db" not in trace.metadata:
            raise ParameterDomainError("the trace records no clearance_db; pass a model that sets it")
        model = initial_guess(trace, clearance_db=trace.metadata["clearance_db"],
                              omega_norm=trace.metadata.get("omega_norm", 0.0),
                              jitter_sigma=jitter)
    floor = circuit_noise_floor(model.clearance_db)
    recorded = trace.metadata.get("clearance_db", model.clearance_db)
    for name, given, traced, unit in (("clearance_db", model.clearance_db, recorded, "dB"),
                                      ("jitter_sigma", model.jitter_sigma, jitter, "rad")):
        if given != traced:
            raise ParameterDomainError(f"the model's {name} = {given} {unit} differs from "
                                       f"the trace's recorded {name} = {traced} {unit}")
    t, y = trace.times, trace.powers_db
    p0 = np.array([model.s_min_db, model.s_max_db, model.theta0, model.scan_rate])
    p, jac, ssr, history, iterations, converged = _lm_minimize(p0, t, y, floor, model.jitter_sigma)
    p, jac = _normalize(p, jac)
    _, sv, vt = np.linalg.svd(jac, full_matrices=False)
    rank = int(np.count_nonzero(sv > _RANK_RTOL * sv[0]))  # s is descending
    scaled = vt[:rank].T / sv[:rank]
    cov = ssr / max(len(trace) - _N_FREE, 1) * (scaled @ scaled.T)
    if rank < _N_FREE:
        unbounded = np.abs(vt[rank:]).max(axis=0) > _RANK_RTOL
        cov[unbounded, unbounded] = math.inf
    sigmas = np.sqrt(np.maximum(cov.diagonal(), 0.0))
    # the phase is meaningful only if the modulation amplitude is established
    # well beyond its own uncertainty; a flat trace fits a small noise ripple
    modulation = p[1] - p[0]
    significant = modulation > 4.0 * math.hypot(sigmas[0], sigmas[1])
    identifiable = rank == _N_FREE and significant
    if not identifiable:
        sigmas[2] = math.pi  # phase unconstrained: report the full period

    fitted = replace(model, s_min_db=float(p[0]), s_max_db=float(p[1]),
                     theta0=float(p[2]), scan_rate=float(p[3]))
    levels = VarianceLevels.from_db(fitted.s_min_db, fitted.s_max_db)
    return FitResult(
        model=fitted,
        covariance=cov,
        parameter_sigmas=sigmas,
        levels=levels,
        s_min_sigma_db=float(sigmas[0]),
        s_max_sigma_db=float(sigmas[1]),
        residual_rms_db=math.sqrt(ssr / len(trace)),
        iterations=iterations,
        converged=converged,
        phase_identifiable=bool(identifiable),
        objective_history=history,
    )
