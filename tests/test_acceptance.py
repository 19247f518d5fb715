"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest -s tests/test_acceptance.py`` to see them).

Criterion 5 is split in two: the solver/oracle agreement clauses (5a) and
the expected gain-scale window (5b).  5b fails by design of the model: the
measured level pair (-2.75, +7.00) dB pins the corrected intensity gain at
0.821 * G exactly (zero residual, confirmed by the exhaustive grid oracle),
while the 0.85-0.95 window corresponds to the same correction expressed on
the amplitude gain, sqrt(0.821) = 0.906.  The assertion is kept as stated
rather than silently redefining the reported quantity.
"""

import math
import time

import numpy as np

from sqzlab import (
    DetectionChain,
    FitModel,
    PumpSpec,
    VarianceLevels,
    detection_efficiency,
    escape_efficiency,
    fit_trace,
    from_db,
    jitter_averaged_variance,
    load_config,
    loss_only_explanation_check,
    min_max_levels,
    parse_trace,
    predict_levels,
    pump_parameter,
    quadrature_variance,
    reconcile_discrepancy,
    serialize_trace,
    spectral_point,
    sweep_pump,
    synthesize_trace,
    threshold_power,
    to_db,
)
from sqzlab.cli import main as cli_main

from conftest import CANONICAL_CONFIG, F0, grid_search_oracle, bench_acq

MEASURED = VarianceLevels.from_db(-2.75, 7.00)


def _report(name: str, ok: bool, detail: str) -> bool:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    return ok


def test_criterion_1_threshold(cavity):
    p_th_mw = threshold_power(cavity) * 1e3
    ok = abs(p_th_mw - 149.6) / 149.6 <= 0.01 and abs(p_th_mw - 150.0) / 150.0 <= 0.01
    assert _report("criterion 1 threshold", ok,
                   f"P_th = {p_th_mw:.4f} mW (expect 149.6 mW, quoted 150 mW, +/-1%)")


def test_criterion_2_derived_parameters(cavity, chain, pump_gain):
    rho = escape_efficiency(cavity)
    alpha = detection_efficiency(chain)
    omega = spectral_point(cavity, F0).detuning_parameter
    x = pump_parameter(pump_gain, threshold_power(cavity))
    checks = {
        "rho": abs(rho - 0.8525) <= 0.01 and abs(rho - 0.85) <= 0.01,
        "alpha": abs(alpha - 0.8198) <= 0.005 and abs(alpha - 0.82) <= 0.005,
        "Omega": abs(omega - 0.1072) <= 0.001 and abs(omega - 0.107) <= 0.001,
        "x": abs(x - 0.5656) <= 0.005 and abs(x - 0.57) <= 0.005,
    }
    ok = all(checks.values())
    assert _report("criterion 2 derived parameters", ok,
                   f"rho={rho:.4f} alpha={alpha:.4f} Omega={omega:.4f} x={x:.4f} "
                   f"(failing: {[k for k, v in checks.items() if not v] or 'none'})")


def test_criterion_3_variance_prediction(cavity, chain, pump_gain):
    levels = predict_levels(cavity, chain, pump_gain, F0)
    ok = abs(levels.s_min_db - (-4.35)) <= 0.1 and abs(levels.s_max_db - 8.97) <= 0.1
    assert _report("criterion 3 variance prediction", ok,
                   f"(s_min, s_max) = ({levels.s_min_db:+.3f}, {levels.s_max_db:+.3f}) dB "
                   f"(expect (-4.35, +8.97) +/- 0.1 dB)")


def test_criterion_4_circuit_noise_correction(cavity, chain, pump_gain, capsys):
    corrected = predict_levels(cavity, chain, pump_gain, F0, include_circuit_noise=True)
    ok_levels = (abs(corrected.s_min_db - (-4.07)) <= 0.05
                 and abs(corrected.s_max_db - 8.82) <= 0.2)
    code = cli_main(["predict", "--config", str(CANONICAL_CONFIG), "--circuit-noise"])
    out = capsys.readouterr().out
    ok_doc = code == 0 and "note:" in out and "convention" in out
    ok = ok_levels and ok_doc
    with capsys.disabled():
        assert _report("criterion 4 circuit-noise correction", ok,
                       f"corrected = ({corrected.s_min_db:+.3f}, {corrected.s_max_db:+.3f}) dB "
                       f"(expect -4.07 +/- 0.05, +8.82 +/- 0.2); convention note printed: {ok_doc}")


def test_criterion_5a_reconciliation_solver(cavity, chain, pump_gain):
    t0 = time.perf_counter()
    result = reconcile_discrepancy(MEASURED, cavity, chain, pump_gain, F0)
    solve_s = time.perf_counter() - t0
    g_grid, e_grid, _ = grid_search_oracle(MEASURED, cavity, chain, 5.3)
    loss = loss_only_explanation_check(MEASURED, cavity, chain, pump_gain, F0)
    checks = {
        "efficiency <= 1": result.efficiency_scale <= 1.0,
        "residual < 0.05 dB": result.residual_db < 0.05,
        "newton vs grid <= 2e-3": (abs(result.gain_scale - g_grid) <= 2e-3
                                   and abs(result.efficiency_scale - e_grid) <= 2e-3),
        "loss-only infeasible": not loss.feasible,
        "runtime < 1 s": solve_s < 1.0,
    }
    ok = all(checks.values())
    assert _report("criterion 5a reconciliation solver", ok,
                   f"(g, e) = ({result.gain_scale:.4f}, {result.efficiency_scale:.4f}), "
                   f"grid oracle ({g_grid:.3f}, {e_grid:.3f}), residual {result.residual_db:.2e} dB, "
                   f"loss-only s_max error {loss.s_max_error_db:+.3f} dB, solve {solve_s * 1e3:.1f} ms "
                   f"(failing: {[k for k, v in checks.items() if not v] or 'none'})")


def test_criterion_5b_gain_scale_window(cavity, chain, pump_gain):
    """Expected-window check kept as stated; see the module docstring for why
    the data put the intensity-gain scale at 0.821 (amplitude-gain 0.906)."""
    result = reconcile_discrepancy(MEASURED, cavity, chain, pump_gain, F0)
    ok = 0.85 <= result.gain_scale <= 0.95
    assert _report("criterion 5b gain-scale window", ok,
                   f"gain_scale = {result.gain_scale:.4f}, window [0.85, 0.95]; "
                   f"amplitude-gain scale sqrt(g) = {result.amplitude_gain_scale:.4f} "
                   f"(the ~10% correction lands on the amplitude gain, not the intensity gain)")


def test_criterion_6_pump_sweep_shape(cavity, chain):
    gains = [2.0, 2.8, 3.6, 4.4, 5.3, 6.0, 6.7, 7.5, 8.2, 9.0]
    rows = sweep_pump(cavity, chain, [PumpSpec(parametric_gain=g) for g in gains], F0)
    smin = [r.predicted.s_min_db for r in rows]
    smax = [r.predicted.s_max_db for r in rows]
    monotone = (all(b < a for a, b in zip(smin, smin[1:]))
                and all(b > a for a, b in zip(smax, smax[1:])))
    powers = [r.pump_power for r in rows]
    brackets = powers[0] < 0.0478 < powers[-1] and powers[-1] > 0.061
    anchor = next(r for r in rows if r.parametric_gain == 5.3)
    anchored = (abs(anchor.predicted.s_min_db - (-4.35)) <= 0.1
                and abs(anchor.predicted.s_max_db - 8.97) <= 0.1)
    ok = monotone and brackets and anchored
    assert _report("criterion 6 pump sweep shape", ok,
                   f"10 rows, powers {powers[0] * 1e3:.1f}..{powers[-1] * 1e3:.1f} mW, "
                   f"monotone={monotone}, G=5.3 row=({anchor.predicted.s_min_db:+.3f}, "
                   f"{anchor.predicted.s_max_db:+.3f}) dB")


def test_criterion_7_fit_round_trip_suite(cavity, chain):
    alpha = detection_efficiency(chain)
    rho = escape_efficiency(cavity)
    omega = spectral_point(cavity, F0).detuning_parameter
    seeds = 100
    t0 = time.perf_counter()

    total = covered = 0
    for xi, x in enumerate((0.2, 0.4, 0.57, 0.7)):
        truth = min_max_levels(alpha, rho, x, omega)
        for ci, clearance in enumerate((10.0, 14.0, 20.0)):
            cell_chain = DetectionChain(0.99, 0.91, 1.0, clearance)
            for ji, jitter in enumerate((0.0, 0.05)):
                acq = bench_acq(jitter=jitter)
                guess = FitModel(s_min_db=truth.s_min_db + 0.5, s_max_db=truth.s_max_db - 0.5,
                                 theta0=0.3, scan_rate=2 * math.pi / 0.2 * 1.03,
                                 omega_norm=omega, clearance_db=clearance,
                                 jitter_sigma=jitter)
                base = 100_000 * (xi * 6 + ci * 2 + ji)
                for s in range(seeds):
                    trace = synthesize_trace(alpha, rho, x, omega, cell_chain, acq, base + s)
                    result = fit_trace(trace, guess)
                    total += 1
                    if (abs(result.levels.s_min_db - truth.s_min_db) < 2 * result.s_min_sigma_db
                            and abs(result.levels.s_max_db - truth.s_max_db) < 2 * result.s_max_sigma_db):
                        covered += 1
    coverage = covered / total
    elapsed = time.perf_counter() - t0

    # bench-grade settings: the bundled configuration end to end
    cfg = load_config(CANONICAL_CONFIG)
    acq = cfg.acquisition
    x_bench = pump_parameter(cfg.pump, threshold_power(cfg.cavity))
    truth = min_max_levels(detection_efficiency(cfg.detection), escape_efficiency(cfg.cavity),
                           x_bench, omega)
    guess = FitModel(s_min_db=truth.s_min_db + 0.5, s_max_db=truth.s_max_db - 0.5,
                     theta0=0.3, scan_rate=acq.lo_scan.rate * 1.03, omega_norm=omega,
                     clearance_db=cfg.detection.circuit_noise_clearance_db,
                     jitter_sigma=acq.lo_scan.jitter_sigma)
    sigmas = []
    for s in range(20):
        trace = synthesize_trace(detection_efficiency(cfg.detection),
                                 escape_efficiency(cfg.cavity), x_bench, omega,
                                 cfg.detection, acq, 777_000 + s)
        result = fit_trace(trace, guess)
        sigmas.append((result.s_min_sigma_db, result.s_max_sigma_db))
    sigmas = np.asarray(sigmas)
    sigma_ok = bool(np.all((sigmas >= 0.05) & (sigmas <= 0.3)))

    ok = coverage >= 0.90 and sigma_ok and elapsed < 60.0
    assert _report("criterion 7 fit round-trip suite", ok,
                   f"2-sigma coverage {covered}/{total} = {coverage:.3f} (need >= 0.90), "
                   f"grid runtime {elapsed:.1f} s (need < 60); bench-grade sigmas "
                   f"s_min {sigmas[:, 0].min():.3f}..{sigmas[:, 0].max():.3f} dB, "
                   f"s_max {sigmas[:, 1].min():.3f}..{sigmas[:, 1].max():.3f} dB "
                   f"(need within [0.05, 0.3])")


def test_criterion_8_oracle_equivalences(cavity, chain, pump_gain, acquisition):
    alpha = detection_efficiency(chain)
    rho = escape_efficiency(cavity)
    omega = spectral_point(cavity, F0).detuning_parameter
    x = pump_parameter(pump_gain, threshold_power(cavity))
    levels = min_max_levels(alpha, rho, x, omega)
    a_mid = 0.5 * (levels.s_max + levels.s_min)
    b_amp = 0.5 * (levels.s_max - levels.s_min)

    # quadrature vs the analytic Gaussian-moment identity
    analytic_errs = []
    for theta0, sigma in ((math.pi / 2, 0.2), (0.0, 0.1), (0.7, 0.35), (1.1, 0.5)):
        got = jitter_averaged_variance(theta0, sigma, alpha, rho, x, omega)
        want = a_mid + b_amp * math.exp(-2 * sigma * sigma) * math.cos(2 * theta0)
        analytic_errs.append(abs(got - want) / want)
    gh_vs_analytic = max(analytic_errs)

    # quadrature vs brute-force trapezoid integration
    sigma = 0.1
    deltas = np.linspace(-8 * sigma, 8 * sigma, 400_001)
    density = np.exp(-0.5 * (deltas / sigma) ** 2) / (sigma * math.sqrt(2 * math.pi))
    brute = float(np.trapezoid(
        quadrature_variance(math.pi / 2 + deltas, alpha, rho, x, omega) * density, deltas))
    gh = jitter_averaged_variance(math.pi / 2, sigma, alpha, rho, x, omega)
    gh_vs_brute = abs(gh - brute) / brute

    # minimum-uncertainty identity over the pump grid
    product_err = max(
        abs(min_max_levels(1.0, 1.0, float(xv), 0.0).s_min
            * min_max_levels(1.0, 1.0, float(xv), 0.0).s_max - 1.0)
        for xv in np.linspace(0.0, 0.999, 25))

    # dB round trip
    svals = np.logspace(-3, 3, 61)
    db_err = float(np.max(np.abs(from_db(to_db(svals)) - svals) / svals))

    # trace file round trip, bit exact
    trace = synthesize_trace(alpha, rho, x, omega, chain, acquisition, 2024)
    back = parse_trace(serialize_trace(trace))
    trace_exact = (np.array_equal(back.times, trace.times)
                   and np.array_equal(back.powers_db, trace.powers_db)
                   and back.acquisition == trace.acquisition
                   and back.metadata == trace.metadata)

    checks = {
        "GH vs analytic <= 1e-9": gh_vs_analytic <= 1e-9,
        "GH vs trapezoid <= 1e-9": gh_vs_brute <= 1e-9,
        "s_min*s_max - 1 <= 1e-12": product_err <= 1e-12,
        "dB round trip <= 1e-12": db_err <= 1e-12,
        "trace file round trip exact": trace_exact,
    }
    ok = all(checks.values())
    assert _report("criterion 8 oracle equivalences", ok,
                   f"GH/analytic {gh_vs_analytic:.1e}, GH/trapezoid {gh_vs_brute:.1e}, "
                   f"product {product_err:.1e}, dB {db_err:.1e}, file exact {trace_exact} "
                   f"(failing: {[k for k, v in checks.items() if not v] or 'none'})")
