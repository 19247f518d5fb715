#!/usr/bin/env python3
"""Full analysis chain for the bundled 795 nm PPKTP OPO configuration.

Prints the derived cavity/detection quantities, the predicted
squeezing/anti-squeezing levels with and without the electronic-noise
correction, and the reconciliation of the model against the measured
levels (-2.75, +7.00) dB.
"""

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from sqzlab import (
    VarianceLevels,
    cavity_decay_rate,
    load_config,
    loss_only_explanation_check,
    operating_point,
    predict_levels,
    reconcile_discrepancy,
    sweep_pump,
    threshold_power,
    PumpSpec,
)

CONFIG = pathlib.Path(__file__).resolve().parents[1] / "configs" / "ppktp_795nm.cfg"
MEASURED = VarianceLevels.from_db(-2.75, 7.00)


def main():
    cfg = load_config(CONFIG)
    f_hz = cfg.acquisition.center_frequency

    p_th = threshold_power(cfg.cavity)
    gamma = cavity_decay_rate(cfg.cavity)
    alpha, rho, x, omega_norm = operating_point(cfg.cavity, cfg.detection, cfg.pump, f_hz)

    print("== derived parameters ==")
    print(f"threshold power      P_th  = {p_th * 1e3:.4g} mW")
    print(f"escape efficiency    rho   = {rho:.4g}")
    print(f"detection efficiency alpha = {alpha:.4g}")
    print(f"cavity decay rate    gamma = {gamma:.4g} rad/s")
    print(f"detuning parameter   Omega = {omega_norm:.4g}")
    print(f"pump parameter       x     = {x:.4g}  (from G = {cfg.pump.parametric_gain})")

    raw = predict_levels(cfg.cavity, cfg.detection, cfg.pump, f_hz)
    obs = predict_levels(cfg.cavity, cfg.detection, cfg.pump, f_hz, include_circuit_noise=True)
    print("\n== predicted levels ==")
    print(f"squeezing      {raw.s_min_db:+.4g} dB   (observed against measured shot noise: {obs.s_min_db:+.4g} dB)")
    print(f"anti-squeezing {raw.s_max_db:+.4g} dB   (observed against measured shot noise: {obs.s_max_db:+.4g} dB)")

    print("\n== gain sweep (theory) ==")
    gains = [2.0, 2.8, 3.6, 4.4, 5.3, 6.0, 6.7, 7.5, 8.2, 9.0]
    rows = sweep_pump(cfg.cavity, cfg.detection,
                      [PumpSpec(parametric_gain=g) for g in gains], f_hz)
    print("power_mW   gain     s_min_dB   s_max_dB")
    for r in rows:
        print(f"{r.pump_power * 1e3:8.4g} {r.parametric_gain:6.3g}   "
              f"{r.predicted.s_min_db:+9.4g} {r.predicted.s_max_db:+10.4g}")

    print("\n== reconciliation against measured (-2.75, +7.00) dB ==")
    rec = reconcile_discrepancy(MEASURED, cfg.cavity, cfg.detection, cfg.pump, f_hz)
    print(f"gain_scale           = {rec.gain_scale:.4g} (corrected G = {rec.corrected_gain:.4g})")
    print(f"amplitude_gain_scale = {rec.amplitude_gain_scale:.4g}")
    print(f"efficiency_scale     = {rec.efficiency_scale:.4g}")
    print(f"residual             = {rec.residual_db:.3g} dB")
    loss = loss_only_explanation_check(MEASURED, cfg.cavity, cfg.detection, cfg.pump, f_hz)
    verdict = "feasible" if loss.feasible else "infeasible"
    print(f"loss-only explanation: {verdict} "
          f"(anti-squeezing error {loss.s_max_error_db:+.3g} dB at efficiency scale {loss.efficiency_scale:.4g})")


if __name__ == "__main__":
    main()
