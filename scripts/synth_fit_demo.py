#!/usr/bin/env python3
"""Synthesize a scanned-phase trace from the bundled configuration, fit it
back, and compare the recovered levels with the configured truth."""

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from sqzlab import (
    fit_trace,
    initial_guess,
    load_config,
    min_max_levels,
    operating_point,
    synthesize_trace,
)

CONFIG = pathlib.Path(__file__).resolve().parents[1] / "configs" / "ppktp_795nm.cfg"


def main(seed: int = 42):
    cfg = load_config(CONFIG)
    acq = cfg.acquisition
    point = operating_point(cfg.cavity, cfg.detection, cfg.pump, acq.center_frequency)
    truth = min_max_levels(*point)

    trace = synthesize_trace(*point, cfg.detection, acq, seed)
    guess = initial_guess(trace, clearance_db=cfg.detection.circuit_noise_clearance_db,
                          omega_norm=point[3], jitter_sigma=acq.lo_scan.jitter_sigma)
    result = fit_trace(trace, guess)

    print(f"seed {seed}: {len(trace)} samples, jitter {acq.lo_scan.jitter_sigma} rad, "
          f"estimator dof {acq.estimator_dof}")
    print(f"truth : s_min {truth.s_min_db:+.3f} dB, s_max {truth.s_max_db:+.3f} dB")
    print(f"fitted: s_min {result.levels.s_min_db:+.3f} +/- {result.s_min_sigma_db:.3f} dB, "
          f"s_max {result.levels.s_max_db:+.3f} +/- {result.s_max_sigma_db:.3f} dB")
    print(f"residual rms {result.residual_rms_db:.3f} dB, "
          f"{result.iterations} iterations, converged={result.converged}")
    pull_min = (result.levels.s_min_db - truth.s_min_db) / result.s_min_sigma_db
    pull_max = (result.levels.s_max_db - truth.s_max_db) / result.s_max_sigma_db
    print(f"pulls: s_min {pull_min:+.2f} sigma, s_max {pull_max:+.2f} sigma")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 42)
