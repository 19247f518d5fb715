"""The three benchmark workloads.

Each workload builds its fixtures and warms up in its constructor (that is
the set-up the benchmark times), draws the inputs of one op from a generator
seeded by ``--seed`` (``next_input``), and runs one op (``run``).  Library
calls go through ``tracer.call`` so that a traced run records one span per
call.  ``run`` returns None when every output check of the op passes, else a
message naming the check that failed.

Counters that later become per-layer metrics are kept in ``counts``; the
workload turns them into metric values in ``layer_counts``.
"""

from __future__ import annotations

import json
import math
import os
import random
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

CONFIG = "configs/ppktp_795nm.cfg"

# The quoted measurement of the bundled set-up and its exact reconciliation.
QUOTED_PAIR_DB = (-2.75, 7.00)
QUOTED_GAIN_SCALE = 0.8210948818794
QUOTED_EFFICIENCY_SCALE = 0.79035084730
QUOTED_TOLERANCE = 1e-9

# `sqzlab predict` on the bundled config, at 4 significant digits.
PREDICT_THRESHOLD_MW = "149.6"
PREDICT_LEVELS_DB = ("-4.356", "8.887")


def _fmt4(value: float) -> str:
    return f"{value:.4g}"


def child_env(root: Path) -> dict:
    """Environment of a child interpreter that imports sqzlab from the checkout."""
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def cli_argv(command: str, config: str, trace_file: str, seed: int) -> list[str]:
    """Arguments of one of the four ``sqzlab`` commands the benchmark runs."""
    return {
        "predict": ["predict", "--config", config, "--circuit-noise", "--format", "json"],
        "synth": ["synth", "--config", config, "--seed", str(seed), "--out", trace_file],
        "fit": ["fit", "--trace", trace_file, "--config", config, "--format", "json"],
        "reconcile": ["reconcile", "--config", config,
                      "--measured", "{},{}".format(*QUOTED_PAIR_DB), "--format", "json"],
    }[command]


def parse_importtime(stderr: str) -> dict[str, float]:
    """Cumulative import time in ms of the sqzlab and scipy trees, read from the
    interpreter's own ``-X importtime`` report.

    The report lists each module after the modules it imported, indented two
    spaces per level; a tree's time is the cumulative time of its outermost
    entries.
    """
    entries = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, field = line.split("|", 2)
        if not cumulative.strip().isdigit():
            continue  # the column header
        name = field[1:]
        depth = (len(name) - len(name.lstrip(" "))) // 2
        entries.append((depth, name.strip(), int(cumulative) / 1e3))
    totals = {"sqzlab": 0.0, "scipy": 0.0}
    ancestors: list[tuple[int, str]] = []
    for depth, name, ms in reversed(entries):  # parents come first in reverse
        while ancestors and ancestors[-1][0] >= depth:
            ancestors.pop()
        root = name.split(".", 1)[0]
        if root in totals and all(a.split(".", 1)[0] != root for _, a in ancestors):
            totals[root] += ms
        ancestors.append((depth, name))
    return totals


class CliSession:
    """One cold ``sqzlab`` subprocess per op, cycling through predict, synth,
    fit and reconcile on the bundled config.

    The child runs the same two lines as the installed ``sqzlab`` console
    script.  In a traced op it runs under ``-X importtime`` and also prints
    three clock readings (start of user code, after import, after main), so
    the op splits into interpreter start, import, CLI work and interpreter
    exit; the clock is the system-wide monotonic clock, shared with this
    process.
    """

    name = "cli_session"
    tail_percentile = 75.0
    shim = "import sys; from sqzlab.cli import main; sys.exit(main())"
    traced_shim = ("import sys, time; t0 = time.perf_counter(); from sqzlab.cli import main; "
                   "t1 = time.perf_counter(); rc = main(); t2 = time.perf_counter(); "
                   "print('perfbench-span', repr(t0), repr(t1), repr(t2), file=sys.stderr); "
                   "sys.exit(rc)")
    commands = ("predict", "synth", "fit", "reconcile")

    def __init__(self, root: Path, seed: int, tmp_dir: Path, tracer):
        self.root = root
        self.env = child_env(root)
        self.rng = random.Random(seed)
        self.trace_file = tmp_dir / "trace.csv"
        self.counts = Counter()
        self.import_ms: list[dict[str, float]] = []
        self.ops = 0
        self.truth_db = None
        error = self.run(self.next_input(), tracer)  # warm-up: the first predict
        if error:
            raise RuntimeError(f"warm-up failed: {error}")

    def next_input(self):
        command = self.commands[self.ops % len(self.commands)]
        self.ops += 1
        return command, self.rng.randrange(2**31)

    def run(self, inp, tracer):
        command, seed = inp
        if tracer.on:
            argv = [sys.executable, "-X", "importtime", "-c", self.traced_shim]
        else:
            argv = [sys.executable, "-c", self.shim]
        start = time.perf_counter()
        argv += cli_argv(command, CONFIG, str(self.trace_file), seed)
        proc = subprocess.run(argv, cwd=self.root, env=self.env,
                              capture_output=True, text=True, timeout=120)
        end = time.perf_counter()
        if proc.returncode != 0:
            return f"{command} exited {proc.returncode}: {proc.stderr.strip()[-300:]}"
        if tracer.on:
            marks = [ln for ln in proc.stderr.splitlines() if ln.startswith("perfbench-span ")]
            t0, t1, t2 = (float(v) for v in marks[-1].split()[1:])
            tracer.add("import.startup", start, t0)
            tracer.add("import.sqzlab", t0, t1)
            tracer.add(f"cli.main.{command}", t1, t2)
            # interpreter exit: module finalization grows with what was imported
            tracer.add("import.teardown", t2, end)
            self.import_ms.append(parse_importtime(proc.stderr))
        return getattr(self, f"_check_{command}")(proc.stdout)

    def _check_predict(self, out: str):
        p = json.loads(out)
        got = (_fmt4(p["threshold_w"] * 1e3), _fmt4(p["s_min_db"]), _fmt4(p["s_max_db"]))
        if got != (PREDICT_THRESHOLD_MW, *PREDICT_LEVELS_DB):
            return f"predict gave P_th/levels {got}"
        self.truth_db = (p["s_min_db"], p["s_max_db"])
        return None

    def _check_synth(self, out: str):
        if not out.startswith("wrote 401 samples") or not self.trace_file.is_file():
            return f"synth wrote no 401-sample trace: {out.strip()!r}"
        return None

    def _check_fit(self, out: str):
        p = json.loads(out)
        self.counts["fits"] += 1
        self.counts["iterations"] += p["iterations"]
        self.counts["converged"] += bool(p["converged"])
        lo, hi = self.truth_db
        if (abs(p["s_min_db"] - lo) < 2 * p["s_min_sigma_db"]
                and abs(p["s_max_db"] - hi) < 2 * p["s_max_sigma_db"]):
            self.counts["covered"] += 1
        return None if p["converged"] else "fit did not converge"

    def _check_reconcile(self, out: str):
        p = json.loads(out)
        self.counts["reconciles"] += 1
        self.counts["exact"] += bool(p["exact_match"])
        if (abs(p["gain_scale"] - QUOTED_GAIN_SCALE) > QUOTED_TOLERANCE
                or abs(p["efficiency_scale"] - QUOTED_EFFICIENCY_SCALE) > QUOTED_TOLERANCE
                or not p["exact_match"]):
            return f"reconcile gave {p['gain_scale']!r}, {p['efficiency_scale']!r}"
        return None

    def layer_counts(self) -> dict[str, float]:
        c = self.counts
        return {
            "fitting.iterations": c["iterations"] / max(c["fits"], 1),
            "fitting.converged_ratio": c["converged"] / max(c["fits"], 1),
            "fitting.coverage_2sigma": c["covered"] / max(c["fits"], 1),
            "fitting.coverage_2sigma.k6667": c["covered"] / max(c["fits"], 1),
            "analysis.exact_match_ratio": c["exact"] / max(c["reconciles"], 1),
        }


class _InProcess:
    """Shared set-up of the in-process workloads: sqzlab from the checkout and
    the bundled config."""

    def __init__(self, root: Path):
        sys.path.insert(0, str(root / "src"))
        import numpy as np
        import sqzlab

        self.np = np
        self.sq = sqzlab
        self.cfg = sqzlab.load_config(root / CONFIG)
        self.counts = Counter()


class RoundtripGrid(_InProcess):
    """synthesize -> serialize -> parse -> initial_guess -> fit, one grid cell per op.

    A pass visits all 72 cells in an order shuffled by the seed, so every pass
    carries the same mix of jittered and jitter-free cells.
    """

    name = "roundtrip_grid"
    tail_percentile = 99.0
    pump_x = (0.2, 0.4, 0.57, 0.7)
    clearances_db = (10.0, 14.0, 20.0)
    jitters_rad = (0.0, 0.05, 0.12)
    vbws_hz = (30.0, 10e3)  # k = 6667 (bundled RBW/VBW) and k = 20

    def __init__(self, root: Path, seed: int, tmp_dir: Path, tracer):
        super().__init__(root)
        sq, cfg = self.sq, self.cfg
        det = cfg.detection
        self.rng = self.np.random.default_rng(seed)
        self.cells = []
        for x in self.pump_x:
            for clearance in self.clearances_db:
                chain = sq.DetectionChain(det.quantum_efficiency, det.visibility,
                                          det.propagation_efficiency, clearance)
                for jitter in self.jitters_rad:
                    for vbw in self.vbws_hz:
                        self.cells.append({
                            "pump": sq.PumpSpec(pump_parameter=x), "chain": chain,
                            "alpha": sq.detection_efficiency(chain), "jitter": jitter,
                            "vbw": vbw,
                        })
        self.order: list[int] = []
        warm_cells = (0, len(self.cells) - 1)  # jitter-free and jittered
        for i in warm_cells:
            error = self.run((i, 1000 + i, 0.3), tracer)
            if error:
                raise RuntimeError(f"warm-up failed: {error}")
        self.counts.clear()

    def next_input(self):
        if not self.order:
            self.order = list(self.rng.permutation(len(self.cells)))
        cell = int(self.order.pop())
        return cell, int(self.rng.integers(2**31)), float(self.rng.uniform(0.0, math.pi))

    @staticmethod
    def _operating_point(sq, cavity, pump, frequency):
        p_th = sq.threshold_power(cavity)
        rho = sq.escape_efficiency(cavity)
        x = sq.pump_parameter(pump, p_th)
        return rho, x, sq.spectral_point(cavity, frequency).detuning_parameter

    def run(self, inp, tracer):
        sq, np = self.sq, self.np
        cell_index, synth_seed, theta0 = inp
        cell = self.cells[cell_index]
        base = self.cfg.acquisition
        acq = sq.AcquisitionSettings(
            base.center_frequency, base.resolution_bandwidth, cell["vbw"], base.sweep_duration,
            base.sample_count, sq.PhaseScan(base.lo_scan.period, theta0, cell["jitter"]))
        rho, x, omega = tracer.call("opo.operating_point", self._operating_point,
                                    sq, self.cfg.cavity, cell["pump"], acq.center_frequency)
        truth = tracer.call("opo.min_max_levels", sq.min_max_levels, cell["alpha"], rho, x, omega)
        trace = tracer.call("detection.synthesize_trace", sq.synthesize_trace,
                            cell["alpha"], rho, x, omega, cell["chain"], acq, synth_seed)
        text = tracer.call("traceio.serialize_trace", sq.serialize_trace, trace)
        back = tracer.call("traceio.parse_trace", sq.parse_trace, text)
        self.counts["traces"] += 1
        self.counts["samples"] += len(trace)
        self.counts["bytes"] += len(text.encode())
        if not (back.times.tobytes() == trace.times.tobytes()
                and back.powers_db.tobytes() == trace.powers_db.tobytes()
                and back.acquisition == trace.acquisition
                and back.shot_reference_db == trace.shot_reference_db
                and back.metadata == trace.metadata):
            return "parse_trace(serialize_trace(t)) differs from t"
        kind = "jitter" if cell["jitter"] > 0.0 else "nojitter"
        clearance = cell["chain"].circuit_noise_clearance_db
        guess = tracer.call(f"fitting.initial_guess.{kind}", sq.initial_guess, back,
                            clearance_db=clearance, omega_norm=omega, jitter_sigma=cell["jitter"])
        result = tracer.call(f"fitting.fit_trace.{kind}", sq.fit_trace, back, guess)
        k = acq.estimator_dof
        self.counts["fits"] += 1
        self.counts[f"fits.k{k}"] += 1
        self.counts["iterations"] += result.iterations
        self.counts["converged"] += result.converged
        if (abs(result.levels.s_min_db - truth.s_min_db) < 2 * result.s_min_sigma_db
                and abs(result.levels.s_max_db - truth.s_max_db) < 2 * result.s_max_sigma_db):
            self.counts["covered"] += 1
            self.counts[f"covered.k{k}"] += 1
        if not result.converged:
            return f"fit did not converge (cell {cell_index}, seed {synth_seed})"
        if not (np.isfinite(result.s_min_sigma_db) and np.isfinite(result.s_max_sigma_db)):
            return f"fit gave a non-finite sigma (cell {cell_index}, seed {synth_seed})"
        return None

    def layer_counts(self) -> dict[str, float]:
        c = self.counts
        fits = max(c["fits"], 1)
        return {
            "detection.samples": c["samples"] / max(c["traces"], 1),
            "traceio.bytes": c["bytes"] / max(c["traces"], 1),
            "fitting.iterations": c["iterations"] / fits,
            "fitting.converged_ratio": c["converged"] / fits,
            "fitting.coverage_2sigma": c["covered"] / fits,
            "fitting.coverage_2sigma.k6667": c["covered.k6667"] / max(c["fits.k6667"], 1),
            "fitting.coverage_2sigma.k20": c["covered.k20"] / max(c["fits.k20"], 1),
        }


class ModelInverse(_InProcess):
    """predict_levels, sweep_pump, reconcile_discrepancy and
    loss_only_explanation_check on one measured level pair per op.

    A cycle of ten ops holds the quoted pair once, seven pairs generated from
    a known in-box (gain_scale, efficiency_scale) and two generated from a
    gain scale beyond the solver's box, which take its boundary branch; the
    seed draws the scales and the order within each cycle.
    """

    name = "model_inverse"
    tail_percentile = 99.0
    cycle = ("quoted",) + ("in_box",) * 7 + ("out_of_box",) * 2
    in_box = ((0.6, 1.4), (0.4, 0.98))
    out_of_box = ((1.6, 2.0), (0.4, 0.95))
    recovery_tolerance = 1e-6
    # straddles the 149.6 mW threshold; the last four rows are above it
    sweep_powers_w = (0.020, 0.040, 0.061, 0.080, 0.100, 0.120, 0.140, 0.149,
                      0.1496, 0.150, 0.170, 0.200)

    def __init__(self, root: Path, seed: int, tmp_dir: Path, tracer):
        super().__init__(root)
        sq, cfg = self.sq, self.cfg
        self.rng = self.np.random.default_rng(seed)
        self.frequency = cfg.acquisition.center_frequency
        self.sweep = [sq.PumpSpec(pump_power=p) for p in self.sweep_powers_w]
        p_th = sq.threshold_power(cfg.cavity)
        self.sweep_valid = [p < p_th for p in sorted(self.sweep_powers_w)]
        self.pending: list[str] = []
        for kind in ("quoted", "in_box", "out_of_box"):
            error = self.run(self._pair(kind), tracer)
            if error:
                raise RuntimeError(f"warm-up failed: {error}")
        self.counts.clear()

    def _pair(self, kind: str):
        sq, cfg = self.sq, self.cfg
        if kind == "quoted":
            measured = sq.VarianceLevels.from_db(*QUOTED_PAIR_DB)
            return kind, QUOTED_GAIN_SCALE, QUOTED_EFFICIENCY_SCALE, measured
        (g_lo, g_hi), (e_lo, e_hi) = self.in_box if kind == "in_box" else self.out_of_box
        g = float(self.rng.uniform(g_lo, g_hi))
        e = float(self.rng.uniform(e_lo, e_hi))
        det = cfg.detection
        chain = sq.DetectionChain(det.quantum_efficiency, det.visibility,
                                  det.propagation_efficiency * e, det.circuit_noise_clearance_db)
        pump = sq.PumpSpec(parametric_gain=g * cfg.pump.parametric_gain)
        measured = sq.predict_levels(cfg.cavity, chain, pump, self.frequency,
                                     include_circuit_noise=True)
        return kind, g, e, measured

    def next_input(self):
        if not self.pending:
            self.pending = [self.cycle[i] for i in self.rng.permutation(len(self.cycle))]
        return self._pair(self.pending.pop())

    def run(self, inp, tracer):
        sq, cfg = self.sq, self.cfg
        kind, g, e, measured = inp
        cavity, chain, pump, f = cfg.cavity, cfg.detection, cfg.pump, self.frequency
        levels = tracer.call("analysis.predict_levels", sq.predict_levels, cavity, chain, pump, f)
        rows = tracer.call("analysis.sweep_pump", sq.sweep_pump, cavity, chain, self.sweep, f)
        box = "out_of_box" if kind == "out_of_box" else "in_box"
        fix = tracer.call(f"analysis.reconcile_discrepancy.{box}", sq.reconcile_discrepancy,
                          measured, cavity, chain, pump, f)
        loss = tracer.call("analysis.loss_only_explanation_check",
                           sq.loss_only_explanation_check, measured, cavity, chain, pump, f)
        self.counts["reconciles"] += 1
        self.counts["iterations"] += fix.iterations
        self.counts["exact"] += fix.exact_match
        if (_fmt4(levels.s_min_db), _fmt4(levels.s_max_db)) != PREDICT_LEVELS_DB:
            return f"predict_levels gave {levels}"
        if [r.valid for r in rows] != self.sweep_valid:
            return "sweep_pump marked the wrong rows valid"
        if not math.isfinite(loss.s_max_error_db):
            return "loss_only_explanation_check gave a non-finite error"
        if kind == "out_of_box":
            if fix.exact_match or not fix.residual_db > 1e-6:
                return f"out-of-box pair g={g!r} e={e!r} matched exactly"
            return None
        tol = QUOTED_TOLERANCE if kind == "quoted" else self.recovery_tolerance
        if (not fix.exact_match or abs(fix.gain_scale - g) > tol
                or abs(fix.efficiency_scale - e) > tol):
            return (f"{kind} pair g={g!r} e={e!r} recovered as "
                    f"{fix.gain_scale!r}, {fix.efficiency_scale!r} (exact={fix.exact_match})")
        return None

    def layer_counts(self) -> dict[str, float]:
        c = self.counts
        return {
            "analysis.reconcile_iterations": c["iterations"] / max(c["reconciles"], 1),
            "analysis.exact_match_ratio": c["exact"] / max(c["reconciles"], 1),
        }


WORKLOADS = {w.name: w for w in (CliSession, RoundtripGrid, ModelInverse)}
