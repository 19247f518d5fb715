"""One benchmark worker: set up one workload, run it closed-loop, report.

Started by ``run.py`` as a fresh interpreter; not meant to be run by hand.
The worker prints ``READY <clock>`` once set-up is done (the clock is the
system-wide monotonic clock that ``run.py`` read when it launched the
worker) and ``REFERENCE <seconds>...``, its first reference-kernel times
(see ``Speed``), then, unless started with ``--setup-only``, runs ops for
``--seconds`` and prints one JSON line with its measurements.

With ``--trace 1`` the timed loop alternates ten blocks with tracing off and
on; spans are kept in memory and written to ``perfbench/out`` at the end,
and a few probes (interpreter start, ``-X importtime``, warm in-process CLI
commands, config parsing) run after the loop.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

from workloads import CONFIG, WORKLOADS, CliSession, child_env, cli_argv, parse_importtime

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
TRACE_BLOCKS = 10
PROBE_REPEATS = 5
REFERENCE_NOMINAL_S = 0.0005
REFERENCE_EVERY_S = 0.05
REFERENCE_WINDOW = 5

# per-call metric -> span name
PER_CALL_SPANS = {
    "opo.operating_point_ms": "opo.operating_point",
    "detection.synthesize_trace_ms": "detection.synthesize_trace",
    "traceio.serialize_trace_ms": "traceio.serialize_trace",
    "traceio.parse_trace_ms": "traceio.parse_trace",
    "fitting.initial_guess_ms.jitter": "fitting.initial_guess.jitter",
    "fitting.initial_guess_ms.nojitter": "fitting.initial_guess.nojitter",
    "fitting.fit_trace_ms.jitter": "fitting.fit_trace.jitter",
    "fitting.fit_trace_ms.nojitter": "fitting.fit_trace.nojitter",
    "analysis.predict_levels_ms": "analysis.predict_levels",
    "analysis.sweep_pump_ms": "analysis.sweep_pump",
    "analysis.reconcile_discrepancy_ms.in_box": "analysis.reconcile_discrepancy.in_box",
    "analysis.reconcile_discrepancy_ms.out_of_box": "analysis.reconcile_discrepancy.out_of_box",
    "analysis.loss_only_explanation_check_ms": "analysis.loss_only_explanation_check",
}
LAYERS = ("import", "cli", "config", "opo", "detection", "traceio", "fitting", "analysis")
# counters a workload reports through layer_counts(); 0 where it has none
COUNT_METRICS = (
    "detection.samples", "traceio.bytes", "fitting.iterations", "fitting.converged_ratio",
    "fitting.coverage_2sigma", "fitting.coverage_2sigma.k6667", "fitting.coverage_2sigma.k20",
    "analysis.reconcile_iterations", "analysis.exact_match_ratio",
)


class Tracer:
    """In-memory spans ``[name, start, end, parent, op]``; parent is the index
    of the op's root span.  With ``on`` false, ``call`` only calls."""

    def __init__(self):
        self.on = False
        self.spans: list[list] = []
        self.root: int | None = None

    def begin(self, op: int, start: float):
        if self.on:
            self.root = len(self.spans)
            self.spans.append(["op", start, start, None, op])

    def end(self, end: float):
        if self.on:
            self.spans[self.root][2] = end
            self.root = None

    def add(self, name: str, start: float, end: float):
        if self.on:
            root = self.spans[self.root]
            self.spans.append([name, start, end, self.root, root[4]])

    def call(self, name, fn, *args, **kwargs):
        if not self.on:
            return fn(*args, **kwargs)
        start = time.perf_counter()
        out = fn(*args, **kwargs)
        self.add(name, start, time.perf_counter())
        return out


def self_times(spans) -> dict[str, float]:
    """Seconds of self time per layer: a span's duration minus what its child
    spans cover.  Root ``op`` spans count as the benchmark's own layer."""
    covered = defaultdict(float)
    for _, start, end, parent, _ in spans:
        if parent is not None:
            covered[parent] += end - start
    layers = defaultdict(float)
    for index, (name, start, end, _, _) in enumerate(spans):
        layer = "bench" if name == "op" else name.split(".", 1)[0]
        layers[layer] += end - start - covered[index]
    return layers


def percentile(sorted_values, pct: float):
    """Nearest-rank percentile and the number of samples beyond it."""
    rank = max(1, math.ceil(pct / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1], len(sorted_values) - rank


def reference_kernel() -> float:
    """Fixed pure-Python work that calls no library code; its duration tracks
    how fast the machine runs at the moment."""
    acc = 0.0
    slots = {}
    for k in range(1500):
        x = (k * 0.37) % 1.0
        slots[k & 63] = x * x + math.sqrt(x + 1.0)
        acc += slots[k & 63]
    return acc


class Speed:
    """Machine speed from the reference kernel, sampled between ops.

    ``scale()`` converts a time measured now to the nominal speed, at which
    the kernel takes REFERENCE_NOMINAL_S: on a shared machine the same code
    runs up to ~1.6x slower for seconds at a time, and the local median of
    the kernel's duration follows those phases.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.next = 0.0
        for _ in range(REFERENCE_WINDOW):
            self.sample()

    def sample(self):
        t0 = time.perf_counter()
        reference_kernel()
        t1 = time.perf_counter()
        self.samples.append(t1 - t0)
        self.next = t1 + REFERENCE_EVERY_S

    def scale(self) -> float:
        """Scale for the op about to start: one new kernel time per
        REFERENCE_EVERY_S, or a whole fresh window after a long op."""
        now = time.perf_counter()
        if now >= self.next:
            stale = now - self.next > REFERENCE_WINDOW * REFERENCE_EVERY_S
            for _ in range(REFERENCE_WINDOW if stale else 1):
                self.sample()
        return REFERENCE_NOMINAL_S / statistics.median(self.samples[-REFERENCE_WINDOW:])

    def run_scale(self) -> float:
        return REFERENCE_NOMINAL_S / statistics.median(self.samples)


def run_loop(workload, tracer: Tracer, speed: Speed, seconds: float, traced: bool):
    """Closed loop: the next op starts when the previous one has finished.

    Per tracing state, ``busy`` sums the wall time of ops and their input
    generation, raw and at nominal speed; latencies are kept for untraced ops.
    """
    latencies = {"raw": [], "nominal": []}
    ops = {False: 0, True: 0}
    busy = {(on, kind): 0.0 for on in (False, True) for kind in ("raw", "nominal")}
    errors = []
    failed = 0
    block = seconds / TRACE_BLOCKS if traced else seconds
    start = block_start = time.perf_counter()
    while True:
        now = time.perf_counter()
        if now - start >= seconds:
            break
        if now - block_start >= block:
            block_start = now
            tracer.on = traced and not tracer.on
        scale = speed.scale()
        c0 = time.perf_counter()
        inp = workload.next_input()
        op = ops[False] + ops[True]
        t0 = time.perf_counter()
        tracer.begin(op, t0)
        try:
            error = workload.run(inp, tracer)
        except Exception as exc:  # any raise is a failed op, counted and reported
            error = f"{type(exc).__name__}: {exc}"
        t1 = time.perf_counter()
        tracer.end(t1)
        ops[tracer.on] += 1
        busy[tracer.on, "raw"] += t1 - c0
        busy[tracer.on, "nominal"] += (t1 - c0) * scale
        if not tracer.on:
            latencies["raw"].append(t1 - t0)
            latencies["nominal"].append((t1 - t0) * scale)
        if error:
            failed += 1
            if len(errors) < 5:
                errors.append(f"op {op}: {error}")
    tracer.on = False
    return latencies, ops, busy, failed, errors


def end_to_end(workload, latencies, ops, busy) -> dict:
    """Throughput and latency at nominal speed; the raw figures go alongside."""
    figures = {}
    for kind in ("nominal", "raw"):
        lat = sorted(latencies[kind])
        tail, beyond = percentile(lat, workload.tail_percentile)
        figures[kind] = {"ops_per_s": ops[False] / busy[False, kind],
                         "latency_p50_ms": statistics.median(lat) * 1e3,
                         "latency_tail_ms": tail * 1e3}
    who = resource.RUSAGE_CHILDREN if workload.name == "cli_session" else resource.RUSAGE_SELF
    return dict(figures["nominal"],
                peak_rss_mb=resource.getrusage(who).ru_maxrss / 1024.0,
                _raw=figures["raw"],
                _tail={"percentile": workload.tail_percentile, "beyond": beyond,
                       "samples": len(lat)})


def _median_ms(samples) -> float:
    return statistics.median(samples) * 1e3 if samples else 0.0


def probe_import() -> dict:
    env = child_env(ROOT)
    startup, trees = [], []
    for _ in range(PROBE_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=env, check=True, timeout=60)
        startup.append(time.perf_counter() - t0)
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import sqzlab.cli"],
                              env=env, capture_output=True, text=True, check=True, timeout=60)
        trees.append(parse_importtime(proc.stderr))
    return {
        "import.python_startup_ms": _median_ms(startup),
        "import.sqzlab_ms": statistics.median(t["sqzlab"] for t in trees),
        "import.scipy_ms": statistics.median(t["scipy"] for t in trees),
    }


def probe_in_process(tmp_dir: Path) -> dict:
    """Warm in-process ``cli.main`` per command, and ``parse_config``."""
    sys.path.insert(0, str(ROOT / "src"))
    from sqzlab import cli, config

    trace_file, cfg = str(tmp_dir / "probe.csv"), str(ROOT / CONFIG)
    metrics = {}
    with contextlib.redirect_stdout(io.StringIO()):
        for name in CliSession.commands:
            samples = []
            for i in range(PROBE_REPEATS + 1):  # the first call warms up
                t0 = time.perf_counter()
                rc = cli.main(cli_argv(name, cfg, trace_file, 7))
                if i:
                    samples.append(time.perf_counter() - t0)
                if rc != 0:
                    raise RuntimeError(f"cli {name} exited {rc}")
            metrics[f"cli.{name}_ms"] = _median_ms(samples)
    text = Path(cfg).read_text(encoding="utf-8")
    samples = []
    for _ in range(10 * PROBE_REPEATS):
        t0 = time.perf_counter()
        config.parse_config(text)
        samples.append(time.perf_counter() - t0)
    metrics["config.parse_config_ms"] = _median_ms(samples)
    return metrics


def per_layer(workload, tracer: Tracer, speed: Speed, ops, busy, tmp_dir: Path) -> dict:
    """Per-layer figures of a traced run; times at the run's nominal speed."""
    spans = tracer.spans
    by_name = defaultdict(list)
    for name, start, end, _, _ in spans:
        by_name[name].append(end - start)
    metrics = {metric: _median_ms(by_name.get(span, ()))
               for metric, span in PER_CALL_SPANS.items()}
    absent = [metric for metric, span in PER_CALL_SPANS.items() if span not in by_name]
    metrics.update(probe_import())
    metrics.update(probe_in_process(tmp_dir))
    scale = speed.run_scale()
    metrics = {name: value * scale for name, value in metrics.items()}
    layers = self_times(spans)
    for layer in LAYERS:
        metrics[f"{layer}.self_share"] = layers.get(layer, 0.0) / busy[True, "raw"]
        if layer not in layers:
            absent.append(f"{layer}.self_share")
    counts = workload.layer_counts()
    for name in COUNT_METRICS:
        metrics[name] = counts.get(name, 0.0)
        if name not in counts:
            absent.append(name)
    traced, untraced = ops[True] / busy[True, "nominal"], ops[False] / busy[False, "nominal"]
    metrics["trace.ops_per_s.traced"] = traced
    metrics["trace.ops_per_s.untraced"] = untraced
    metrics["trace.overhead_ratio"] = traced / untraced
    metrics["bench.reference_kernel_ms"] = statistics.median(speed.samples) * 1e3
    metrics["_absent"] = absent
    metrics["_bench_self_share"] = layers.get("bench", 0.0) / busy[True, "raw"]
    if workload.name == "cli_session" and workload.import_ms:
        metrics["_child_import_ms"] = {
            tree: statistics.median(t[tree] for t in workload.import_ms) * scale
            for tree in ("sqzlab", "scipy")}
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--tmp-dir", type=Path, required=True)
    args = parser.parse_args(argv)

    tracer = Tracer()
    workload = WORKLOADS[args.workload](ROOT, args.seed, args.tmp_dir, tracer)
    print("READY", repr(time.perf_counter()), flush=True)
    speed = Speed()
    print("REFERENCE", *map(repr, speed.samples), flush=True)
    if args.setup_only:
        return 0

    latencies, ops, busy, failed, errors = run_loop(workload, tracer, speed, args.seconds,
                                                    bool(args.trace))
    result = {"attempted": ops[False] + ops[True], "failed": failed, "errors": errors}
    if args.trace:
        result["metrics"] = per_layer(workload, tracer, speed, ops, busy, args.tmp_dir)
        OUT.mkdir(parents=True, exist_ok=True)
        spans_file = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
        with open(spans_file, "w", encoding="utf-8") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")
        result["spans_file"] = str(spans_file.relative_to(ROOT))
    else:
        result["metrics"] = end_to_end(workload, latencies, ops, busy)
        result["counts"] = workload.layer_counts()
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
