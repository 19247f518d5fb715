"""sqzlab benchmark: run one workload from a seed, check its outputs, print metrics.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload roundtrip_grid --seed 1 --seconds 30 --trace 0

Workloads (closed loop, one client, one process at a time, all on one CPU):

    cli_session     one cold ``sqzlab`` subprocess per op: predict, synth,
                    fit, reconcile on configs/ppktp_795nm.cfg
    roundtrip_grid  synthesize -> serialize -> parse -> initial_guess -> fit
                    over a 72-cell grid, in process
    model_inverse   predict_levels, sweep_pump, reconcile_discrepancy and
                    loss_only_explanation_check on seeded level pairs, in process

``--trace 0`` prints the end-to-end metrics (set-up time is the median of
several fresh workers); ``--trace 1`` prints the per-layer metrics of a run
that alternates untraced and traced blocks.  The last line of standard output
is one JSON object ``{"correct", "attempted", "failed", "metrics"}``; the
lines before it repeat every figure with its unit, the machine and the seed.
The same record, with the failed-op messages, goes to ``perfbench/out``.
The exit code is 0 only when every op passed its output checks.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

from worker import REFERENCE_NOMINAL_S, Speed
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_SAMPLES = 5
WORKER_TIMEOUT_S = 150
REQUIRED = ("src/sqzlab/__init__.py", "src/sqzlab/cli.py", "configs/ppktp_795nm.cfg")


def declared_metrics() -> dict[str, dict[str, str]]:
    """Metric name -> unit for each kind, as BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {kind: {m["name"]: m["unit"] for m in spec[kind]}
            for kind in ("end_to_end", "per_layer")}


def git_commit(root: Path):
    """HEAD of the checkout, read from .git without leaving it; None outside git."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = root / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def source_digest(root: Path) -> str:
    """First 16 hex digits of a hash over the library sources and configs."""
    h = hashlib.sha256()
    sources = sorted((root / "src" / "sqzlab").glob("*.py")) + sorted((root / "configs").glob("*"))
    for path in sources:
        h.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def environment(args) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass

    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "git_commit": git_commit(ROOT),
        "source_sha256_16": source_digest(ROOT),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def launch(args, tmp_dir: Path, setup_only: bool):
    """Start a fresh worker; return its set-up seconds, raw and scaled to
    nominal speed, and its result (None for a set-up-only worker).

    The scale comes from reference-kernel times taken here just before the
    launch and by the worker just after its set-up."""
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--tmp-dir", str(tmp_dir)]
    if setup_only:
        argv.append("--setup-only")
    reference = Speed().samples
    launched = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise SystemExit(f"perfbench: {args.workload} worker timed out")
    lines = out.splitlines()
    marks = {ln.split()[0]: [float(v) for v in ln.split()[1:]] for ln in lines
             if ln.startswith(("READY ", "REFERENCE "))}
    if proc.returncode != 0 or len(marks) != 2:
        raise SystemExit(f"perfbench: {args.workload} worker exited {proc.returncode}")
    setup = marks["READY"][0] - launched
    scale = REFERENCE_NOMINAL_S / statistics.median(reference + marks["REFERENCE"])
    return setup, setup * scale, (None if setup_only else json.loads(lines[-1]))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    declared = declared_metrics()
    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        print(f"perfbench: not a sqzlab source checkout, missing {', '.join(missing)}",
              file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("perfbench: --seconds must be at least 1", file=sys.stderr)
        return 2

    # One CPU for this process, the workers and their children: the reference
    # kernel then times the core that runs the measured code.
    env = environment(args)
    cpu = env["pinned_cpu"] = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    tmp_dir = OUT / f"tmp-{os.getpid()}"
    tmp_dir.mkdir(parents=True, exist_ok=True)
    try:
        workers = []
        if not args.trace:
            workers = [launch(args, tmp_dir, setup_only=True) for _ in range(SETUP_SAMPLES - 1)]
        workers.append(launch(args, tmp_dir, setup_only=False))
        result = workers[-1][2]
        raw_setups = [raw for raw, _, _ in workers]
        setups = [nominal for _, nominal, _ in workers]
    finally:
        for path in tmp_dir.iterdir():
            path.unlink()
        tmp_dir.rmdir()

    worker_metrics = result["metrics"]
    extras = {k: worker_metrics.pop(k) for k in list(worker_metrics) if k.startswith("_")}
    if not args.trace:
        worker_metrics["setup_s"] = statistics.median(setups)
    units = declared["per_layer" if args.trace else "end_to_end"]
    if set(worker_metrics) != set(units):
        raise SystemExit("perfbench: metrics differ from BENCHMARK.json: "
                         f"{sorted(set(worker_metrics) ^ set(units))}")
    metrics = {name: {"value": worker_metrics[name], "unit": unit}
               for name, unit in units.items()}
    attempted, failed = result["attempted"], result["failed"]
    line = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("env " + json.dumps(env))
    absent = set(extras.pop("_absent", ()))
    for name, m in metrics.items():
        note = "  (absent: this workload makes no such call)" if name in absent else ""
        print(f"  {name:44s} {m['value']:.6g} {m['unit']}{note}")
    print(f"  {'failed_ratio':44s} {failed / attempted:.6g} ({failed} of {attempted} ops)")
    if "_tail" in extras:
        tail = extras["_tail"]
        print(f"  latency_tail_ms is p{tail['percentile']:g}: {tail['beyond']} of "
              f"{tail['samples']} samples beyond it")
    if not args.trace:
        print(f"  setup_s is the median of {len(setups)} fresh workers: "
              + ", ".join(f"{s:.4f}" for s in setups)
              + " (raw " + ", ".join(f"{s:.4f}" for s in raw_setups) + ")")
        extras["_raw"]["setup_s"] = statistics.median(raw_setups)
        raw = extras.pop("_raw")
        print("  raw, before scaling to nominal speed: "
              + ", ".join(f"{k} {v:.6g}" for k, v in raw.items()))
        for name, value in sorted(result["counts"].items()):
            print(f"  {name:44s} {value:.6g} (counter, untraced run)")
    for name, value in extras.items():
        if name != "_tail":
            print(f"  {name[1:]:44s} {value}")
    for error in result["errors"]:
        print(f"  FAILED {error}")
    OUT.mkdir(parents=True, exist_ok=True)
    record = dict(line, env=env, setups_s=setups, raw_setups_s=raw_setups,
                  raw=None if args.trace else raw, extras=extras, errors=result["errors"],
                  counts=result.get("counts"), spans_file=result.get("spans_file"))
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
