"""gibbslab benchmark: three workloads driven through ``gibbslab.harness.run``.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload density --seed 1 --seconds 25 --trace 0

``--trace 0`` prints the end-to-end metrics of the workload, ``--trace 1``
the per-layer metrics of a separate traced run.  Human-readable lines come
first; the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See
``perfbench/README.md`` for the workloads, the metrics and the baseline.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True

from workloads import WORKLOADS  # noqa: E402

# nominal seconds per untraced pass on a 2-vCPU VM, used only to turn
# --seconds into a fixed pass count, so a run's work does not depend on speed
NOMINAL_PASS_S = {"density": 0.9, "expansion": 0.95, "gibbs": 0.9}
MIN_PASSES = 21
SETUP_PROBES = 15
WORK_DIR = os.path.join(".bench_build", "perfbench")
RUN_LIMIT_S = 170.0

WORKER_ENV = {
    "PYTHONHASHSEED": "0",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


class BenchError(Exception):
    pass


def worker_env(src: str) -> dict:
    env = dict(os.environ)
    env.update(WORKER_ENV)
    env["PYTHONPATH"] = src
    # bytecode of every module, numpy and scipy included, is read from and
    # written to this cache only, so what src/ holds does not change set-up
    env["PYTHONPYCACHEPREFIX"] = os.path.abspath(os.path.join(WORK_DIR, "pycache"))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def start_worker(args: list, env: dict, timeout: float):
    """Start worker.py; returns (process, seconds until it printed 'ready')."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "worker.py")] + args,
        stdout=subprocess.PIPE, env=env, text=True,
    )
    line = proc.stdout.readline()
    ready_s = time.perf_counter() - t0
    if line.strip() != "ready":
        finish(proc, timeout)
        raise BenchError(f"workload process did not start (exit code {proc.returncode})")
    return proc, ready_s


def finish(proc, timeout: float) -> str:
    """Wait for the worker to end; returns the rest of its standard output."""
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("workload process exceeded its time limit")
    return out


def tail(times: list):
    """Highest percentile with at least ten passes beyond it.

    Returns (value, percentile, passes beyond it); with ten passes or fewer
    there is no such percentile and the maximum is returned.
    """
    ordered = sorted(times)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, 0
    return ordered[n - 11], 100.0 * (n - 10) / n, 10


def measure(args, src: str) -> dict:
    env = worker_env(src)
    n_passes = max(MIN_PASSES, round(args.seconds / NOMINAL_PASS_S[args.workload]))
    if args.trace:
        # each pass untraced and traced, about --seconds in all
        n_passes = max(5, n_passes // 3)
    common = [
        "--workload", args.workload, "--seed", str(args.seed), "--work-dir", WORK_DIR,
        "--passes", str(n_passes),
    ]
    started = time.perf_counter()
    setups = []
    # the first probe, untimed, fills the bytecode cache
    for probe in range(0 if args.trace else SETUP_PROBES + 1):
        proc, ready_s = start_worker(common + ["--setup-only"], env, 120)
        finish(proc, 60)
        if proc.returncode != 0:
            raise BenchError(f"set-up probe exited with code {proc.returncode}")
        if probe:
            setups.append(ready_s)
    proc, _ = start_worker(common + (["--trace"] if args.trace else []), env, 120)
    out = finish(proc, max(RUN_LIMIT_S - (time.perf_counter() - started), 10.0))
    if proc.returncode != 0 or not out.strip():
        raise BenchError(f"workload process exited with code {proc.returncode}")
    report = json.loads(out.strip().splitlines()[-1])
    if os.path.realpath(report["gibbslab"]) != os.path.realpath(os.path.join(src, "gibbslab")):
        raise BenchError(f"imported gibbslab from {report['gibbslab']}, not from {src}")
    report["setups"] = setups
    return report


def end_to_end(report: dict):
    """Metrics of an untraced run: (metrics, attempted, failed, correct, notes)."""
    times = report["times"]
    attempted, failed = len(times), report["failed"]
    tail_s, pct, beyond = tail(times)
    metrics = {
        "pass_p50_s": {"value": statistics.median(times), "unit": "s"},
        "pass_tail_s": {"value": tail_s, "unit": "s"},
        "setup_s": {"value": statistics.median(report["setups"]), "unit": "s"},
        "peak_rss_mb": {"value": report["peak_rss_mb"], "unit": "MB"},
        "ok_frac": {"value": 1.0 - failed / attempted, "unit": "fraction"},
    }
    notes = [
        f"passes {attempted}, failed {failed}, "
        f"failed_frac {failed / attempted:.4f}",
        f"pass_tail_s is the p{pct:.1f} pass time ({attempted} passes, {beyond} beyond it)",
        "setup_s samples: " + ", ".join(f"{s:.4f}" for s in report["setups"]),
    ]
    return metrics, attempted, failed, failed == 0, notes


def per_layer(report: dict):
    """Metrics of a traced run: (metrics, attempted, failed, correct, notes)."""
    traced = report["traced"]
    traced_p50 = statistics.median(traced["times"])
    metrics = dict(report["layer_metrics"])
    metrics["harness.artifact_bytes"] = {"value": traced["artifact_bytes"], "unit": "bytes"}
    metrics["harness.malformed_rows"] = {"value": traced["malformed_rows"], "unit": "count"}
    metrics["trace.passes"] = {"value": len(traced["times"]), "unit": "count"}
    metrics["trace.pass_p50_s"] = {"value": traced_p50, "unit": "s"}
    metrics["trace.overhead_s"] = {"value": report["overhead_s"], "unit": "s"}
    missing = report["missing_heavy"]
    same_bytes = traced["fingerprint"] == report["fingerprint"]
    notes = [f"spans written to {report['spans']}"]
    if missing:
        notes.append("heavy layer functions with zero calls: " + ", ".join(missing))
    if not same_bytes:
        notes.append("traced passes wrote different artifacts than the untraced ones")
    failed = traced["failed"]
    correct = failed == 0 and report["failed"] == 0 and not missing and same_bytes
    return metrics, len(traced["times"]), failed, correct, notes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = os.path.abspath("src")
    if not os.path.isfile(os.path.join(src, "gibbslab", "harness.py")):
        print("perfbench: run from the root of a gibbslab checkout (no src/gibbslab here)",
              file=sys.stderr)
        return 2
    try:
        report = measure(args, src)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    metrics, attempted, failed, correct, notes = (per_layer if args.trace else end_to_end)(report)
    print(f"workload {args.workload}, seed {args.seed}, gibbslab from {src}")
    for problem in report["problems"] + report.get("traced", {}).get("problems", []):
        print(f"check failed: {problem}")
    for note in notes:
        print(note)
    print(f"fingerprint {report['fingerprint']}")
    print(f"calibration loop {report['calibration_s'] * 1000:.3f} ms "
          "(median after each pass; a host-speed diagnostic, not a metric)")
    print(f"largest check statistic {report['max_z']:.3f} (threshold 4)")
    for name, m in metrics.items():
        print(f"  {name:48s} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps({
        "correct": bool(correct), "attempted": attempted, "failed": failed, "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
