"""One workload process: set up, report readiness, run passes, report.

Started by ``run.py`` with ``src`` on ``PYTHONPATH``.  It prints ``ready``
once gibbslab is imported, then runs the fixed sequence of passes and prints
one JSON line with the raw figures.  With ``--trace`` it runs every pass a
second time with the tracer installed.  With ``--setup-only`` it exits right
after ``ready``.  The process keeps to one CPU, so it is not moved between
the host's CPUs during a run.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

import workloads  # noqa: E402
from gibbslab import errors, harness  # noqa: E402


def calibration_s() -> float:
    """Time of a fixed pure-Python loop; a host-speed diagnostic."""
    t = time.perf_counter()
    acc = 0
    for k in range(200_000):
        acc += k % 7
    return time.perf_counter() - t


def run_pass(name, seed, i, root, stats, fp):
    """Time pass ``i`` and check it; returns (seconds, problems)."""
    steps_fn, check_fn = workloads.WORKLOADS[name]
    steps = steps_fn(seed, i)
    out_dirs = [tempfile.mkdtemp(prefix=f"p{i}-{k}-", dir=root) for k in range(len(steps))]
    problems = []
    gc.collect()
    t0 = time.perf_counter()
    try:
        results = [harness.run(sub, cfg, out, rs) for (sub, cfg, rs), out in zip(steps, out_dirs)]
    except errors.GibbslabError as exc:
        results = None
        problems.append(f"{type(exc).__name__}: {exc}")
    except Exception:  # a raw traceback is a program defect; count it and go on
        results = None
        problems.append(traceback.format_exc())
    elapsed = time.perf_counter() - t0
    if results is not None:
        try:
            problems += check_fn(results, out_dirs, stats)
        except (OSError, KeyError, ValueError, IndexError, TypeError) as exc:
            problems.append(f"check could not read the outputs: {exc!r}")
        for out in out_dirs:
            for fname in sorted(os.listdir(out)):
                stats["artifact_bytes"] += os.path.getsize(os.path.join(out, fname))
            with open(os.path.join(out, "manifest.txt"), "rb") as fh:
                fp.update(fh.read())
    if problems:
        fp.update(f"pass {i} failed\n".encode())
    for out in out_dirs:
        shutil.rmtree(out)
    return elapsed, problems


class Series:
    """Times, failures, checks and fingerprint of one sequence of passes."""

    def __init__(self):
        self.stats = {"z": [], "malformed_rows": 0, "artifact_bytes": 0, "problems": []}
        self.times, self.failed = [], 0
        self.fp = hashlib.sha256()

    def run(self, name, seed, i, root) -> float:
        elapsed, problems = run_pass(name, seed, i, root, self.stats, self.fp)
        self.times.append(elapsed)
        if problems:
            self.failed += 1
            if len(self.stats["problems"]) < 5:
                self.stats["problems"].append(f"pass {i}: " + "; ".join(problems))
        return elapsed

    def report(self) -> dict:
        out = dict(self.stats, times=self.times, failed=self.failed, fingerprint=self.fp.hexdigest())
        out["max_z"] = max(out.pop("z"), default=0.0)
        return out


def run_passes(name, seed, n_passes, root, tracer=None) -> dict:
    """Run passes 0..n_passes-1; returns the raw figures.

    With a tracer every pass runs twice, untraced and traced, in alternating
    order, so host drift falls alike on both and ``overhead_s`` is the
    median of the per-pass differences.
    """
    plain, traced, calibration, overhead = Series(), Series(), [], []
    for i in range(n_passes):
        if tracer is None:
            plain.run(name, seed, i, root)
        else:
            tracer.pass_id = i
            elapsed = {}
            for series in ((plain, traced) if i % 2 == 0 else (traced, plain)):
                if series is traced:
                    tracer.install()
                try:
                    elapsed[series is traced] = series.run(name, seed, i, root)
                finally:
                    tracer.uninstall()
            overhead.append(elapsed[True] - elapsed[False])
        calibration.append(calibration_s())
    report = plain.report()
    report["calibration_s"] = statistics.median(calibration)
    if tracer is not None:
        report["traced"] = traced.report()
        report["overhead_s"] = statistics.median(overhead)
    return report


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--passes", type=int, required=True)
    ap.add_argument("--work-dir", required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
    print("ready", flush=True)
    if args.setup_only:
        return 0

    os.makedirs(args.work_dir, exist_ok=True)
    root = tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=args.work_dir)
    try:
        report = run_passes(args.workload, args.seed, args.passes, root, tracer)
        if tracer is not None:
            spans_path = os.path.join(args.work_dir, f"spans-{args.workload}-{args.seed}.csv")
            tracer.write_spans(spans_path)
            report.update(
                layer_metrics=tracer.metrics(),
                missing_heavy=tracer.missing_heavy(args.workload),
                spans=spans_path,
            )
    finally:
        shutil.rmtree(root, ignore_errors=True)
    report.update(
        gibbslab=os.path.dirname(harness.__file__),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
