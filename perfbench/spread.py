"""Repeat the benchmark over several seeds and summarize each metric.

    python3 perfbench/spread.py --workload density --seeds 1-10 --seconds 25 \
        [--trace 0] [--out FILE]

For every metric it prints the median, the quartiles from
``statistics.quantiles(values, n=4)`` and their distance as a share of the
median, next to the metric's bound from BENCHMARK.json.  The same summary
of each run's calibration loop, and of pass_p50_s divided by it, tells host
drift from program noise; neither is a metric.  With ``--out`` the raw
results are also written as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys


def seeds(spec: str) -> list:
    if "-" in spec:
        lo, hi = spec.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in spec.split(",")]


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", required=True, help="'1-10' or '3,5,8'")
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--out")
    args = ap.parse_args()

    with open("BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"] + bench["per_layer"]}
    runs = []
    for seed in seeds(args.seeds):
        cmd = bench["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=200)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return 1
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        result["seed"] = seed
        result["log"] = lines[:-1]
        runs.append(result)
        calib = next(ln for ln in lines if ln.startswith("calibration loop"))
        result["calibration_ms"] = float(calib.split()[2])
        print(f"seed {seed}: correct {result['correct']}, attempted {result['attempted']}, "
              f"failed {result['failed']}, calibration {result['calibration_ms']} ms", flush=True)

    series = {name: [r["metrics"][name]["value"] for r in runs] for name in runs[0]["metrics"]}
    series["calibration_ms (diagnostic)"] = [r["calibration_ms"] for r in runs]
    if "pass_p50_s" in series:
        series["pass_p50_s / calibration (diagnostic)"] = [
            r["metrics"]["pass_p50_s"]["value"] / r["calibration_ms"] for r in runs
        ]
    summary = {}
    for name, values in series.items():
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else float("nan")
        summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread, "n": len(values)}
        bound = bounds.get(name)
        flag = "" if bound is None else f"  bound {bound}{'  TOO NOISY' if spread > bound / 3 else ''}"
        print(f"{name:48s} median {med:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}  "
              f"spread {spread:7.4f}{flag}")
    if args.out:
        os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"workload": args.workload, "runs": runs, "summary": summary}, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
