#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

Usage (from the repository root):

    python3 bench/spread.py --workload screen-germs --seeds 1-10 [--trace 1] [--out FILE]

For every metric it prints the median of the runs, the quartiles from
``statistics.quantiles(values, n=4)`` and their distance as a share of the
median, next to the metric's bound in ``BENCHMARK.json`` where it has one.
``--out`` appends the summary, with the machine it ran on, to a JSON file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_list(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int, traced: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(traced)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out")
    args = p.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    runs = []
    for seed in seed_list(args.seeds):
        start = time.perf_counter()
        result = run_once(args.workload, seed, args.seconds, args.trace)
        if not result["correct"]:
            print(f"seed {seed}: incorrect result {result}", file=sys.stderr)
            return 1
        runs.append(result)
        print(f"seed {seed} ({time.perf_counter() - start:.0f} s): "
              + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
              flush=True)
    summary = {}
    for name, first in runs[0]["metrics"].items():
        vals = [r["metrics"][name]["value"] for r in runs]
        q1, _, q3 = statistics.quantiles(vals, n=4)
        median = statistics.median(vals)
        spread = (q3 - q1) / median if median else 0.0
        summary[name] = {"median": median, "q1": q1, "q3": q3, "spread": spread,
                         "unit": first["unit"]}
        line = f"{name:40s} median {median:.4g} q1 {q1:.4g} q3 {q3:.4g} spread {spread:.3f}"
        if name in bounds:
            summary[name]["bound"] = bounds[name]
            line += f" bound {bounds[name]} {'ok' if spread < bounds[name] / 3 else 'WIDE'}"
        print(line)
    if args.out:
        entry = {
            "workload": args.workload,
            "seeds": args.seeds,
            "seconds": args.seconds,
            "trace": args.trace,
            "machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                        "cpu": platform.processor() or platform.machine()},
            "metrics": summary,
        }
        data = []
        if os.path.exists(args.out):
            with open(args.out, encoding="utf-8") as fh:
                data = json.load(fh)
        data.append(entry)
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(data, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
