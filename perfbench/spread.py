"""Run-to-run spread of the end-to-end metrics, one seed per run.

    python3 perfbench/spread.py --workloads train predict interference --runs 10

Runs the benchmark command from BENCHMARK.json sequentially, each run with
another seed, and prints for every end-to-end metric the median, the
quartiles and the interquartile distance as a share of the median, next to
a third of the metric's bound (the target for a steady benchmark).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def one_run(cmd, workload, seed, seconds) -> dict:
    argv = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=180)
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {done.returncode}: {done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed} incorrect: {done.stdout}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads", nargs="+", default=[w["name"] for w in bench["workloads"]])
    p.add_argument("--runs", type=int, default=10)
    # seeds 0-9 have shipped references (refs/), so every check applies
    p.add_argument("--first-seed", type=int, default=0)
    args = p.parse_args(argv)
    bounds = {e["name"]: e["bound"] for e in bench["end_to_end"]}
    steady = True
    for workload in args.workloads:
        runs = []
        for k in range(args.runs):
            runs.append(one_run(bench["command"], workload, args.first_seed + k,
                                bench["run_seconds"]))
            print(f"{workload} seed {args.first_seed + k}: {runs[-1]}", flush=True)
        for name, bound in bounds.items():
            vals = [r[name] for r in runs]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            share = (q3 - q1) / med
            ok = share < bound / 3
            steady &= ok
            print(f"{workload:13s} {name:14s} median {med:.5g}  q1 {q1:.5g}  q3 {q3:.5g}"
                  f"  spread {share:.4f}  bound/3 {bound / 3:.4f}  {'ok' if ok else 'WIDE'}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
