"""Run train, predict and interference untraced and print the end-to-end
metrics under their per-workload names, with units.

    python3 perfbench/report.py --seed 0 --seconds 25

Each workload runs in its own process, one after the other, so the peak
resident set and BLAS threads are per workload.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("train", "predict", "interference")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=25)
    args = p.parse_args(argv)
    ok, env = True, None
    for workload in WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"],
            cwd=HERE.parent, capture_output=True, text=True, timeout=180,
        )
        if done.returncode != 0:
            print(f"{workload}: exited {done.returncode}\n{done.stderr}")
            ok = False
            continue
        lines = done.stdout.strip().splitlines()
        record, result = json.loads(lines[-2]), json.loads(lines[-1])
        ok &= result["correct"]
        env, tail = record["env"], record["tail"]
        print(f"{workload}: {result['attempted']} attempted, {result['failed']} failed, "
              f"{tail['samples']} timed ops, tail = p{tail['percentile']} "
              f"({tail['beyond']} beyond)")
        for name, (value, unit) in record["named"].items():
            print(f"  {name:32s} {value:14.6g} {unit}")
        for problem in record["problems"]:
            print(f"  problem: {problem}")
    print(json.dumps(env) if ok else "some workload failed")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
