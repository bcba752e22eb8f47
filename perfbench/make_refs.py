"""Write the reference outputs the benchmark checks its workloads against.

    python3 perfbench/make_refs.py            # fixed network, seeds 0-9
    python3 perfbench/make_refs.py --seeds 5

``refs/fixed.json`` holds the loss, output sum and gradient norm of the
seed-independent fixed network (workloads.gate_fixed_network). For each
seed: the per-center losses and gradient norms of the first
TRAIN_STEPS train steps (warm-up included), the PSNR of every predict volume
and the prediction residual of the first, and every interference matrix, as
produced by the code in this checkout. Regenerate them only when
a change is meant to alter these outputs, and say so in the change.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import shutil
import sys

import run

TRAIN_STEPS = 24


def reference(m, seed: int) -> dict:
    import workloads as W

    work = run.WORK / f"refs-seed{seed}-pid{os.getpid()}"
    try:
        setup, _ = W.set_up(m, work, seed)
        train = W.Train(m, setup, seed, None)
        for _ in range(TRAIN_STEPS):
            if train.run_op():
                raise W.BenchError("train step failed")
        predict = W.Predict(m, setup, seed, None)
        for _ in predict.tests:
            if predict.run_op():
                raise W.BenchError("predict failed")
        interference = W.Interference(m, setup, seed, None)
        if interference.run_op():
            raise W.BenchError("interference failed")
        matrices = {
            label: [[float(x) for x in row] for row in
                    list(csv.reader(io.StringIO(blob.decode())))[1:]]
            for label, blob in sorted(interference.first.items())
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return {
        "seed": seed,
        "train_losses": train.losses,
        "train_grad_norms": train.grad_norms,
        "predict_psnr": [predict.psnr[i] for i in range(len(predict.tests))],
        "predict_residual_l1": predict.residual_l1,
        "interference": matrices,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", type=int, nargs="+", default=list(range(10)))
    args = p.parse_args(argv)
    m = run.import_drmc(len(os.sched_getaffinity(0)))
    import workloads as W

    run.REFS.mkdir(exist_ok=True)
    refs = {"fixed": {k: v for k, v in W.fixed_network_values(m).items()
                      if not k.startswith("directional_")}}
    for seed in args.seeds:
        refs[f"seed{seed}"] = reference(m, seed)
    for name, ref in refs.items():
        path = run.REFS / f"{name}.json"
        path.write_text(json.dumps(ref) + "\n")
        print(f"wrote {path.relative_to(run.ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
