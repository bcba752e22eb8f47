"""drmc benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload train --seed 0 --seconds 25 --trace 0

Run from the root of a checkout; the benchmark imports drmc from ``src/``
there and nowhere else. BLAS threads are capped at the number of usable
cores. Each run sets up SETUP_REPEATS times (median reported as setup_s) and
runs the correctness gates, in a child process when untraced, so that
peak_rss_mb is the workload's own; then it runs one untimed warm-up
operation (the first operation is markedly slower, so it is excluded) and:

- ``--trace 0``: runs operations back to back for ``--seconds`` and prints
  the end-to-end metrics;
- ``--trace 1``: runs set-up, gates, warm-up and a fixed number of
  operations in this process under the outside-in tracer, each traced
  operation followed by an untraced one with every wrapper removed, and
  prints the per-layer metrics. The fixed count makes every count in them
  repeat exactly for a seed.

Outputs are checked against ``refs/seed<N>.json`` when one is shipped for
the seed (seeds 0-9), and every run, whatever its seed, passes the
seed-independent fixed-network gate against ``refs/fixed.json``.

Standard output ends with two JSON lines: a record of the environment and
run, then the result object.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path

from stats import highest_tail_percentile, samples_beyond

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
DRMC_MODULES = ("tensor", "model", "training", "analysis", "data", "volio", "config", "cli")
# Operations per traced run.
TRACE_OPS = {"train": 4, "predict": 16, "interference": 2}
# Fewest timed operations a run of run_seconds (BENCHMARK.json) holds on a
# slow 2-core host. op_tail_s is the highest percentile with at least ten
# samples beyond it at that count (stats.highest_tail_percentile): p75 for
# predict; train and interference have too few operations for any
# percentile, so they report the maximum.
MIN_OPS = {"train": 8, "predict": 50, "interference": 5}
TAIL_Q = {w: highest_tail_percentile(n) or 100 for w, n in MIN_OPS.items()}
_now = time.perf_counter
REFS = HERE / "refs"
CHILD_TIMEOUT_S = 150


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("train", "predict", "interference"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=25)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: build the set-up and run the gates in this directory, then exit
    p.add_argument("--setup-dir", type=Path, help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def import_drmc(nproc: int) -> dict:
    """Cap BLAS threads, then import drmc from this checkout's src/."""
    if not (SRC / "drmc" / "__init__.py").is_file():
        raise SystemExit(f"error: no drmc package under {SRC}; run from a checkout")
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(nproc)
    sys.path.insert(0, str(SRC))
    import importlib

    mods = {name: importlib.import_module(f"drmc.{name}") for name in DRMC_MODULES}
    if Path(mods["tensor"].__file__).resolve().parent != (SRC / "drmc").resolve():
        raise SystemExit(f"error: drmc imported from {mods['tensor'].__file__}, not {SRC}")
    return mods


def env_record(nproc: int) -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    digest = hashlib.sha256()
    for f in sorted((SRC / "drmc").glob("*.py")):
        digest.update(f.name.encode() + b"\0" + f.read_bytes())
    commit = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            ref = ref_file.read_text().strip() if ref_file.is_file() else None
        commit = ref
    return {
        "nproc": nproc,
        "blas": blas,
        "blas_threads": nproc,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def run_ops(wl, tracer=None, seconds=None, count=None):
    """Run operations for ``seconds`` or ``count`` of them; return their
    durations, the window length and every problem found."""
    durations, problems, failed = [], [], 0
    start = _now()
    while (len(durations) < count) if count is not None else (_now() - start < seconds):
        t0 = _now()
        idx = tracer.open("bench.op") if tracer else None
        try:
            found = wl.run_op()
        except Exception as e:  # a failing operation is counted; the run goes on
            found = [f"{type(e).__name__}: {e}"]
        finally:
            if tracer:
                tracer.close(idx)
        durations.append(_now() - t0)
        if found:
            failed += 1
            problems += found
    return durations, _now() - start, failed, problems


def _gate(fn, *args) -> list[str]:
    try:
        return fn(*args)
    except Exception as e:  # a raising gate is a failed check, reported below
        return [f"{fn.__name__}: {type(e).__name__}: {e}"]


def _phase(tracer):
    """Span factory for the run's phases: the tracer's, or a no-op."""
    return tracer.span if tracer else (lambda name: contextlib.nullcontext())


def setup_and_gates(m, seed: int, work: Path, tracer=None):
    """Set-up (SETUP_REPEATS times) and the correctness gates.
    Returns (set-up, set-up times, one problem list per gate)."""
    import workloads as W

    phase = _phase(tracer)
    with phase("bench.setup"):
        setup, setup_times = W.set_up(m, work, seed)
    with phase("bench.gates"):
        gates = [_gate(W.gate_identity_at_init, m, setup),
                 _gate(W.gate_checkpoint_fit, m, setup, seed),
                 _gate(W.gate_fixed_network, m, W.load_reference(REFS / "fixed.json"))]
    return setup, setup_times, gates


def setup_in_child(workload: str, seed: int, work: Path):
    """Set-up and gates in a child process, so that the peak resident set
    of this process is that of the workload alone. The child leaves the
    set-up on disk and its times and gate results in ``work/setup.json``."""
    import workloads as W

    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--setup-dir", str(work)],
        cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if done.returncode != 0:
        raise SystemExit(f"error: set-up exited with {done.returncode}:\n{done.stderr}")
    out = json.loads((work / "setup.json").read_text())
    return W.Setup(work), out["setup_times"], out["gates"]


def prepare(m, workload: str, seed: int, work: Path, tracer=None):
    """Set-up, gates, workload construction and its warm-up operation.
    Untraced, set-up and gates run in a child process; traced, they run here
    under the tracer. Returns (workload, set-up times, attempted, failed,
    problems, name of the seed's reference file or None)."""
    import workloads as W

    if tracer is None:
        setup, setup_times, gates = setup_in_child(workload, seed, work)
        setup.load(m)
    else:
        setup, setup_times, gates = setup_and_gates(m, seed, work, tracer)
    ref_path = REFS / f"seed{seed}.json"
    ref = W.load_reference(ref_path)
    phase = _phase(tracer)
    with phase("bench.warmup"):
        wl = W.WORKLOADS[workload](m, setup, seed, ref)
        warm = _gate(wl.run_op)
    checks = gates + [warm]
    problems = [p for c in checks for p in c]
    ref_name = str(ref_path.relative_to(ROOT)) if ref is not None else None
    return wl, setup_times, len(checks), sum(1 for c in checks if c), problems, ref_name


def end_to_end(workload, durations, window, setup_times):
    import numpy as np

    n, q = len(durations), TAIL_Q[workload]
    metrics = {
        "setup_s": (float(np.median(setup_times)), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "op_p50_s": (float(np.median(durations)), "s"),
        "op_tail_s": (float(np.percentile(durations, q)), "s"),
        "ops_per_min": (60.0 * n / window, "1/min"),
    }
    tail = {"percentile": q, "samples": n, "beyond": samples_beyond(n, q)}
    return metrics, tail


def named_metrics(workload, wl, metrics, attempted, failed) -> dict:
    """The end-to-end metrics under their per-workload names."""
    p50, tail = metrics["op_p50_s"][0], metrics["op_tail_s"][0]
    per_s = metrics["ops_per_min"][0] / 60.0
    out = {
        "setup_s": [metrics["setup_s"][0], "s"],
        "peak_rss_mb": [metrics["peak_rss_mb"][0], "MB"],
        "failed_frac": [failed / attempted, "fraction"],
    }
    if workload == "train":
        out["step_p50_s"] = [p50, "s"]
        out["step_tail_s"] = [tail, "s"]
        out["train_patches_per_s"] = [per_s * wl.per_op["patches"], "patch/s"]
    elif workload == "predict":
        out["volume_p50_s"] = [p50, "s"]
        out["volume_tail_s"] = [tail, "s"]
        out["predict_voxels_per_s"] = [per_s * wl.per_op["voxels"], "voxel/s"]
    else:
        out["interference_set_p50_s"] = [p50, "s"]
        out["interference_matrices_per_min"] = [60 * per_s * wl.per_op["matrices"], "1/min"]
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    nproc = len(os.sched_getaffinity(0))
    m = import_drmc(nproc)
    sys.path.insert(0, str(HERE))
    if args.setup_dir is not None:
        _, setup_times, gates = setup_and_gates(m, args.seed, args.setup_dir)
        (args.setup_dir / "setup.json").write_text(
            json.dumps({"setup_times": setup_times, "gates": gates}))
        return 0
    work = WORK / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    info = {"env": env_record(nproc), "workload": args.workload, "seed": args.seed,
            "trace": args.trace, "warmup_ops_excluded": 1}
    try:
        if args.trace:
            metrics, attempted, failed, problems = traced_run(m, args, work, info)
        else:
            wl, setup_times, attempted, failed, problems, info["reference"] = prepare(
                m, args.workload, args.seed, work)
            durations, window, op_failed, op_problems = run_ops(wl, seconds=args.seconds)
            attempted += len(durations)
            failed += op_failed
            problems += op_problems
            metrics, info["tail"] = end_to_end(
                args.workload, durations, window, setup_times)
            info["setup_times"] = setup_times
            info["named"] = named_metrics(args.workload, wl, metrics, attempted, failed)
            info["ops"] = len(durations)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    info["problems"] = problems[:20]
    print(json.dumps(info))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def traced_run(m, args, work, info):
    """Set-up, gates and warm-up under the tracer, then TRACE_OPS operations
    traced, each followed by one untraced: alternating cancels most of the
    host's speed drift from the overhead estimate."""
    from layers import per_layer
    from tracer import Tracer

    n_ops = TRACE_OPS[args.workload]
    tracer = Tracer(m)
    with tracer:
        wl, _, attempted, failed, problems, info["reference"] = prepare(
            m, args.workload, args.seed, work, tracer)
    traced, untraced = [], []
    for _ in range(n_ops):
        with tracer:
            runs = [run_ops(wl, tracer=tracer, count=1)]
        runs.append(run_ops(wl, count=1))
        for durations, (d, _, op_failed, op_problems) in zip((traced, untraced), runs):
            durations += d
            failed += op_failed
            problems += op_problems
    attempted += 2 * n_ops
    leftover = [f"{getattr(o, '__name__', o)}.{a}" for o, a in tracer.patched_sites()
                if hasattr(getattr(o, a), "__wrapped__")]
    if leftover:
        attempted += 1
        failed += 1
        problems.append(f"wrappers left installed: {leftover}")
    WORK.mkdir(exist_ok=True)
    trace_file = WORK / f"trace-{args.workload}.tsv"
    tracer.write(trace_file)
    info["trace_file"] = str(trace_file.relative_to(ROOT))
    info["trace_ops"] = n_ops
    info["op_seconds"] = {"traced": traced, "untraced": untraced}
    return per_layer(tracer, traced, untraced), attempted, failed, problems


if __name__ == "__main__":
    sys.exit(main())
