"""Set-up, correctness gates and the three workloads of the benchmark.

Every workload runs on desk defaults (C=16, M=3, N=3, relu gate, 12^3
patches, 24^3 volumes from the 4 default known centers) and is generated
from one seed. Set-up writes the dataset through ``drmc gen-data``, reads it
back, and trains a short fixed schedule into a checkpoint: the tail conv is
zero at init, so without that step every block gradient is zero and
``interference`` would raise.

A workload is an object with ``run_op()``, which performs one operation and
returns a list of problems found in its outputs (empty when correct), and
``per_op``, the work one operation does.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import time
from pathlib import Path

import numpy as np

SETUP_REPEATS = 5
# Short schedule that moves the checkpoint off the identity map.
CKPT_STEPS = 2
CKPT_BATCH = 2
CKPT_LR = 1e-3
NET_SEED = 0
# ``interference`` CLI settings: per-block groups, one batch of two patches.
N_BATCHES = 1
BATCH_SIZE = 2
# Tolerances against shipped references (float32 engine; the same machine
# reproduces them exactly, another BLAS build or a reordered sum moves the
# last digits, a wrong op moves far more).
REF_RTOL = 1e-4
PSNR_ATOL = 1e-4
INTERFERENCE_ATOL = 1e-3
# Fixed float64 network of the seed-independent gate. Central differences
# with this step agree with a correct backward pass to ~1e-9 relative; a
# wrong rule is off by far more (a gelu-backward slip: 1e-3 to 2e-3).
FIXED_SEED = 20230705
FD_DIRECTIONS = 2
FD_STEP = 1e-4
FD_RTOL = 1e-6
FIXED_RTOL = 1e-9


class BenchError(Exception):
    """Set-up or a gate failed; the run cannot be measured."""


def _quiet(fn, *args):
    with contextlib.redirect_stdout(io.StringIO()):
        return fn(*args)


class Setup:
    """Dataset on disk, its records in memory, and a short-trained
    checkpoint, all inside ``work``. ``build`` makes them; ``load`` reads the
    records of a set-up built earlier, in another process."""

    def __init__(self, work: Path):
        self.work = work
        self.config = work / "run.yaml"
        self.checkpoint = work / "checkpoint.drmc"
        self.records = None

    def load(self, m) -> "Setup":
        self.records, _, _ = m["cli"].load_records(self.work / "data")
        return self

    def build(self, m, seed: int) -> "Setup":
        work = self.work
        work.mkdir(parents=True, exist_ok=True)
        self.config.write_text(
            f"data: {{seed: {seed}, unknown_centers: []}}\n"
            f"analysis: {{n_batches: {N_BATCHES}, batch_size: {BATCH_SIZE}, "
            f"groups: per_block}}\n"
        )
        rc = _quiet(m["cli"].dispatch, ["gen-data", "--config", str(self.config),
                                        "--out", str(work)])
        if rc != 0:
            raise BenchError(f"gen-data exited with {rc}")
        self.load(m)
        training = m["training"]
        net = m["model"].DRMCNetwork(m["model"].ModelConfig(), seed=NET_SEED)
        cfg = training.TrainConfig(
            lr=CKPT_LR, patches_per_center=CKPT_STEPS * CKPT_BATCH,
            batch_per_center=CKPT_BATCH, seed=seed,
        )
        pools = training.extract_patch_pools(
            self.records, cfg, np.random.default_rng(seed)
        )
        state = training.AdamState()
        for s in range(CKPT_STEPS):
            batches = {c: p[s * CKPT_BATCH:(s + 1) * CKPT_BATCH] for c, p in pools.items()}
            training.multi_center_step(net, batches, state, cfg)
        m["model"].save_checkpoint(net, self.checkpoint)
        return self


def set_up(m, work: Path, seed: int) -> tuple[Setup, list[float]]:
    """Build the set-up SETUP_REPEATS times; return the last one and every
    duration. Set-up must be deterministic: the checkpoints must agree."""
    times, blobs = [], []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        setup = Setup(work).build(m, seed)
        times.append(time.perf_counter() - t0)
        blobs.append(setup.checkpoint.read_bytes())
    if any(b != blobs[0] for b in blobs):
        raise BenchError("set-up is not deterministic: checkpoints differ")
    return setup, times


# ---------------------------------------------------------------------------
# gates run once per process, outside every timed region


def _psnr(est: np.ndarray, full: np.ndarray) -> float:
    mse = float(np.mean((est.astype(np.float64) - full.astype(np.float64)) ** 2))
    return 10.0 * math.log10(float(full.max()) ** 2 / mse)


def gate_identity_at_init(m, setup: Setup) -> list[str]:
    """An init-state network is the identity map: whole-volume prediction
    returns its input bit for bit, and evaluate reports that PSNR."""
    training = m["training"]
    net = m["model"].DRMCNetwork(m["model"].ModelConfig(), seed=NET_SEED)
    cfg = training.TrainConfig()
    rec = next(r for r in setup.records if r.split == "test")
    est = training.predict_volume(net, rec.low, cfg)
    problems = []
    if not np.array_equal(est.data, rec.low.data):
        problems.append("identity at init: prediction differs from its input")
    row = training.evaluate(net, [rec], cfg)[0]
    want = _psnr(rec.low.data, rec.full.data)
    if not math.isclose(row["psnr"], want, rel_tol=1e-12):
        problems.append(f"identity at init: evaluate PSNR {row['psnr']} != {want}")
    return problems


def gate_checkpoint_fit(m, setup: Setup, seed: int) -> list[str]:
    """The checkpoint is off the identity map: one single-patch batch per
    center gives an all-parameter interference matrix with a unit diagonal
    and finite entries (at init it raises instead)."""
    net = m["model"].load_checkpoint(setup.checkpoint)
    training = m["training"]
    batches = training.sample_center_batches(
        setup.records, training.TrainConfig(batch_per_center=1), n_batches=1, seed=seed
    )
    names = [n for n, _ in net.named_parameters()]
    mat = m["analysis"].interference(net, batches, names, group_label="all")
    v = np.asarray(mat.values, np.float64)
    if v.shape != (len(batches),) * 2 or not np.isfinite(v).all():
        return [f"checkpoint gate: bad matrix {v.tolist()}"]
    if not (np.diag(v) == 1.0).all():
        return [f"checkpoint gate: diagonal {np.diag(v).tolist()}"]
    return []


def _fixed_network(m):
    """Desk-default network with every parameter moved off init by a fixed
    draw, and one fixed 12^3 patch pair, all float64 (the engine keeps that
    dtype), so nothing here depends on the run's seed."""
    net = m["model"].DRMCNetwork(m["model"].ModelConfig(), seed=NET_SEED)
    rng = np.random.default_rng(FIXED_SEED)
    for p in net.parameters():
        p.data = p.data.astype(np.float64) + 0.05 * rng.standard_normal(p.data.shape)
    low = rng.uniform(0.0, 1.0, (1, 12, 12, 12))
    full = np.clip(low + 0.1 * rng.standard_normal(low.shape), 0.0, None)
    return net, low, full


def fixed_network_values(m) -> dict:
    """Loss, output sum and gradient of the fixed network, plus the analytic
    and central-difference derivatives of the loss along FD_DIRECTIONS fixed
    random unit directions in parameter space."""
    T, model = m["tensor"], m["model"]
    net, low, full = _fixed_network(m)

    def loss():
        est, _ = model.network_forward(net, T.Tensor(low))
        return T.charbonnier(T.Tensor(full), est), est

    value, est = loss()
    value.backward()
    params = net.parameters()
    grad = np.concatenate([np.zeros(p.data.size) if p.grad is None else p.grad.ravel()
                           for p in params])
    base = [p.data for p in params]
    rng = np.random.default_rng(FIXED_SEED + 1)
    analytic, numeric = [], []
    with T.no_grad():
        for _ in range(FD_DIRECTIONS):
            d = rng.standard_normal(grad.size)
            d /= np.linalg.norm(d)
            side = []
            for sign in (1.0, -1.0):
                off = 0
                for p, b in zip(params, base):
                    p.data = b + sign * FD_STEP * d[off:off + b.size].reshape(b.shape)
                    off += b.size
                side.append(float(loss()[0].data))
            analytic.append(float(grad @ d))
            numeric.append((side[0] - side[1]) / (2 * FD_STEP))
    for p, b in zip(params, base):
        p.data = b
    return {"loss": float(value.data), "output_sum": float(est.data.sum()),
            "grad_norm": float(np.linalg.norm(grad)),
            "directional_analytic": analytic, "directional_numeric": numeric}


def gate_fixed_network(m, ref) -> list[str]:
    """Seed-independent check of the engine on the fixed network: the
    backward pass agrees with central differences, and loss, output and
    gradient norm match the shipped reference. It runs in every run,
    whatever the seed, so a forward or backward bug fails every seed."""
    got = fixed_network_values(m)
    problems = []
    for a, n in zip(got["directional_analytic"], got["directional_numeric"]):
        if not abs(a - n) <= FD_RTOL * abs(n):
            problems.append(f"fixed network: gradient along a direction {a} but "
                            f"central differences give {n}")
    if ref is None:
        return problems + ["fixed network: no shipped reference"]
    for key in ("loss", "output_sum", "grad_norm"):
        if not math.isclose(got[key], ref[key], rel_tol=FIXED_RTOL):
            problems.append(f"fixed network: {key} {got[key]} != reference {ref[key]}")
    return problems


# ---------------------------------------------------------------------------
# workloads


def load_reference(path: Path):
    return json.loads(path.read_text()) if path.is_file() else None


class Train:
    """``multi_center_step`` over per-center pools, 4 centers x 8 patches per
    step, batches drawn like ``training.train`` (pool re-permuted every
    epoch), starting from the set-up checkpoint."""

    def __init__(self, m, setup: Setup, seed: int, ref):
        self.m = m
        self.training = m["training"]
        self.cfg = self.training.TrainConfig(seed=seed)
        self.net = m["model"].load_checkpoint(setup.checkpoint)
        self.rng = np.random.default_rng(seed + 1)
        self.pools = self.training.extract_patch_pools(setup.records, self.cfg, self.rng)
        self.state = self.training.AdamState()
        self.steps_per_epoch = self.cfg.patches_per_center // self.cfg.batch_per_center
        self.per_op = {"patches": len(self.pools) * self.cfg.batch_per_center}
        self.ref = ref
        self.losses: list[dict] = []
        self.grad_norms: list[list[float]] = []
        self.step = 0
        self.order = None

    def _batches(self):
        k = self.step % self.steps_per_epoch
        if k == 0:
            self.order = {c: self.rng.permutation(len(p)) for c, p in self.pools.items()}
        b = self.cfg.batch_per_center
        return {c: [self.pools[c][i] for i in self.order[c][k * b:(k + 1) * b]]
                for c in sorted(self.pools)}

    def independent_losses(self, batches) -> dict:
        """Per-center loss of the current weights, from a no-grad forward and
        a numpy Charbonnier mean."""
        T, eps = self.m["tensor"], self.cfg.charbonnier_eps
        out = {}
        with T.no_grad():
            for c, batch in batches.items():
                terms = []
                for low, full in batch:
                    est, _ = self.m["model"].network_forward(self.net, T.Tensor(low))
                    r = np.asarray(full, np.float32) - est.data
                    terms.append(float(np.sqrt(r * r + eps * eps).mean(dtype=np.float64)))
                out[c] = float(np.mean(terms))
        return out

    def run_op(self) -> list[str]:
        batches = self._batches()
        # the first step (the untimed warm-up) is also checked against an
        # independent evaluation of the same losses
        want = self.independent_losses(batches) if self.step == 0 else None
        losses, buffers = self.training.multi_center_step(
            self.net, batches, self.state, self.cfg)
        step, self.step = self.step, self.step + 1
        vals = [losses[c] for c in sorted(losses)]
        # Adam hides gradient errors from the losses for many steps; the
        # per-center gradient norms show them at once
        norms = [math.sqrt(sum(float(np.dot(g.ravel().astype(np.float64),
                                            g.ravel().astype(np.float64)))
                               for g in buffers[c].values()))
                 for c in sorted(buffers)]
        self.losses.append(vals)
        self.grad_norms.append(norms)
        if not all(math.isfinite(v) and v > 0 for v in vals + norms):
            return [f"step {step}: loss or gradient norm not finite and positive: "
                    f"{vals} {norms}"]
        problems = []
        if want is not None:
            for c in sorted(losses):
                if not math.isclose(losses[c], want[c], rel_tol=1e-5):
                    problems.append(
                        f"step {step}: center {c} loss {losses[c]} but a no-grad "
                        f"forward gives {want[c]}"
                    )
        if self.ref is not None and step < len(self.ref["train_losses"]):
            for what, got in (("losses", vals), ("grad_norms", norms)):
                want = self.ref[f"train_{what}"][step]
                if not np.allclose(got, want, rtol=REF_RTOL, atol=0):
                    problems.append(f"step {step}: {what} {got} != reference {want}")
        return problems


class Predict:
    """``training.evaluate`` over the 16 test volumes of the checkpoint, one
    volume per operation, cycling; forward only, under no_grad."""

    def __init__(self, m, setup: Setup, seed: int, ref):
        self.training = m["training"]
        self.cfg = self.training.TrainConfig(seed=seed)
        self.net = m["model"].load_checkpoint(setup.checkpoint)
        self.tests = [r for r in setup.records if r.split == "test"]
        self.per_op = {"voxels": int(self.tests[0].low.data.size)}
        self.ref = ref
        self.psnr: dict[int, float] = {}
        self.residual_l1 = None
        self.k = 0

    def residual_problems(self) -> list[str]:
        """PSNR is dominated by the identity path, so the warm-up also checks
        what the network adds: sum |prediction - input| over volume 0."""
        rec = self.tests[0]
        est = self.training.predict_volume(self.net, rec.low, self.cfg)
        self.residual_l1 = float(np.abs(est.data.astype(np.float64) - rec.low.data).sum())
        if not (math.isfinite(self.residual_l1) and self.residual_l1 > 0):
            return [f"volume 0: residual L1 {self.residual_l1}"]
        want = self.ref["predict_residual_l1"] if self.ref else None
        if want is not None and not math.isclose(self.residual_l1, want, rel_tol=REF_RTOL):
            return [f"volume 0: residual L1 {self.residual_l1} != reference {want}"]
        return []

    def run_op(self) -> list[str]:
        i = self.k % len(self.tests)
        self.k += 1
        row = self.training.evaluate(self.net, [self.tests[i]], self.cfg)[0]
        p = row["psnr"]
        if not math.isfinite(p):
            return [f"volume {i}: PSNR {p}"]
        problems = self.residual_problems() if self.k == 1 else []
        if self.psnr.setdefault(i, p) != p:
            problems.append(f"volume {i}: PSNR {p} differs from an earlier {self.psnr[i]}")
        if self.ref is not None and abs(p - self.ref["predict_psnr"][i]) > PSNR_ATOL:
            problems.append(f"volume {i}: PSNR {p} != reference {self.ref['predict_psnr'][i]}")
        return problems


class Interference:
    """In-process ``drmc interference`` with per-block groups on the
    checkpoint, stdout captured: config parse, VOL1 reads, checkpoint load
    and one ``analysis.interference`` per group."""

    def __init__(self, m, setup: Setup, seed: int, ref):
        self.cli = m["cli"]
        self.out = setup.work
        self.argv = ["interference", "--config", str(setup.config), "--out",
                     str(setup.work), "--checkpoint", str(setup.checkpoint)]
        n_groups = 2 * m["model"].ModelConfig().n_blocks
        self.per_op = {"matrices": n_groups}
        self.centers = len({r.center_id for r in setup.records})
        self.ref = ref["interference"] if ref else None
        self.first: dict[str, bytes] = {}

    def run_op(self) -> list[str]:
        for old in self.out.glob("interference_*.csv"):
            old.unlink()
        rc = _quiet(self.cli.dispatch, self.argv)
        if rc != 0:
            return [f"interference exited with {rc}"]
        files = sorted(self.out.glob("interference_*.csv"))
        if len(files) != self.per_op["matrices"]:
            return [f"{len(files)} interference CSVs, want {self.per_op['matrices']}"]
        problems = []
        for f in files:
            label = f.stem[len("interference_"):]
            problems += self._check(label, f.read_bytes())
        return problems

    def _check(self, label: str, blob: bytes) -> list[str]:
        rows = list(csv.reader(io.StringIO(blob.decode())))
        k = self.centers
        if len(rows) != k + 1 or any(len(r) != k for r in rows):
            return [f"{label}: not a {k}x{k} matrix with a header"]
        v = np.array([[float(x) for x in r] for r in rows[1:]])
        problems = []
        if not np.isfinite(v).all():
            problems.append(f"{label}: non-finite entries")
        if not (np.diag(v) == 1.0).all():
            problems.append(f"{label}: diagonal {np.diag(v).tolist()} is not exactly 1")
        if self.first.setdefault(label, blob) != blob:
            problems.append(f"{label}: output differs from the first invocation")
        if self.ref is not None and not np.allclose(
            v, self.ref[label], rtol=0, atol=INTERFERENCE_ATOL
        ):
            problems.append(f"{label}: matrix differs from the reference")
        return problems


WORKLOADS = {"train": Train, "predict": Predict, "interference": Interference}
