"""Patch extraction/merging, Adam, and the multi-center synchronized
training loop.

The paper-style one-GPU-per-center synchronization is reproduced
sequentially: each step computes one gradient per center on that center's
batch, averages the per-center gradients with equal weight in a fixed
center order, and applies a single Adam update. The per-center buffers are
kept around so interference diagnostics can inspect them before averaging.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import analysis
from . import tensor as T
from .errors import DimensionError, NumericError, UsageError
from .model import DRMCNetwork, network_forward
from .tensor import Tensor


@dataclass
class TrainConfig:
    lr: float = 1e-4
    epochs: int = 30
    patch_size: int = 12
    patches_per_center: int = 32
    batch_per_center: int = 8
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    charbonnier_eps: float = 1e-3
    seed: int = 0
    checkpoint_every: int = 0  # 0 = only at the end

    def __post_init__(self):
        positive = (
            "epochs", "patch_size", "patches_per_center", "batch_per_center",
            "beta1", "beta2", "adam_eps", "charbonnier_eps",
        )
        for key in positive:
            if not getattr(self, key) > 0:
                raise UsageError(f"{key} must be > 0, got {getattr(self, key)}")
        for key in ("lr", "checkpoint_every"):
            if not getattr(self, key) >= 0:
                raise UsageError(f"{key} must be >= 0, got {getattr(self, key)}")


# ---------------------------------------------------------------------------
# patch grid


@dataclass
class PatchGrid:
    origins: list[tuple[int, int, int]]
    patch_size: int
    source_shape: tuple


def _axis_origins(dim: int, p: int, stride: int) -> list[int]:
    origins = list(range(0, dim - p + 1, stride))
    if origins[-1] != dim - p:
        origins.append(dim - p)
    return origins


def unfold(v: Tensor, patch_size: int, stride: int) -> tuple[list[Tensor], PatchGrid]:
    """Cover the volume with patches; the final patch per axis is clamped to
    the end so every voxel belongs to at least one patch."""
    p, s = int(patch_size), int(stride)
    spatial = v.data.shape[-3:]
    if any(p > d for d in spatial):
        raise DimensionError(f"patch {p} larger than volume {spatial}")
    if s > p or s < 1:
        raise DimensionError(f"stride {s} must be in [1, patch_size={p}]")
    origins = [
        (z, y, x)
        for z in _axis_origins(spatial[0], p, s)
        for y in _axis_origins(spatial[1], p, s)
        for x in _axis_origins(spatial[2], p, s)
    ]
    patches = [
        Tensor(v.data[..., z : z + p, y : y + p, x : x + p].copy())
        for z, y, x in origins
    ]
    return patches, PatchGrid(origins=origins, patch_size=p, source_shape=v.data.shape)


def merge(patches, grid: PatchGrid) -> Tensor:
    """Reassemble a volume; overlapped voxels take the mean of contributors."""
    if len(patches) != len(grid.origins):
        raise UsageError(
            f"grid has {len(grid.origins)} origins but {len(patches)} patches given"
        )
    p = grid.patch_size
    acc = np.zeros(grid.source_shape, np.float64)
    cnt = np.zeros(grid.source_shape[-3:], np.float64)
    for patch, (z, y, x) in zip(patches, grid.origins):
        d = patch.data if isinstance(patch, Tensor) else np.asarray(patch)
        if d.shape != grid.source_shape[:-3] + (p, p, p):
            raise UsageError(f"patch shape {d.shape} inconsistent with grid")
        acc[..., z : z + p, y : y + p, x : x + p] += d
        cnt[z : z + p, y : y + p, x : x + p] += 1.0
    return Tensor((acc / cnt).astype(np.float32))


# ---------------------------------------------------------------------------
# Adam


class AdamState:
    def __init__(self):
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}
        self.step_count = 0


def adam_step(named_params, state: AdamState, cfg: TrainConfig):
    """Standard Adam with bias correction over (name, param) pairs; params
    with no gradient (never-activated experts) are treated as zero-grad."""
    state.step_count += 1
    t = state.step_count
    for name, p in named_params:
        g = p.grad if p.grad is not None else np.zeros_like(p.data)
        if not np.isfinite(g).all():
            raise NumericError(f"non-finite gradient in parameter {name}")
        m = state.m.setdefault(name, np.zeros_like(p.data))
        v = state.v.setdefault(name, np.zeros_like(p.data))
        m *= cfg.beta1
        m += (1 - cfg.beta1) * g
        v *= cfg.beta2
        v += (1 - cfg.beta2) * g * g
        m_hat = m / (1 - cfg.beta1**t)
        v_hat = v / (1 - cfg.beta2**t)
        p.data = p.data - cfg.lr * m_hat / (np.sqrt(v_hat) + cfg.adam_eps)


# ---------------------------------------------------------------------------
# multi-center step and loop


def multi_center_step(
    net: DRMCNetwork,
    batches: dict[int, list],
    state: AdamState,
    cfg: TrainConfig,
) -> tuple[dict[int, float], dict[int, dict[str, np.ndarray]]]:
    """One synchronized update: per-center backward passes into retained
    buffers, equal-weight gradient mean, one Adam step."""
    if not batches:
        raise UsageError("multi_center_step needs at least one center batch")
    sizes = {len(b) for b in batches.values()}
    if len(sizes) != 1 or 0 in sizes:
        raise UsageError(f"per-center batches must be equal and nonempty: {sizes}")
    order = sorted(batches)
    named = list(net.named_parameters())
    losses: dict[int, float] = {}
    buffers: dict[int, dict[str, np.ndarray]] = {}
    for cid in order:
        net.zero_grad()
        loss = analysis.batch_loss(net, batches[cid], cfg.charbonnier_eps)
        loss.backward()
        losses[cid] = float(loss.data)
        buffers[cid] = {
            name: (p.grad.copy() if p.grad is not None else np.zeros_like(p.data))
            for name, p in named
        }
    k = len(order)
    for name, p in named:
        avg = buffers[order[0]][name].copy()
        for cid in order[1:]:
            avg += buffers[cid][name]
        p.grad = avg / k
    adam_step(named, state, cfg)
    net.zero_grad()
    return losses, buffers


def extract_patch_pools(records, cfg: TrainConfig, rng: np.random.Generator):
    """Per-center pools of (low, full) patch pairs sampled at random origins
    from the train split (fixed pool, re-shuffled every epoch)."""
    pools: dict[int, list] = {}
    by_center: dict[int, list] = {}
    for rec in records:
        if rec.split == "train":
            by_center.setdefault(rec.center_id, []).append(rec)
    p = cfg.patch_size
    for cid in sorted(by_center):
        recs = by_center[cid]
        pool = []
        for _ in range(cfg.patches_per_center):
            rec = recs[rng.integers(len(recs))]
            spatial = rec.full.data.shape[-3:]
            if any(p > d for d in spatial):
                raise DimensionError(
                    f"patch {p} larger than volume {spatial} for center {cid}"
                )
            z, y, x = (int(rng.integers(d - p + 1)) for d in spatial)
            pool.append(
                (
                    rec.low.data[..., z : z + p, y : y + p, x : x + p].copy(),
                    rec.full.data[..., z : z + p, y : y + p, x : x + p].copy(),
                )
            )
        pools[cid] = pool
    return pools


def predict_volume(net: DRMCNetwork, low: Tensor, cfg: TrainConfig) -> Tensor:
    """Whole-volume estimate: unfold at stride = patch size, forward each
    patch without grad, merge."""
    patches, grid = unfold(low, cfg.patch_size, cfg.patch_size)
    outs = []
    with T.no_grad():
        for patch in patches:
            est, _ = network_forward(net, patch)
            outs.append(est)
    return merge(outs, grid)


@dataclass
class HistoryRow:
    epoch: int
    center_id: int
    train_loss: float
    val_psnr: float


def train(
    net: DRMCNetwork,
    dataset,
    cfg: TrainConfig,
    epoch_callback: Optional[Callable[[int, DRMCNetwork], None]] = None,
) -> list[HistoryRow]:
    """Multi-center training loop; returns one history row per
    (epoch, center) with train loss and whole-volume validation PSNR."""
    train_centers = sorted({r.center_id for r in dataset if r.split == "train"})
    if not train_centers:
        raise UsageError("dataset has no train split")
    test_by_center: dict[int, list] = {}
    for rec in dataset:
        if rec.split == "test" and rec.center_id in train_centers:
            test_by_center.setdefault(rec.center_id, []).append(rec)
    if any(cid not in test_by_center for cid in train_centers):
        raise UsageError("every training center needs test records for validation")

    rng = np.random.default_rng(cfg.seed)
    pools = extract_patch_pools(dataset, cfg, rng)
    state = AdamState()
    n_steps = cfg.patches_per_center // cfg.batch_per_center
    if n_steps < 1:
        raise UsageError("patches_per_center must be >= batch_per_center")

    history: list[HistoryRow] = []
    for epoch in range(cfg.epochs):
        order = {cid: rng.permutation(len(pools[cid])) for cid in train_centers}
        epoch_loss = {cid: 0.0 for cid in train_centers}
        for step in range(n_steps):
            sel = slice(step * cfg.batch_per_center, (step + 1) * cfg.batch_per_center)
            batches = {
                cid: [pools[cid][i] for i in order[cid][sel]] for cid in train_centers
            }
            losses, _ = multi_center_step(net, batches, state, cfg)
            for cid, l in losses.items():
                epoch_loss[cid] += l
        for cid in train_centers:
            vals = []
            for rec in test_by_center[cid]:
                est = predict_volume(net, rec.low, cfg)
                vals.append(analysis.psnr(est, rec.full, peak=float(rec.full.data.max())))
            history.append(
                HistoryRow(
                    epoch=epoch,
                    center_id=cid,
                    train_loss=epoch_loss[cid] / n_steps,
                    val_psnr=float(np.mean(vals)),
                )
            )
        if epoch_callback is not None:
            epoch_callback(epoch, net)
    return history


def evaluate(net: DRMCNetwork, records, cfg: TrainConfig) -> list[dict]:
    """Whole-volume metrics per record: PSNR plus lesion-region bias
    (None for lesion-free records)."""
    rows = []
    for idx, rec in enumerate(records):
        est = predict_volume(net, rec.low, cfg)
        bias = analysis.lesion_bias(est, rec.full, rec.lesion_mask)
        rows.append(
            {
                "record": idx,
                "center_id": rec.center_id,
                "split": rec.split,
                "psnr": analysis.psnr(est, rec.full, peak=float(rec.full.data.max())),
                "b_mean": None if bias is None else bias[0],
                "b_max": None if bias is None else bias[1],
            }
        )
    return rows


def sample_center_batches(
    records, cfg: TrainConfig, n_batches: int, seed: int
) -> dict[int, list]:
    """Fixed per-center batch sets for interference measurement, drawn from
    the train split."""
    rng = np.random.default_rng(seed)
    tmp_cfg_patches = n_batches * cfg.batch_per_center
    pool_cfg = TrainConfig(**{**vars(cfg), "patches_per_center": tmp_cfg_patches})
    pools = extract_patch_pools(records, pool_cfg, rng)
    return {
        cid: [
            pool[k * cfg.batch_per_center : (k + 1) * cfg.batch_per_center]
            for k in range(n_batches)
        ]
        for cid, pool in pools.items()
    }
