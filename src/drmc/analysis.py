"""Quantitative diagnostics: image quality, lesion-region bias, the
per-center gradient interference matrix, and routing-behavior histograms.

The interference number I(i, j) estimates how a normalized gradient step
taken for center j changes center i's loss, relative to the change center
i's own step would produce. Negative off-diagonal entries mean the centers
pull shared parameters in conflicting directions.
"""

from __future__ import annotations

import math
import os
import warnings
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import tensor as T
from .errors import DimensionError, NumericError, UsageError
from .model import DRMCNetwork, network_forward
from .tensor import Tensor


def _data(x) -> np.ndarray:
    return x.data if isinstance(x, Tensor) else np.asarray(x)


def psnr(a, b, peak: float) -> float:
    """10*log10(peak^2 / MSE); returns inf when the volumes are identical."""
    da, db = _data(a), _data(b)
    if da.shape != db.shape:
        raise DimensionError(f"psnr shapes differ: {da.shape} vs {db.shape}")
    mse = float(np.mean((da.astype(np.float64) - db.astype(np.float64)) ** 2))
    if mse == 0.0:
        return math.inf
    return 10.0 * math.log10(float(peak) ** 2 / mse)


def lesion_bias(est, full, mask) -> Optional[tuple[float, float]]:
    """Relative error of mean and max intensity inside the lesion mask.

    Returns None when the mask is empty (lesion-free record)."""
    de, df, m = _data(est), _data(full), np.asarray(mask, bool)
    if de.shape != df.shape:
        raise DimensionError(f"lesion_bias shapes differ: {de.shape} vs {df.shape}")
    if m.shape != de.shape[-m.ndim :]:
        raise DimensionError(
            f"lesion mask shape {m.shape} does not match volume {de.shape}"
        )
    if not m.any():
        return None
    ev = de.reshape((-1,) + m.shape)[0][m].astype(np.float64)
    fv = df.reshape((-1,) + m.shape)[0][m].astype(np.float64)
    b_mean = abs(ev.mean() - fv.mean()) / fv.mean()
    b_max = abs(ev.max() - fv.max()) / fv.max()
    return float(b_mean), float(b_max)


# ---------------------------------------------------------------------------
# center interference


@dataclass
class InterferenceMatrix:
    values: np.ndarray  # K x K, float32
    center_ids: list[int]
    parameter_group: str
    n_batches: int

    def text_heatmap(self) -> str:
        ids = self.center_ids
        lines = [f"I(i,j) group={self.parameter_group}"]
        lines.append("      " + "".join(f"{f'C{j}':>9}" for j in ids))
        for i, row in enumerate(self.values):
            lines.append(f"C{ids[i]:<5}" + "".join(f"{v:>9.4f}" for v in row))
        return "\n".join(lines)


def parameter_groups(net: DRMCNetwork) -> dict[str, list[str]]:
    """Default per-block groups, attention bank and FFN bank separately."""
    groups: dict[str, list[str]] = {}
    for name, _ in net.named_parameters():
        parts = name.split(".")
        if parts[0] != "blocks":
            continue
        idx = parts[1]
        if parts[2].startswith("att_bank"):
            key = f"block{idx}_att"
        elif parts[2].startswith("ffn_bank"):
            key = f"block{idx}_ffn"
        else:
            continue
        groups.setdefault(key, []).append(name)
    return groups


def _group_param_list(net: DRMCNetwork, group: Sequence[str]):
    wanted = set(group)
    out = [(n, p) for n, p in net.named_parameters() if n in wanted]
    if not out:
        raise UsageError(f"parameter group matched nothing: {group}")
    return out


def batch_loss(net: DRMCNetwork, batch) -> Tensor:
    """Mean Charbonnier loss of the network over (low, full) patch pairs; the
    training loss and the default loss of the interference diagnostics."""
    acc = None
    for low, full in batch:
        est, _ = network_forward(net, Tensor(np.asarray(low)))
        term = T.charbonnier(Tensor(np.asarray(full)), est)
        acc = term if acc is None else T.add(acc, term)
    return T.scale(acc, 1.0 / len(batch))


def batch_gradients(net, batch, loss_fn=None) -> tuple[float, dict[str, np.ndarray]]:
    """The loss and every parameter's gradient by name (zeros where the graph
    did not reach) from one backward pass of ``loss_fn(net, batch)``, default
    ``batch_loss``; the one gradient path of training and the diagnostics.
    The graph is freed on return and no ``grad`` is left set."""
    net.zero_grad()
    loss = (loss_fn or batch_loss)(net, batch)
    loss.backward()
    grads = {
        name: (p.grad if p.grad is not None else np.zeros_like(p.data))
        for name, p in net.named_parameters()
    }
    net.zero_grad()
    return float(loss.data), grads


def _group_label(group: Sequence[str], group_label: str = "") -> str:
    """``group_label``, or else the dotted prefix that every name in the group
    shares, or ``all`` when they share none."""
    if group_label:
        return group_label
    return ".".join(os.path.commonprefix([name.split(".") for name in group])) or "all"


def _batch_grads(net, batch, group_params, loss_fn=None) -> list[np.ndarray]:
    """The gradient of each parameter group in ``group_params`` over
    ``batch`` as one float64 vector, from one ``batch_gradients`` pass."""
    _, grads = batch_gradients(net, batch, loss_fn)
    return [
        np.concatenate([grads[name].astype(np.float64).ravel() for name, _ in gp])
        for gp in group_params
    ]


def _unit_grads(grads, where: str):
    """The nonzero gradient vectors and their unit-normalized forms;
    zero-norm batches are skipped with a warning."""
    kept, units = [], []
    for b, g in enumerate(grads):
        n = np.linalg.norm(g)
        if n == 0.0:
            warnings.warn(f"skipping batch {b}: zero gradient norm on {where}")
            continue
        kept.append(g)
        units.append(g / n)
    if not kept:
        raise NumericError(f"all batches had zero gradient norm on {where}")
    return kept, units


def center_gradients(
    net: DRMCNetwork,
    center_batches: dict[int, list],
    groups: dict[str, Sequence[str]],
    loss_fn=None,
) -> dict[str, dict[int, list[np.ndarray]]]:
    """Per-batch gradient vectors keyed by group label, then center id. One
    backward pass per (center, batch) serves every group."""
    gps = {label: _group_param_list(net, names) for label, names in groups.items()}
    out = {label: {cid: [] for cid in sorted(center_batches)} for label in gps}
    for cid in sorted(center_batches):
        for batch in center_batches[cid]:
            for label, g in zip(gps, _batch_grads(net, batch, gps.values(), loss_fn)):
                out[label][cid].append(g)
    return out


def delta_loss(
    net: DRMCNetwork,
    batches_i,
    batches_j,
    lam: float = 1e-4,
    group: Optional[Sequence[str]] = None,
    form: str = "first_order",
    loss_fn=None,
) -> float:
    """Expected change of center i's loss caused by one normalized gradient
    step for center j, over the selected parameter subset.

    ``form='first_order'`` uses lam * E[(g_j/|g_j|) . g_i]; ``form='exact'``
    actually takes the step, re-evaluates the loss, and restores.
    ``loss_fn(net, batch)`` overrides the default Charbonnier
    reconstruction loss (used by diagnostics on synthetic objectives)."""
    if lam <= 0:
        raise UsageError(f"lam must be > 0, got {lam}")
    if group is None:
        group = [n for n, _ in net.named_parameters()]
    gp = _group_param_list(net, group)
    eval_loss = loss_fn or batch_loss
    grads_j = [_batch_grads(net, b, [gp], loss_fn)[0] for b in batches_j]
    _, units_j = _unit_grads(grads_j, f"group {_group_label(group)}")

    if form == "first_order":
        vals = []
        for batch_i in batches_i:
            gi = _batch_grads(net, batch_i, [gp], loss_fn)[0]
            vals.append(lam * float(np.mean([u @ gi for u in units_j])))
        return float(np.mean(vals))
    if form == "exact":
        vals = []
        with T.no_grad():
            for batch_i in batches_i:
                base = float(eval_loss(net, batch_i).data)
                deltas = []
                for u in units_j:
                    _apply_step(gp, u, -lam)
                    stepped = float(eval_loss(net, batch_i).data)
                    _apply_step(gp, u, lam)
                    deltas.append(base - stepped)
                vals.append(float(np.mean(deltas)))
        return float(np.mean(vals))
    raise UsageError(f"unknown delta_loss form {form!r}")


def _apply_step(group_params, unit_vec: np.ndarray, scale: float):
    off = 0
    for _, p in group_params:
        n = p.data.size
        p.data = (
            p.data.astype(np.float64) + scale * unit_vec[off : off + n].reshape(p.shape)
        ).astype(np.float32)
        off += n


def interference_from_gradients(
    center_grads: dict[int, list[np.ndarray]],
    group_label: str,
) -> InterferenceMatrix:
    """K x K matrix of I(i, j) from one group's per-batch gradient vectors
    per center (see ``center_gradients``).

    With u_c the mean unit gradient of center c, I(i, j) is the mean over
    center i's batch gradients g of (u_j . g) / (u_i . g): the first-order
    loss change of a step along u_j relative to one along u_i. The step size
    cancels, and the diagonal is exactly 1."""
    ids = sorted(center_grads)
    grads, units = {}, {}
    for cid in ids:
        grads[cid], units[cid] = _unit_grads(
            center_grads[cid], f"group {group_label} for center {cid}"
        )
    mean_units = np.stack([np.mean(units[cid], axis=0) for cid in ids])
    values = np.zeros((len(ids), len(ids)), np.float64)
    for a, ci in enumerate(ids):
        proj = np.stack(grads[ci]) @ mean_units.T  # batches x centers
        proj = proj[proj[:, a] != 0.0]
        if not len(proj):
            raise NumericError(
                f"interference denominator vanished for center {ci} "
                f"on group {group_label}"
            )
        values[a] = np.mean(proj / proj[:, a : a + 1], axis=0)
    return InterferenceMatrix(
        values=values.astype(np.float32),
        center_ids=ids,
        parameter_group=group_label,
        n_batches=min(len(grads[cid]) for cid in ids),
    )


def interference(
    net: DRMCNetwork,
    center_batches: dict[int, list],
    group: Sequence[str],
    group_label: str = "",
    loss_fn=None,
) -> InterferenceMatrix:
    """K x K matrix of I(i, j) over a parameter group, with fixed shared
    batch sets per center; the diagonal is exactly 1."""
    label = _group_label(group, group_label)
    grads = center_gradients(net, center_batches, {label: group}, loss_fn)
    return interference_from_gradients(grads[label], label)


# ---------------------------------------------------------------------------
# routing behavior


@dataclass
class RoutingHistogram:
    counts: dict = field(default_factory=dict)  # (layer, bank, center, expert) -> int

    def add(self, layer: int, bank: str, center: int, expert: int):
        key = (layer, bank, center, expert)
        self.counts[key] = self.counts.get(key, 0) + 1

    def total(self, layer: int, bank: str, center: int) -> int:
        return sum(
            v
            for (l, b, c, _), v in self.counts.items()
            if (l, b, c) == (layer, bank, center)
        )

    def experts_seen(self) -> set[int]:
        return {e for (_, _, _, e) in self.counts}


def routing_histogram(net: DRMCNetwork, records) -> RoutingHistogram:
    """Top-1 expert counts per (layer, bank) keyed by center id; ties break
    toward the lowest expert index."""
    hist = RoutingHistogram()
    with T.no_grad():
        for rec in records:
            _, logs = network_forward(net, Tensor(rec.low.data))
            for li, w in enumerate(logs):
                layer, bank = li // 2, ("att", "ffn")[li % 2]
                hist.add(layer, bank, rec.center_id, int(np.argmax(w.data)))
    return hist
