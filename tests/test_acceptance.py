"""Acceptance suite: one test per release criterion, each printing a
PASS-style summary line (visible with -s or on failure) and asserting its
stated tolerance.

The trend criteria (6-8, 10) share desk-scale training runs through
module-scoped fixtures, so this file performs real training and takes
tens of minutes of CPU time.
"""

import csv
import math
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from _utils import input_loss_fn, parameter_fd, perturb_parameters, random_volume
from drmc import tensor as T
from drmc.analysis import (
    delta_loss,
    interference,
    parameter_groups,
    routing_histogram,
)
from drmc.cli import dispatch
from drmc.errors import NumericError
from drmc.data import build_dataset, default_known_centers, default_unknown_centers
from drmc.model import (
    DRMCNetwork,
    DynamicRoutingBlock,
    ModelConfig,
    _apply_gate,
    clone_network,
    drb_forward,
    fuse,
    network_forward,
)
from drmc.model import ExpertBank
from drmc.tensor import Tensor, finite_diff_check
from drmc.training import TrainConfig, evaluate, merge, sample_center_batches, train, unfold

KNOWN_IDS = (1, 2, 3, 4)


def _report(criterion, message):
    print(f"[criterion {criterion}] {message}")


# ---------------------------------------------------------------------------
# shared desk-scale runs


@pytest.fixture(scope="module")
def desk_dataset():
    return build_dataset(
        default_known_centers() + default_unknown_centers(),
        n_train_per_center=8,
        n_test_per_center=4,
        shape=(24, 24, 24),
        seed=0,
    )


def _known(records):
    return [r for r in records if r.center_id in KNOWN_IDS]


@pytest.fixture(scope="module")
def trained_pair(desk_dataset):
    """The default dynamic-routing model and the single-expert-per-bank
    baseline, trained identically on the four known centers."""
    cfg = TrainConfig()  # desk defaults: 30 epochs, lr 1e-4, 12^3 patches
    known = _known(desk_dataset)

    routed = DRMCNetwork(ModelConfig(channels=16, n_experts=3, n_blocks=3), seed=cfg.seed)
    hist_routed = train(routed, known, cfg)

    baseline = DRMCNetwork(ModelConfig(channels=16, n_experts=1, n_blocks=3), seed=cfg.seed)
    hist_base = train(baseline, known, cfg)

    return routed, hist_routed, baseline, hist_base, cfg


def _final_avg_psnr(history):
    last = max(h.epoch for h in history)
    vals = [h.val_psnr for h in history if h.epoch == last]
    return float(np.mean(vals)), {h.center_id: h.val_psnr for h in history if h.epoch == last}


# ---------------------------------------------------------------------------
# criterion 1: gradient correctness


def test_c01_gradient_correctness():
    t0 = time.perf_counter()

    # per-op oracle checks at tolerance 1e-3
    rng = np.random.default_rng(0)

    def const(shape):
        return Tensor(rng.standard_normal(shape).astype(np.float32))

    mm_rhs = const((4, 3))
    conv_w = const((2, 2, 3, 3, 3))
    sm_probe = Tensor(np.linspace(0, 1, 12).reshape(3, 4).astype(np.float32))
    ln_gain = Tensor(np.ones(3, np.float32))
    ln_offset = Tensor(np.zeros(3, np.float32))
    ln_probe = const((3, 2, 2, 2))
    per_op = {
        "gelu": (lambda x: T.tsum(T.gelu(x)), const((3, 4)), 1e-3),
        "matmul": (lambda x: T.tsum(T.matmul(x, mm_rhs)), const((3, 4)), 1e-3),
        "conv3d": (
            lambda x: T.tsum(T.conv3d(x, conv_w, padding=1)),
            const((2, 4, 4, 4)),
            1e-3,
        ),
        "softmax": (
            lambda x: T.tsum(T.mul(T.softmax(x, axis=-1), sm_probe)),
            const((3, 4)),
            1e-3,
        ),
        "layernorm": (
            lambda x: T.tsum(T.mul(T.layernorm(x, ln_gain, ln_offset), ln_probe)),
            const((3, 2, 2, 2)),
            1e-3,
        ),
        "gap": (lambda x: T.tsum(T.gap(x)), const((2, 3, 3, 3)), 1e-3),
    }
    for name, (f, x, tol) in per_op.items():
        rep = finite_diff_check(f, x, h=1e-3, tol=tol, max_entries=30)
        assert rep.passed, (name, rep)
    rep = finite_diff_check(
        lambda x: T.charbonnier(x, Tensor(np.zeros((3, 4), np.float32)), eps=1e-3),
        Tensor(rng.uniform(-1, 1, (3, 4)).astype(np.float32)),
        h=1e-5,
        tol=1e-3,
    )
    assert rep.passed, ("charbonnier", rep)

    # end-to-end: C=8, M=2, N=2, 8^3 patch at tolerance 1e-2, measured at an
    # active operating point (all experts engaged, logits away from kinks)
    net = DRMCNetwork(ModelConfig(channels=8, n_experts=2, n_blocks=2), seed=1)
    perturb_parameters(net, seed=2)
    rng = np.random.default_rng(3)
    x = random_volume(rng, (8, 8, 8))
    y = random_volume(rng, (8, 8, 8))
    rep = finite_diff_check(input_loss_fn(net, y.data), x, h=1e-3, tol=1e-2, max_entries=16, seed=4)
    assert rep.passed, ("end_to_end_input", rep)

    for label, holder, attr in [
        ("head_weight", net, "head_weight"),
        ("att_q", net.blocks[0].att_bank.experts[0].q_proj, "weight"),
        ("ffn_w1", net.blocks[1].ffn_bank.experts[1].w1, "weight"),
        ("router_w_out", net.blocks[0].att_router.w_out, "weight"),
        ("tail_weight", net, "tail_weight"),
    ]:
        rep = parameter_fd(net, holder, attr, x.data, y.data, h=1e-3, tol=1e-2, max_entries=10, seed=5)
        assert rep.passed, (label, rep)

    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _report(1, f"gradient correctness PASS in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 2: routing algebra


def test_c02_routing_algebra():
    t0 = time.perf_counter()

    logits = Tensor(np.float32([-0.7, 0.0, 1.3]))
    assert np.array_equal(_apply_gate(logits, "relu").data, np.maximum(logits.data, 0.0))

    rng = np.random.default_rng(6)
    for m in (2, 3, 4):
        w = _apply_gate(Tensor(rng.standard_normal(m).astype(np.float32)), "top2")
        assert np.count_nonzero(w.data) == min(2, m)
        assert abs(float(w.data.sum()) - 1.0) <= 1e-6

    bank = ExpertBank("ffn", 4, 3)
    bank._init(np.random.default_rng(7))
    x = random_volume(np.random.default_rng(8), (4, 4, 4), channels=4)
    fused = fuse(bank, x, Tensor(np.float32([0.0, 0.0, 1.0])))
    assert np.array_equal(fused.data, bank.experts[2](x).data)

    block = DynamicRoutingBlock(channels=4, hidden=4, n_experts=3)
    block._init(np.random.default_rng(9))
    block.att_router.w_out.bias.data = np.full(3, -9.0, np.float32)
    block.ffn_router.w_out.bias.data = np.full(3, -9.0, np.float32)
    v = random_volume(np.random.default_rng(10), (4, 4, 4), channels=4)
    y, _, _ = drb_forward(block, v, Tensor(np.zeros(4, np.float32)), gate="relu")
    assert np.array_equal(y.data, v.data)

    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    _report(2, f"routing algebra PASS in {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# criterion 3: identity at initialization


def test_c03_identity_at_initialization():
    t0 = time.perf_counter()
    net = DRMCNetwork(ModelConfig(channels=16, n_experts=3, n_blocks=3), seed=11)
    rng = np.random.default_rng(12)
    with T.no_grad():
        for _ in range(10):
            x = random_volume(rng, (10, 10, 10))
            est, _ = network_forward(net, x)
            assert np.array_equal(est.data, x.data)
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    _report(3, f"identity at init PASS in {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# criterion 4: patch round-trip


def test_c04_patch_round_trip():
    t0 = time.perf_counter()
    rng = np.random.default_rng(13)
    for shape in [(16, 16, 16), (20, 17, 23), (24, 24, 24)]:
        v = Tensor(rng.uniform(0, 1, (1,) + shape).astype(np.float32))
        for stride in (8, 4):  # p and p/2
            patches, grid = unfold(v, 8, stride)
            assert np.array_equal(merge(patches, grid).data, v.data), (shape, stride)
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    _report(4, f"patch round-trip PASS in {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# criterion 5: interference metric


def test_c05_interference_metric():
    t0 = time.perf_counter()

    # diagonal exactly 1 under shared batch sets, on a real network
    net = DRMCNetwork(ModelConfig(channels=8, n_experts=2, n_blocks=2, gate="softmax"), seed=14)
    perturb_parameters(net, seed=15)
    rng = np.random.default_rng(16)

    def batch():
        return [
            (
                rng.uniform(0, 1, (1, 6, 6, 6)).astype(np.float32),
                rng.uniform(0, 1, (1, 6, 6, 6)).astype(np.float32),
            )
            for _ in range(2)
        ]

    center_batches = {1: [batch(), batch()], 2: [batch(), batch()]}
    groups = parameter_groups(net)
    mat = interference(net, center_batches, groups["block0_ffn"], lam=1e-4)
    assert mat.values[0, 0] == 1.0 and mat.values[1, 1] == 1.0

    # opposed-gradient two-task objective: I(1,2) < 0
    from drmc.model import Module, Parameter

    class Toy(Module):
        def __init__(self):
            self.w = Parameter(np.float32([0.0, 0.0]))

    def base_loss(net_, b, eps):
        diff = T.sub(net_.w, Tensor(np.float32([1.0, -1.0])))
        return T.tsum(T.mul(diff, diff))

    def loss_fn(net_, b, eps):
        out = base_loss(net_, b, eps)
        return T.scale(out, -1.0) if b == 2 else out

    toy = Toy()
    toy_mat = interference(toy, {1: [1], 2: [2]}, ["w"], lam=1e-4, loss_fn=loss_fn)
    assert toy_mat.values[0, 1] < 0

    # first-order vs exact agreement within 10% at lambda = 1e-4, on the
    # real network over a bank parameter group
    fo = delta_loss(net, center_batches[1], center_batches[2], lam=1e-4,
                    group=groups["block1_ffn"], form="first_order")
    ex = delta_loss(net, center_batches[1], center_batches[2], lam=1e-4,
                    group=groups["block1_ffn"], form="exact")
    assert ex != 0.0
    rel = abs(fo - ex) / abs(ex)
    assert rel < 0.10, (fo, ex, rel)

    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _report(5, f"interference metric PASS in {elapsed:.1f}s (first-order vs exact rel err {rel:.3f})")


# ---------------------------------------------------------------------------
# criterion 6: interference existence after short baseline training


def test_c06_interference_existence(desk_dataset):
    t0 = time.perf_counter()
    cfg = TrainConfig(epochs=10)
    baseline = DRMCNetwork(ModelConfig(channels=16, n_experts=1, n_blocks=3), seed=cfg.seed)
    train(baseline, _known(desk_dataset), cfg)

    bcfg = TrainConfig(**{**vars(cfg), "batch_per_center": 2})
    batches = sample_center_batches(_known(desk_dataset), bcfg, n_batches=20, seed=7)
    negatives = {}
    gated_off = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # zero-norm batch skips are expected
        for label, names in parameter_groups(baseline).items():
            try:
                mat = interference(baseline, batches, names, group_label=label, lam=1e-4)
            except NumericError:
                # a relu-gated bank can end up never selected for a center,
                # leaving that group with no gradient signal to measure
                gated_off.append(label)
                continue
            off = mat.values[~np.eye(len(mat.center_ids), dtype=bool)]
            negatives[label] = float(off.min())
    assert negatives, f"every group was gated off: {gated_off}"
    assert min(negatives.values()) < 0.0, (negatives, gated_off)
    elapsed = time.perf_counter() - t0
    _report(6, f"interference existence PASS in {elapsed:.0f}s; most negative "
               f"off-diagonal per group: {negatives}; gated-off groups: {gated_off}")


# ---------------------------------------------------------------------------
# criteria 7 and 8: trend against the single-expert baseline


def test_c07_generalist_vs_baseline_trend(trained_pair):
    _, hist_routed, _, hist_base, _ = trained_pair
    avg_routed, per_routed = _final_avg_psnr(hist_routed)
    avg_base, per_base = _final_avg_psnr(hist_base)
    diff = avg_routed - avg_base
    _report(
        7,
        f"routed avg {avg_routed:.3f} dB vs baseline avg {avg_base:.3f} dB "
        f"(diff {diff:+.3f} dB; per-center routed {per_routed} baseline {per_base})",
    )
    if diff < 0.2:
        warnings.warn(
            f"routed-vs-baseline margin {diff:+.3f} dB is below the 0.2 dB target "
            "(still above the -0.1 dB failure threshold)"
        )
    assert diff >= -0.1, (avg_routed, avg_base)


def test_c08_unknown_center_generalization(trained_pair, desk_dataset):
    routed, _, baseline, _, cfg = trained_pair
    results = {}
    for cid in (5, 6):
        recs = [r for r in desk_dataset if r.center_id == cid and r.split == "test"]
        psnr_routed = float(np.mean([row["psnr"] for row in evaluate(routed, recs, cfg)]))
        psnr_base = float(np.mean([row["psnr"] for row in evaluate(baseline, recs, cfg)]))
        results[cid] = (psnr_routed, psnr_base)
    _report(8, "unknown-center PSNR (routed, baseline): " + str(results))
    # gate on the held-out center sharing the known centers' anatomy family
    psnr_routed, psnr_base = results[6]
    assert psnr_routed >= psnr_base - 0.1, results


# ---------------------------------------------------------------------------
# criterion 9: ablation harness


_ABLATE_CONFIG = """\
data:
  shape: [16, 16, 16]
  n_train: 2
  n_test: 1
model:
  channels: 8
  n_experts: 3
  n_blocks: 2
train:
  epochs: 2
  patch_size: 8
  patches_per_center: 8
  batch_per_center: 4
"""


def test_c09_ablation_harness(tmp_path):
    t0 = time.perf_counter()
    cfg_path = tmp_path / "config.yaml"
    cfg_path.write_text(_ABLATE_CONFIG)
    args = ["--config", str(cfg_path), "--out", str(tmp_path)]
    assert dispatch(["gen-data"] + args) == 0
    assert dispatch(["ablate"] + args) == 0

    with open(tmp_path / "ablation.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["variant", "psnr_c1", "psnr_c2", "psnr_c3", "psnr_c4",
                       "psnr_c5", "psnr_c6", "psnr_avg"]
    assert [r[0] for r in rows[1:]] == ["no_h", "softmax", "top2", "relu"]
    table = {r[0]: float(r[-1]) for r in rows[1:]}
    for variant, avg in table.items():
        assert math.isfinite(avg), variant
    elapsed = time.perf_counter() - t0
    # trends are reported, not gated: desk-scale deltas sit inside noise
    _report(9, f"ablation harness PASS in {elapsed:.0f}s; avg PSNR per variant: {table}")


# ---------------------------------------------------------------------------
# criterion 10: routing histogram sanity


def test_c10_routing_histogram_sanity(trained_pair, desk_dataset):
    t0 = time.perf_counter()
    routed, _, _, _, _ = trained_pair
    recs = [r for r in desk_dataset if r.center_id in KNOWN_IDS and r.split == "test"]

    hist = routing_histogram(routed, recs)
    for layer in range(3):
        for bank in ("att", "ffn"):
            for cid in KNOWN_IDS:
                assert hist.total(layer, bank, cid) == 4

    # Argmax invariance under positive rescaling of a router's logits holds
    # with that router's inputs fixed, so rescale only the last router in the
    # chain: its decision feeds no later router or activation.
    scaled = clone_network(routed)
    last = scaled.blocks[-1].ffn_router
    last.w_out.weight.data = last.w_out.weight.data * 2.0
    last.w_out.bias.data = last.w_out.bias.data * 2.0
    assert routing_histogram(scaled, recs).counts == hist.counts

    seen = hist.experts_seen()
    assert len(seen) >= 2, seen
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    _report(10, f"routing histogram PASS in {elapsed:.0f}s; experts appearing as top-1: {sorted(seen)}")


# ---------------------------------------------------------------------------
# criterion 11: determinism of the full pipeline


_DETERMINISM_CONFIG = """\
data:
  shape: [16, 16, 16]
  n_train: 2
  n_test: 1
model:
  channels: 8
  n_experts: 2
  n_blocks: 2
train:
  epochs: 2
  patch_size: 8
  patches_per_center: 8
  batch_per_center: 4
"""


def test_c11_pipeline_determinism(tmp_path):
    t0 = time.perf_counter()

    def run(tag):
        out = tmp_path / tag
        out.mkdir()
        cfg_path = out / "config.yaml"
        cfg_path.write_text(_DETERMINISM_CONFIG)
        args = ["--config", str(cfg_path), "--out", str(out)]
        for cmd in ("gen-data", "train", "eval"):
            assert dispatch([cmd] + args) == 0, cmd
        return out

    a, b = run("a"), run("b")
    for rel in ("checkpoint.drmc", "history.csv", "metrics.csv"):
        assert (a / rel).read_bytes() == (b / rel).read_bytes(), rel
    vols_a = sorted(p.relative_to(a) for p in a.rglob("*.vol"))
    vols_b = sorted(p.relative_to(b) for p in b.rglob("*.vol"))
    assert vols_a == vols_b and vols_a
    for rel in vols_a:
        assert (a / rel).read_bytes() == (b / rel).read_bytes(), rel
    elapsed = time.perf_counter() - t0
    _report(11, f"pipeline determinism PASS in {elapsed:.0f}s over {len(vols_a)} volumes + CSVs + checkpoint")
