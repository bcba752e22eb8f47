"""Tests for the diagnostics: PSNR arithmetic, lesion bias against an
independent reimplementation, the interference metric on constructed
two-task objectives with known geometry, and routing histograms."""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from _utils import clone, perturb_parameters, random_volume
from drmc import tensor as T
from drmc.analysis import (
    center_gradients,
    delta_loss,
    interference,
    interference_from_gradients,
    lesion_bias,
    parameter_groups,
    psnr,
    routing_histogram,
)
from drmc.errors import DimensionError, NumericError, UsageError
from drmc.model import (
    DRMCNetwork,
    ModelConfig,
    Module,
    Parameter,
)
from drmc.tensor import Tensor
from drmc.training import AdamState, TrainConfig, multi_center_step


# ---------------------------------------------------------------------------
# psnr


def test_psnr_identical_volumes_is_infinite():
    v = random_volume(np.random.default_rng(0), (8, 8, 8))
    assert psnr(v, v, peak=1.0) == math.inf


def test_psnr_arithmetic():
    a = Tensor(np.zeros((10, 10), np.float32))
    b = Tensor(np.full((10, 10), 0.1, np.float32))  # MSE = 0.01
    assert psnr(a, b, peak=1.0) == pytest.approx(20.0, abs=1e-6)


def test_psnr_shift_invariance():
    rng = np.random.default_rng(1)
    a = Tensor(rng.uniform(0, 1, (8, 8)).astype(np.float32))
    b = Tensor(rng.uniform(0, 1, (8, 8)).astype(np.float32))
    shift = Tensor(np.full((8, 8), 0.25, np.float32))
    base = psnr(a, b, peak=1.0)
    shifted = psnr(T.add(a, shift), T.add(b, shift), peak=1.0)
    assert shifted == pytest.approx(base, abs=1e-4)


def test_psnr_symmetric_given_fixed_peak():
    rng = np.random.default_rng(2)
    a = Tensor(rng.uniform(0, 1, (8, 8)).astype(np.float32))
    b = Tensor(rng.uniform(0, 1, (8, 8)).astype(np.float32))
    assert psnr(a, b, peak=2.0) == pytest.approx(psnr(b, a, peak=2.0))


def test_psnr_shape_mismatch():
    with pytest.raises(DimensionError):
        psnr(Tensor(np.zeros((2, 2))), Tensor(np.zeros((3, 3))), peak=1.0)


# ---------------------------------------------------------------------------
# lesion bias


def _mask_volume(seed=3, shape=(8, 8, 8)):
    rng = np.random.default_rng(seed)
    full = rng.uniform(0.5, 1.5, (1,) + shape).astype(np.float32)
    mask = np.zeros(shape, bool)
    mask[2:5, 2:5, 2:5] = True
    return Tensor(full), mask


def test_lesion_bias_exact_match_is_zero():
    full, mask = _mask_volume()
    assert lesion_bias(full, full, mask) == (0.0, 0.0)


def test_lesion_bias_uniform_scaling():
    full, mask = _mask_volume(seed=4)
    est = Tensor((full.data * 1.1).astype(np.float32))
    b_mean, b_max = lesion_bias(est, full, mask)
    assert b_mean == pytest.approx(0.1, abs=1e-5)
    assert b_max == pytest.approx(0.1, abs=1e-5)


def test_lesion_bias_against_independent_two_pass():
    full, mask = _mask_volume(seed=5)
    rng = np.random.default_rng(6)
    est = Tensor((full.data + rng.normal(0, 0.05, full.data.shape)).astype(np.float32))
    b_mean, b_max = lesion_bias(est, full, mask)

    ev, fv = [], []
    for idx in zip(*np.nonzero(mask)):
        ev.append(float(est.data[0][idx]))
        fv.append(float(full.data[0][idx]))
    ref_mean = abs(np.mean(ev) - np.mean(fv)) / np.mean(fv)
    ref_max = abs(np.max(ev) - np.max(fv)) / np.max(fv)
    assert b_mean == pytest.approx(ref_mean, abs=1e-6)
    assert b_max == pytest.approx(ref_max, abs=1e-6)


def test_lesion_bias_empty_mask_signals_no_lesion():
    full, _ = _mask_volume(seed=7)
    assert lesion_bias(full, full, np.zeros((8, 8, 8), bool)) is None


# ---------------------------------------------------------------------------
# interference on constructed two-task objectives


class _ToyTask(Module):
    """Two scalar parameters with per-task quadratic losses whose gradient
    geometry is fully known."""

    def __init__(self, w0=(0.0, 0.0)):
        self.w = Parameter(np.float32(w0))


def _quadratic_loss(coeffs, targets):
    c = Tensor(np.float32(coeffs))
    t = Tensor(np.float32(targets))

    def loss_fn(net, batch):
        diff = T.sub(net.w, t)
        return T.tsum(T.mul(c, T.mul(diff, diff)))

    return loss_fn


def _dispatching_loss(per_task):
    """batch is the task id; route to that task's loss."""

    def loss_fn(net, batch):
        return per_task[batch](net, batch)

    return loss_fn


def test_delta_loss_self_step_is_lambda_times_grad_norm():
    toy = _ToyTask((0.0, 0.0))
    loss_fn = _quadratic_loss([1.0, 1.0], [1.0, -2.0])
    lam = 1e-4
    val = delta_loss(toy, ["b"], ["b"], lam=lam, group=["w"], loss_fn=loss_fn)
    grad_norm = np.linalg.norm([-2.0, 4.0])
    assert val > 0
    assert val == pytest.approx(lam * grad_norm, rel=1e-4)


def test_delta_loss_orthogonal_gradients_vanish():
    toy = _ToyTask((0.0, 0.0))
    per_task = {
        1: _quadratic_loss([1.0, 0.0], [1.0, 0.0]),  # gradient along w0
        2: _quadratic_loss([0.0, 1.0], [0.0, 1.0]),  # gradient along w1
    }
    loss_fn = _dispatching_loss(per_task)
    for form in ("first_order", "exact"):
        val = delta_loss(
            toy, [1], [2], lam=1e-4, group=["w"], form=form, loss_fn=loss_fn
        )
        assert abs(val) < 1e-6, form


def test_delta_loss_first_order_matches_exact_on_smooth_quadratic():
    toy = _ToyTask((0.0, 0.0))
    per_task = {
        1: _quadratic_loss([1.0, 0.5], [1.0, -2.0]),
        2: _quadratic_loss([0.3, 1.0], [0.5, 1.5]),
    }
    loss_fn = _dispatching_loss(per_task)
    fo = delta_loss(toy, [1], [2], lam=1e-4, group=["w"], form="first_order", loss_fn=loss_fn)
    ex = delta_loss(toy, [1], [2], lam=1e-4, group=["w"], form="exact", loss_fn=loss_fn)
    assert ex != 0.0
    assert abs(fo - ex) / abs(ex) < 0.05


def test_delta_loss_validation():
    toy = _ToyTask()
    loss_fn = _quadratic_loss([1.0, 1.0], [1.0, 1.0])
    with pytest.raises(UsageError):
        delta_loss(toy, ["b"], ["b"], lam=0.0, group=["w"], loss_fn=loss_fn)
    with pytest.raises(UsageError):
        delta_loss(toy, ["b"], ["b"], group=["nope"], loss_fn=loss_fn)
    with pytest.raises(UsageError):
        delta_loss(toy, ["b"], ["b"], group=["w"], form="second_order", loss_fn=loss_fn)


def test_interference_diagonal_exactly_one():
    toy = _ToyTask((0.3, -0.7))
    per_task = {
        1: _quadratic_loss([1.0, 0.2], [1.0, 0.0]),
        2: _quadratic_loss([0.1, 1.0], [0.0, 1.0]),
    }
    mat = interference(
        toy, {1: [1], 2: [2]}, ["w"], loss_fn=_dispatching_loss(per_task)
    )
    assert mat.values[0, 0] == 1.0
    assert mat.values[1, 1] == 1.0
    assert np.isfinite(mat.values).all()


def test_interference_opposed_gradients_are_negative():
    toy = _ToyTask((0.0, 0.0))
    base = _quadratic_loss([1.0, 1.0], [1.0, -1.0])

    def opposed(net, batch):
        return T.scale(base(net, batch), -1.0)

    loss_fn = _dispatching_loss({1: base, 2: opposed})
    mat = interference(toy, {1: [1], 2: [2]}, ["w"], loss_fn=loss_fn)
    assert mat.values[0, 1] == pytest.approx(-1.0, abs=1e-5)
    assert mat.values[0, 1] < 0
    assert mat.values[1, 0] < 0


def test_interference_heatmap_mentions_centers_and_group():
    toy = _ToyTask((0.1, 0.2))
    per_task = {
        1: _quadratic_loss([1.0, 0.3], [1.0, 0.0]),
        2: _quadratic_loss([0.3, 1.0], [0.0, 1.0]),
    }
    mat = interference(
        toy, {1: [1], 2: [2]}, ["w"], group_label="toy",
        loss_fn=_dispatching_loss(per_task),
    )
    text = mat.text_heatmap()
    assert "C1" in text and "C2" in text and "toy" in text


def test_interference_is_mean_of_per_batch_ratios():
    # u_1 = (0.5, 0.5), u_2 = (1, 0): center 1's batches give the ratios
    # 1/0.5 and 0/1, so I(1,2) = 1 (a ratio of means would give 2/3)
    grads = {
        1: [np.array([1.0, 0.0]), np.array([0.0, 2.0])],
        2: [np.array([1.0, 0.0])],
    }
    mat = interference_from_gradients(grads, "toy")
    assert np.array_equal(mat.values, np.float32([[1.0, 1.0], [0.5, 1.0]]))


def test_shared_gradients_match_per_group_interference():
    net = DRMCNetwork(ModelConfig(channels=4, n_experts=2, n_blocks=2, gate="softmax"), seed=3)
    rng = np.random.default_rng(4)

    def batch():
        return [
            (
                rng.uniform(0, 1, (1, 6, 6, 6)).astype(np.float32),
                rng.uniform(0, 1, (1, 6, 6, 6)).astype(np.float32),
            )
            for _ in range(2)
        ]

    # a few steps move the zero-initialized tail conv, so every block has a gradient
    state, cfg = AdamState(), TrainConfig(lr=1e-2)
    for _ in range(3):
        multi_center_step(net, {c: batch() for c in (1, 2, 3)}, state, cfg)
    center_batches = {c: [batch(), batch(), batch()] for c in (1, 2, 3)}
    groups = parameter_groups(net)
    shared = center_gradients(net, center_batches, groups)
    assert sorted(shared) == sorted(groups)
    for label, names in groups.items():
        want = interference(net, center_batches, names, group_label=label)
        got = interference_from_gradients(shared[label], label)
        assert np.array_equal(got.values, want.values), label
        assert (got.center_ids, got.parameter_group, got.n_batches) == (
            want.center_ids, want.parameter_group, want.n_batches)


def test_zero_gradient_group_is_named():
    toy = _ToyTask((1.0, 1.0))
    loss_fn = _quadratic_loss([1.0, 1.0], [1.0, 1.0])  # at its minimum
    with pytest.warns(UserWarning, match="group toy for center 1"):
        with pytest.raises(NumericError, match="group toy for center 1"):
            interference(toy, {1: [1], 2: [2]}, ["w"], group_label="toy", loss_fn=loss_fn)


def test_interference_labels_group_by_shared_prefix():
    net = DRMCNetwork(ModelConfig(channels=4, n_experts=2, n_blocks=1, gate="softmax"), seed=0)
    perturb_parameters(net, seed=1)  # the zero tail conv would leave every gradient zero
    rng = np.random.default_rng(2)
    batches = {
        c: [[(rng.uniform(0, 1, (1, 6, 6, 6)).astype(np.float32),
              rng.uniform(0, 1, (1, 6, 6, 6)).astype(np.float32))]]
        for c in (1, 2)
    }
    ffn = interference(net, batches, parameter_groups(net)["block0_ffn"])
    assert ffn.parameter_group == "blocks.0.ffn_bank.experts"
    every = interference(net, batches, [n for n, _ in net.named_parameters()])
    assert every.parameter_group == "all"


def test_parameter_groups_cover_all_banks():
    net = DRMCNetwork(ModelConfig(channels=4, n_experts=2, n_blocks=2), seed=0)
    groups = parameter_groups(net)
    assert sorted(groups) == ["block0_att", "block0_ffn", "block1_att", "block1_ffn"]
    all_names = {n for names in groups.values() for n in names}
    bank_names = {
        n for n, _ in net.named_parameters() if "_bank" in n
    }
    assert all_names == bank_names


# ---------------------------------------------------------------------------
# routing histograms


def _records(net_channels, n_per_center, centers, seed=0, shape=(6, 6, 6)):
    rng = np.random.default_rng(seed)
    recs = []
    for cid in centers:
        for _ in range(n_per_center):
            recs.append(
                SimpleNamespace(
                    center_id=cid,
                    low=random_volume(rng, shape),
                    split="test",
                )
            )
    return recs


def test_histogram_single_expert_degenerate():
    net = DRMCNetwork(ModelConfig(channels=4, n_experts=1, n_blocks=2), seed=1)
    perturb_parameters(net, seed=2)
    hist = routing_histogram(net, _records(4, 3, [1, 2]))
    assert hist.experts_seen() == {0}


def test_histogram_counts_sum_to_sample_counts():
    net = DRMCNetwork(ModelConfig(channels=4, n_experts=3, n_blocks=2), seed=3)
    perturb_parameters(net, seed=4)
    recs = _records(4, 4, [1, 2, 3])
    hist = routing_histogram(net, recs)
    for layer in range(2):
        for bank in ("att", "ffn"):
            for cid in (1, 2, 3):
                assert hist.total(layer, bank, cid) == 4


@pytest.mark.parametrize("gate", ["relu", "softmax"])
def test_histogram_invariant_under_positive_logit_rescaling(gate, tmp_path):
    net = DRMCNetwork(ModelConfig(channels=4, n_experts=3, n_blocks=2, gate=gate), seed=5)
    perturb_parameters(net, seed=6)
    recs = _records(4, 4, [1, 2])
    base = routing_histogram(net, recs)

    # Only the final router's logits can be rescaled without touching any
    # downstream router's inputs (its gating affects no later computation).
    scaled = clone(net, tmp_path)
    last = scaled.blocks[-1].ffn_router
    last.w_out.weight.data = last.w_out.weight.data * 2.0
    last.w_out.bias.data = last.w_out.bias.data * 2.0
    rescaled = routing_histogram(scaled, recs)
    assert base.counts == rescaled.counts
