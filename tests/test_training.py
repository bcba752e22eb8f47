"""Tests for patch unfold/merge, the Adam optimizer, the synchronized
multi-center step, and the training loop's structural guarantees."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _utils import clone, perturb_parameters, random_volume
from drmc.analysis import batch_gradients
from drmc.data import build_dataset, default_known_centers
from drmc.errors import DimensionError, NumericError, UsageError
from drmc.model import DRMCNetwork, ModelConfig, Parameter
from drmc.tensor import Tensor
from drmc.training import (
    AdamState,
    PatchGrid,
    TrainConfig,
    adam_step,
    evaluate,
    merge,
    multi_center_step,
    predict_volume,
    train,
    unfold,
)


def _vol(shape, seed=0):
    rng = np.random.default_rng(seed)
    return Tensor(rng.uniform(0, 1, (1,) + tuple(shape)).astype(np.float32))


# ---------------------------------------------------------------------------
# unfold / merge


def test_unfold_counting_non_overlapping():
    patches, grid = unfold(_vol((64, 64, 64)), 32, 32)
    assert len(patches) == 8
    assert len(set(grid.origins)) == 8


def test_unfold_clamped_final_origins():
    patches, grid = unfold(_vol((48, 48, 48)), 32, 32)
    assert len(patches) == 8
    assert sorted(set(o for origin in grid.origins for o in origin)) == [0, 16]
    assert sorted(grid.origins) == sorted(
        (z, y, x) for z in (0, 16) for y in (0, 16) for x in (0, 16)
    )


def test_unfold_patch_equals_volume():
    v = _vol((12, 12, 12), seed=1)
    patches, grid = unfold(v, 12, 12)
    assert len(patches) == 1
    assert np.array_equal(patches[0].data, v.data)


def test_unfold_validation():
    with pytest.raises(DimensionError):
        unfold(_vol((8, 8, 8)), 12, 12)
    with pytest.raises(DimensionError):
        unfold(_vol((8, 8, 8)), 4, 6)  # stride > patch


def test_merge_round_trip_exact():
    for shape, p, s in [
        ((16, 16, 16), 8, 8),
        ((16, 16, 16), 8, 4),
        ((20, 17, 23), 8, 8),
        ((20, 17, 23), 8, 4),
    ]:
        v = _vol(shape, seed=2)
        patches, grid = unfold(v, p, s)
        out = merge(patches, grid)
        assert np.array_equal(out.data, v.data), (shape, p, s)


@settings(max_examples=25, deadline=None)
@given(
    dims=st.tuples(
        st.integers(8, 14), st.integers(8, 14), st.integers(8, 14)
    ),
    patch=st.integers(4, 8),
    half_stride=st.booleans(),
)
def test_merge_unfold_identity_property(dims, patch, half_stride):
    stride = max(patch // 2, 1) if half_stride else patch
    v = _vol(dims, seed=sum(dims) * 31 + patch)
    patches, grid = unfold(v, patch, stride)
    assert np.array_equal(merge(patches, grid).data, v.data)


def test_merge_overlap_takes_mean():
    grid = PatchGrid(origins=[(0, 0, 0), (0, 0, 4)], patch_size=6, source_shape=(1, 6, 6, 10))
    ones = Tensor(np.full((1, 6, 6, 6), 1.0, np.float32))
    threes = Tensor(np.full((1, 6, 6, 6), 3.0, np.float32))
    out = merge([ones, threes], grid).data
    assert np.all(out[..., :4] == 1.0)
    assert np.all(out[..., 4:6] == 2.0)
    assert np.all(out[..., 6:] == 3.0)


def test_merge_disjoint_is_concatenation():
    v = _vol((8, 8, 16), seed=3)
    patches, grid = unfold(v, 8, 8)
    out = merge(patches, grid)
    assert np.array_equal(out.data, v.data)


def test_merge_grid_mismatch_errors():
    _, grid = unfold(_vol((8, 8, 8)), 4, 4)
    with pytest.raises(UsageError):
        merge([Tensor(np.zeros((1, 4, 4, 4), np.float32))], grid)
    patches = [Tensor(np.zeros((1, 5, 5, 5), np.float32)) for _ in grid.origins]
    with pytest.raises(UsageError):
        merge(patches, grid)


# ---------------------------------------------------------------------------
# Adam


def _one_param(value=1.0):
    return [("p", Parameter(np.float32([value])))]


def test_adam_zero_gradient_is_noop():
    named = _one_param(0.7)
    named[0][1].grad = np.zeros(1, np.float32)
    state = AdamState()
    adam_step(named, state, TrainConfig(lr=0.01, epochs=1))
    assert named[0][1].data[0] == np.float32(0.7)


def test_adam_missing_gradient_treated_as_zero():
    named = _one_param(0.7)
    adam_step(named, AdamState(), TrainConfig(lr=0.01, epochs=1))
    assert named[0][1].data[0] == np.float32(0.7)


def test_adam_nan_gradient_names_parameter():
    named = _one_param()
    named[0][1].grad = np.float32([np.nan])
    with pytest.raises(NumericError) as e:
        adam_step(named, AdamState(), TrainConfig(lr=0.01, epochs=1))
    assert "p" in str(e.value)


def test_adam_constant_gradient_asymptote_is_lr_sign():
    # with a constant gradient, the bias-corrected update converges to
    # lr * sign(g) regardless of |g|
    cfg = TrainConfig(lr=0.01, epochs=1)
    named = _one_param(0.0)
    p = named[0][1]
    state = AdamState()
    prev = float(p.data[0])
    for _ in range(500):
        p.grad = np.float32([0.37])
        prev = float(p.data[0])
        adam_step(named, state, cfg)
    update = prev - float(p.data[0])
    assert update == pytest.approx(cfg.lr, abs=1e-4)


def test_adam_determinism_bitwise():
    def run():
        cfg = TrainConfig(lr=0.003, epochs=1)
        named = [("w", Parameter(np.float32([0.1, -0.2, 0.3])))]
        state = AdamState()
        rng = np.random.default_rng(4)
        for _ in range(50):
            named[0][1].grad = rng.standard_normal(3).astype(np.float32)
            adam_step(named, state, cfg)
        return named[0][1].data.copy()

    assert np.array_equal(run(), run())


def test_train_config_validation():
    with pytest.raises(UsageError):
        TrainConfig(epochs=0)
    with pytest.raises(UsageError):
        TrainConfig(lr=-1e-4)
    with pytest.raises(UsageError):
        TrainConfig(checkpoint_every=-1)
    TrainConfig(lr=0.0)  # zero learning rate is a legal no-op configuration


# ---------------------------------------------------------------------------
# multi-center step


def _tiny_net(seed=0, n_experts=2):
    net = DRMCNetwork(ModelConfig(channels=4, n_experts=n_experts, n_blocks=1), seed=seed)
    perturb_parameters(net, seed=seed + 100)
    return net


def _batch(seed, n=2, shape=(6, 6, 6)):
    rng = np.random.default_rng(seed)
    return [
        (
            rng.uniform(0, 1, (1,) + shape).astype(np.float32),
            rng.uniform(0, 1, (1,) + shape).astype(np.float32),
        )
        for _ in range(n)
    ]


def test_multi_center_step_validation():
    net = _tiny_net()
    cfg = TrainConfig(epochs=1)
    with pytest.raises(UsageError):
        multi_center_step(net, {}, AdamState(), cfg)
    with pytest.raises(UsageError):
        multi_center_step(net, {1: _batch(0, n=2), 2: _batch(1, n=3)}, AdamState(), cfg)


def test_identical_batches_give_identical_buffers():
    net = _tiny_net(seed=1)
    batch = _batch(2)
    _, buffers = multi_center_step(
        net, {1: batch, 2: batch, 3: batch}, AdamState(), TrainConfig(epochs=1)
    )
    for name in buffers[1]:
        assert np.array_equal(buffers[1][name], buffers[2][name])
        assert np.array_equal(buffers[1][name], buffers[3][name])


def test_single_center_equals_plain_step():
    batch = _batch(3)
    cfg = TrainConfig(epochs=1)

    a = _tiny_net(seed=2)
    multi_center_step(a, {7: batch}, AdamState(), cfg)

    b = _tiny_net(seed=2)
    multi_center_step(b, {7: batch, }, AdamState(), cfg)

    for (_, pa), (_, pb) in zip(a.named_parameters(), b.named_parameters()):
        assert np.array_equal(pa.data, pb.data)


def test_applied_gradient_is_mean_of_buffers(tmp_path):
    # replay the returned per-center buffers through a fresh Adam state on a
    # parameter clone; the result must match the applied step bitwise
    cfg = TrainConfig(epochs=1)
    net = _tiny_net(seed=3)
    twin = clone(net, tmp_path)
    batches = {1: _batch(4), 2: _batch(5), 3: _batch(6)}

    _, buffers = multi_center_step(net, batches, AdamState(), cfg)

    named = list(twin.named_parameters())
    order = sorted(batches)
    for name, p in named:
        avg = buffers[order[0]][name].copy()
        for cid in order[1:]:
            avg += buffers[cid][name]
        p.grad = avg / len(order)
    adam_step(named, AdamState(), cfg)

    for (_, pa), (_, pb) in zip(net.named_parameters(), twin.named_parameters()):
        assert np.array_equal(pa.data, pb.data)


def test_step_gradients_are_batch_gradients(tmp_path):
    # training and the diagnostics share one gradient path, bit for bit
    net = _tiny_net(seed=5)
    twin = clone(net, tmp_path)
    batches = {1: _batch(9), 2: _batch(10), 3: _batch(11)}
    losses, buffers = multi_center_step(net, batches, AdamState(), TrainConfig(epochs=1))
    for cid, batch in batches.items():
        loss, grads = batch_gradients(twin, batch)
        assert losses[cid] == loss
        assert list(buffers[cid]) == list(grads)
        for name, g in grads.items():
            assert np.array_equal(buffers[cid][name], g), name


def test_losses_reported_per_center():
    net = _tiny_net(seed=4)
    losses, _ = multi_center_step(
        net, {1: _batch(7), 2: _batch(8)}, AdamState(), TrainConfig(epochs=1)
    )
    assert sorted(losses) == [1, 2]
    assert all(np.isfinite(v) and v > 0 for v in losses.values())


# ---------------------------------------------------------------------------
# training loop


def _tiny_dataset():
    return build_dataset(default_known_centers()[:2], 2, 1, shape=(16, 16, 16), seed=0)


def _tiny_train_cfg(**kw):
    base = dict(
        epochs=2, patch_size=8, patches_per_center=8, batch_per_center=4, seed=0
    )
    base.update(kw)
    return TrainConfig(**base)


def test_train_history_shape_and_determinism():
    dataset = _tiny_dataset()
    cfg = _tiny_train_cfg()

    def run():
        net = DRMCNetwork(ModelConfig(channels=4, n_experts=2, n_blocks=1), seed=0)
        history = train(net, dataset, cfg)
        return net, history

    net_a, hist_a = run()
    net_b, hist_b = run()
    assert len(hist_a) == cfg.epochs * 2  # epochs x centers
    assert [(h.epoch, h.center_id) for h in hist_a] == [(0, 1), (0, 2), (1, 1), (1, 2)]
    for ha, hb in zip(hist_a, hist_b):
        assert ha.train_loss == hb.train_loss and ha.val_psnr == hb.val_psnr
    for (_, pa), (_, pb) in zip(net_a.named_parameters(), net_b.named_parameters()):
        assert np.array_equal(pa.data, pb.data)


def test_train_zero_lr_leaves_parameters_untouched():
    dataset = _tiny_dataset()
    net = DRMCNetwork(ModelConfig(channels=4, n_experts=2, n_blocks=1), seed=1)
    before = {n: p.data.copy() for n, p in net.named_parameters()}
    history = train(net, dataset, _tiny_train_cfg(lr=0.0, epochs=3))
    for n, p in net.named_parameters():
        assert np.array_equal(before[n], p.data), n
    by_center = {}
    for h in history:
        by_center.setdefault(h.center_id, []).append(h.val_psnr)
    for vals in by_center.values():
        assert len(set(vals)) == 1  # PSNR constant across epochs


def test_train_requires_splits():
    train_only = [r for r in _tiny_dataset() if r.split == "train"]
    net = DRMCNetwork(ModelConfig(channels=4, n_experts=2, n_blocks=1), seed=2)
    with pytest.raises(UsageError):
        train(net, train_only, _tiny_train_cfg())
    with pytest.raises(UsageError):
        train(net, [], _tiny_train_cfg())


def test_identity_network_prediction_is_input():
    net = DRMCNetwork(ModelConfig(channels=4, n_experts=2, n_blocks=1), seed=3)
    v = _vol((16, 16, 16), seed=5)
    out = predict_volume(net, v, _tiny_train_cfg())
    assert np.array_equal(out.data, v.data)


def test_evaluate_row_per_record():
    dataset = _tiny_dataset()
    net = DRMCNetwork(ModelConfig(channels=4, n_experts=2, n_blocks=1), seed=4)
    test_records = [r for r in dataset if r.split == "test"]
    rows = evaluate(net, test_records, _tiny_train_cfg())
    assert len(rows) == len(test_records)
    for row, rec in zip(rows, test_records):
        assert row["center_id"] == rec.center_id
        assert np.isfinite(row["psnr"])
        assert row["b_mean"] is not None and row["b_mean"] >= 0
