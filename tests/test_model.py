"""Tests for the routing network: gate algebra, sparse fusion, expert
behavior in closed-form regimes, identity at initialization, gradient
checks at an active operating point, and the checkpoint format."""

import math
import time

import numpy as np
import pytest

from _utils import parameter_fd, perturb_parameters, random_volume
from drmc import tensor as T
from drmc.errors import ConfigurationError, DimensionError, FormatError
from drmc.model import (
    AttentionExpert,
    DRMCNetwork,
    DynamicRoutingBlock,
    DynamicRoutingModule,
    ExpertBank,
    FFNExpert,
    ModelConfig,
    _apply_gate,
    clone_network,
    drb_forward,
    fuse,
    init_parameters,
    load_checkpoint,
    network_forward,
    route,
    save_checkpoint,
)
from drmc.tensor import Tensor, finite_diff_check


def _small_net(gate="relu", channels=8, n_experts=2, n_blocks=2, seed=0):
    return DRMCNetwork(
        ModelConfig(channels=channels, n_experts=n_experts, n_blocks=n_blocks, gate=gate),
        seed=seed,
    )


# ---------------------------------------------------------------------------
# gate algebra


def test_relu_gate_is_bitwise_max():
    logits = Tensor(np.float32([-1.0, 0.5, 2.0]))
    w = _apply_gate(logits, "relu")
    assert np.array_equal(w.data, np.float32([0.0, 0.5, 2.0]))


def test_softmax_gate_symmetry():
    w = _apply_gate(Tensor(np.float32([0.0, 0.0, 0.0])), "softmax")
    assert np.allclose(w.data, 1.0 / 3.0)


def test_top2_gate_hand_derived_values():
    w = _apply_gate(Tensor(np.float32([0.1, 0.3, 0.2])), "top2")
    z = math.exp(0.3) + math.exp(0.2)
    assert w.data[0] == 0.0
    assert w.data[1] == pytest.approx(math.exp(0.3) / z, abs=1e-6)
    assert w.data[2] == pytest.approx(math.exp(0.2) / z, abs=1e-6)


def test_top2_gate_support_and_normalization():
    rng = np.random.default_rng(0)
    for m in (2, 3, 5):
        for _ in range(20):
            w = _apply_gate(Tensor(rng.standard_normal(m).astype(np.float32)), "top2")
            nonzero = np.count_nonzero(w.data)
            assert nonzero == min(2, m)
            assert w.data.sum() == pytest.approx(1.0, abs=1e-6)


def test_top2_gate_needs_two_experts():
    with pytest.raises(ConfigurationError):
        _apply_gate(Tensor(np.float32([0.3])), "top2")


def test_top2_gradient_flows_only_through_kept_logits():
    logits = Tensor(np.float32([0.1, 0.3, 0.2]), requires_grad=True)
    T.tsum(T.mul(_apply_gate(logits, "top2"), Tensor([1.0, 2.0, 3.0]))).backward()
    assert logits.grad[0] == 0.0
    assert logits.grad[1] != 0.0 and logits.grad[2] != 0.0


def test_unknown_gate_rejected():
    with pytest.raises(ConfigurationError):
        _apply_gate(Tensor(np.float32([0.0, 0.0])), "top1")


def test_no_h_gate_ignores_hidden_state():
    drm = DynamicRoutingModule(channels=4, hidden=4, n_experts=3)
    drm._init(np.random.default_rng(1))
    x = random_volume(np.random.default_rng(2), (4, 4, 4), channels=4)
    h_a = Tensor(np.zeros(4, np.float32))
    h_b = Tensor(np.float32([1.0, -2.0, 0.5, 3.0]))
    w_zero_h, _ = route(drm, x, h_a, gate="no_h")
    w_other_h, _ = route(drm, x, h_b, gate="no_h")
    w_relu, _ = route(drm, x, h_a, gate="relu")
    assert np.array_equal(w_zero_h.data, w_other_h.data)
    assert np.array_equal(w_zero_h.data, w_relu.data)


def test_relu_gate_produces_exact_zeros_somewhere():
    # the sparsity contract: over random inputs, some expert weights are
    # exactly zero (not merely small)
    net = _small_net(n_experts=3, n_blocks=2, seed=3)
    rng = np.random.default_rng(4)
    zero_seen = False
    with T.no_grad():
        for _ in range(10):
            _, logs = network_forward(net, random_volume(rng, (6, 6, 6)))
            zero_seen = zero_seen or any((w.data == 0.0).any() for w in logs)
    assert zero_seen


# ---------------------------------------------------------------------------
# fusion


class _CountingExpert(FFNExpert):
    def __init__(self, channels):
        super().__init__(channels)
        self.calls = 0

    def __call__(self, x):
        self.calls += 1
        return super().__call__(x)


def _counting_bank(channels=4, n_experts=3, seed=5):
    bank = ExpertBank("ffn", channels, n_experts)
    bank.experts = [_CountingExpert(channels) for _ in range(n_experts)]
    rng = np.random.default_rng(seed)
    bank._init(rng)
    return bank


def test_fuse_one_hot_is_bitwise_selected_expert():
    bank = _counting_bank()
    x = random_volume(np.random.default_rng(6), (3, 3, 3), channels=4)
    out = fuse(bank, x, Tensor(np.float32([0.0, 1.0, 0.0])))
    direct = bank.experts[1](x)
    assert np.array_equal(out.data, direct.data)


def test_fuse_skips_zero_weight_experts():
    bank = _counting_bank()
    x = random_volume(np.random.default_rng(7), (3, 3, 3), channels=4)
    fuse(bank, x, Tensor(np.float32([0.0, 1.0, 0.0])))
    assert [e.calls for e in bank.experts] == [0, 1, 0]


def test_fuse_all_zero_weights_gives_zero_tensor():
    bank = _counting_bank()
    x = random_volume(np.random.default_rng(8), (3, 3, 3), channels=4)
    out = fuse(bank, x, Tensor(np.zeros(3, np.float32)))
    assert np.array_equal(out.data, np.zeros_like(x.data))
    assert all(e.calls == 0 for e in bank.experts)


def test_fuse_linearity_with_tied_experts():
    bank = _counting_bank()
    # tie expert 0 and 1 parameters
    for (_, a), (_, b) in zip(
        bank.experts[0].named_parameters(), bank.experts[1].named_parameters()
    ):
        b.data = a.data.copy()
    x = random_volume(np.random.default_rng(9), (3, 3, 3), channels=4)
    out = fuse(bank, x, Tensor(np.float32([0.5, 0.5, 0.0])))
    direct = bank.experts[0](x)
    assert np.allclose(out.data, direct.data, atol=1e-6)


def test_fuse_weight_shape_mismatch():
    bank = _counting_bank()
    with pytest.raises(ConfigurationError):
        fuse(bank, random_volume(np.random.default_rng(10), (3, 3, 3), 4), Tensor(np.zeros(2, np.float32)))


# ---------------------------------------------------------------------------
# experts in closed-form regimes


def test_attention_single_channel_reduces_to_scalar_chain():
    expert = AttentionExpert(1)
    expert.v_proj.weight.data = np.float32([[2.0]])
    expert.out_proj.weight.data = np.float32([[3.0]])
    # q/k arbitrary nonzero; 1x1 softmax is always exactly 1
    expert.q_proj.weight.data = np.float32([[0.7]])
    expert.k_proj.weight.data = np.float32([[-0.4]])
    x = random_volume(np.random.default_rng(11), (3, 3, 3), channels=1)
    out = expert(x)
    assert np.allclose(out.data, 6.0 * x.data, atol=1e-5)


def test_attention_zero_temperature_limit_is_uniform_mixture():
    c = 4
    expert = AttentionExpert(c)
    eye = np.eye(c, dtype=np.float32)
    expert.q_proj.weight.data = eye.copy()
    expert.k_proj.weight.data = eye.copy()
    expert.v_proj.weight.data = eye.copy()
    expert.out_proj.weight.data = eye.copy()
    expert.log_temperature.data = np.float32(math.log(1e-4))
    x = random_volume(np.random.default_rng(12), (3, 3, 3), channels=c)
    out = expert(x)
    channel_mean = x.data.mean(axis=0, keepdims=True)
    assert np.allclose(out.data, np.broadcast_to(channel_mean, out.data.shape), atol=1e-3)


def test_attention_empty_spatial_extent_errors():
    expert = AttentionExpert(2)
    with pytest.raises(DimensionError):
        expert(Tensor(np.zeros((2, 0, 0, 0), np.float32)))


def test_attention_cost_scales_linearly_in_voxels():
    # channel attention is S-linear; a quadratic-in-S implementation would
    # slow down ~64x when S grows 8x
    expert = AttentionExpert(8)
    expert._init(np.random.default_rng(13))
    rng = np.random.default_rng(14)
    small = random_volume(rng, (8, 8, 8), channels=8)
    big = random_volume(rng, (16, 16, 16), channels=8)

    def best_of(n, fn):
        times = []
        for _ in range(n):
            t0 = time.perf_counter()
            with T.no_grad():
                fn()
            times.append(time.perf_counter() - t0)
        return min(times)

    t_small = best_of(5, lambda: expert(small))
    t_big = best_of(5, lambda: expert(big))
    assert t_big / max(t_small, 1e-9) < 30.0


def test_ffn_zero_first_layer_gives_zero():
    expert = FFNExpert(4)  # all parameters start at zero
    x = random_volume(np.random.default_rng(15), (3, 3, 3), channels=4)
    out = expert(x)
    assert np.array_equal(out.data, np.zeros_like(x.data))


def test_ffn_identity_weights_pass_large_positive_input():
    c = 3
    expert = FFNExpert(c)
    expert.w1.weight.data = np.vstack([np.eye(c), np.zeros((c, c))]).astype(np.float32)
    expert.w2.weight.data = np.hstack([np.eye(c), np.zeros((c, c))]).astype(np.float32)
    x = Tensor(np.full((c, 2, 2, 2), 10.0, np.float32))
    out = expert(x)
    assert np.allclose(out.data, x.data, atol=1e-3)


# ---------------------------------------------------------------------------
# blocks and network structure


def test_block_with_suppressed_routers_is_bitwise_identity():
    block = DynamicRoutingBlock(channels=4, hidden=4, n_experts=2)
    block._init(np.random.default_rng(16))
    block.att_router.w_out.bias.data = np.full(2, -5.0, np.float32)
    block.ffn_router.w_out.bias.data = np.full(2, -5.0, np.float32)
    x = random_volume(np.random.default_rng(17), (4, 4, 4), channels=4)
    y, _, logs = drb_forward(block, x, Tensor(np.zeros(4, np.float32)), gate="relu")
    assert np.array_equal(y.data, x.data)
    assert all((w.data == 0.0).all() for w in logs)


def test_single_expert_softmax_weight_is_one():
    drm = DynamicRoutingModule(channels=4, hidden=4, n_experts=1)
    drm._init(np.random.default_rng(18))
    x = random_volume(np.random.default_rng(19), (4, 4, 4), channels=4)
    w, _ = route(drm, x, Tensor(np.zeros(4, np.float32)), gate="softmax")
    assert np.array_equal(w.data, np.float32([1.0]))


def test_network_identity_at_init():
    net = _small_net(seed=20)
    rng = np.random.default_rng(21)
    with T.no_grad():
        for _ in range(5):
            x = random_volume(rng, (8, 8, 8))
            est, _ = network_forward(net, x)
            assert np.array_equal(est.data, x.data)


def test_network_route_log_length_is_2n():
    for n_blocks in (1, 3):
        net = _small_net(n_blocks=n_blocks, seed=22)
        with T.no_grad():
            _, logs = network_forward(net, random_volume(np.random.default_rng(23), (6, 6, 6)))
        assert len(logs) == 2 * n_blocks


def test_init_determinism_bitwise():
    a = _small_net(seed=24)
    b = _small_net(seed=24)
    for (na, pa), (nb, pb) in zip(a.named_parameters(), b.named_parameters()):
        assert na == nb
        assert np.array_equal(pa.data, pb.data)
    init_parameters(a, 25)
    changed = any(
        not np.array_equal(pa.data, pb.data)
        for (_, pa), (_, pb) in zip(a.named_parameters(), b.named_parameters())
    )
    assert changed


def test_invalid_model_config():
    with pytest.raises(ConfigurationError):
        ModelConfig(channels=0)
    with pytest.raises(ConfigurationError):
        ModelConfig(gate="top1")


def test_clone_network_is_independent():
    net = _small_net(seed=26)
    perturb_parameters(net, seed=27)
    twin = clone_network(net)
    for (_, a), (_, b) in zip(net.named_parameters(), twin.named_parameters()):
        assert np.array_equal(a.data, b.data)
    twin.head_weight.data = twin.head_weight.data + 1.0
    assert not np.array_equal(net.head_weight.data, twin.head_weight.data)


# ---------------------------------------------------------------------------
# gradients through the full network


def test_fd_end_to_end_input_gradient():
    net = _small_net(seed=28)
    perturb_parameters(net, seed=29)
    rng = np.random.default_rng(30)
    x = random_volume(rng, (6, 6, 6))
    y = random_volume(rng, (6, 6, 6))

    def f(t):
        est, _ = network_forward(net, t)
        return T.charbonnier(y, est, eps=1e-3)

    rep = finite_diff_check(f, x, h=1e-3, tol=1e-2, max_entries=24, seed=31)
    assert rep.passed, rep


@pytest.mark.parametrize(
    "locator",
    [
        ("head_weight", lambda n: (n, "head_weight")),
        ("att_q_proj", lambda n: (n.blocks[0].att_bank.experts[0].q_proj, "weight")),
        ("log_temperature", lambda n: (n.blocks[0].att_bank.experts[0], "log_temperature")),
        ("local_conv", lambda n: (n.blocks[0].att_bank.experts[0], "local_conv")),
        ("ffn_w1", lambda n: (n.blocks[1].ffn_bank.experts[0].w1, "weight")),
        ("router_w_in", lambda n: (n.blocks[0].att_router.w_in, "weight")),
        ("router_w_out", lambda n: (n.blocks[1].ffn_router.w_out, "weight")),
        ("norm1_gain", lambda n: (n.blocks[0], "norm1_gain")),
        ("tail_weight", lambda n: (n, "tail_weight")),
    ],
    ids=lambda loc: loc[0],
)
def test_fd_parameter_gradients(locator):
    net = _small_net(seed=32)
    perturb_parameters(net, seed=33)
    rng = np.random.default_rng(34)
    x = random_volume(rng, (5, 5, 5)).data
    y = random_volume(rng, (5, 5, 5)).data
    holder, attr = locator[1](net)
    rep = parameter_fd(net, holder, attr, x, y, h=1e-3, tol=1e-2, max_entries=12, seed=35)
    assert rep.passed, (locator[0], rep)


# ---------------------------------------------------------------------------
# checkpoints


def test_checkpoint_round_trip_bitwise(tmp_path):
    net = _small_net(gate="top2", n_experts=3, seed=36)
    perturb_parameters(net, seed=37)
    path = tmp_path / "model.drmc"
    save_checkpoint(net, path)
    loaded = load_checkpoint(path)
    assert vars(loaded.config) == vars(net.config)
    for (na, pa), (nb, pb) in zip(net.named_parameters(), loaded.named_parameters()):
        assert na == nb
        assert np.array_equal(pa.data, pb.data)


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "bad.drmc"
    path.write_bytes(b"NOPE" + b"\x00" * 64)
    with pytest.raises(FormatError):
        load_checkpoint(path)


def test_checkpoint_truncated_names_parameter(tmp_path):
    net = _small_net(seed=38)
    path = tmp_path / "model.drmc"
    save_checkpoint(net, path)
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) // 2])
    with pytest.raises(FormatError) as e:
        load_checkpoint(path)
    assert "offset" in str(e.value)


def test_checkpoint_trailing_bytes_rejected(tmp_path):
    net = _small_net(seed=39)
    path = tmp_path / "model.drmc"
    save_checkpoint(net, path)
    path.write_bytes(path.read_bytes() + b"\x00\x00\x00\x00")
    with pytest.raises(FormatError):
        load_checkpoint(path)
