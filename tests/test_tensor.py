"""Unit tests for the autodiff engine: hand-checked values per op, plus
central finite differences as the independent gradient oracle."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drmc import tensor as T
from drmc.errors import (
    ConfigError,
    DimensionError,
    NumericError,
    UsageError,
)
from drmc.tensor import Tensor, finite_diff_check


def _rand(shape, seed=0, lo=-1.0, hi=1.0):
    rng = np.random.default_rng(seed)
    return Tensor(rng.uniform(lo, hi, shape).astype(np.float32))


# ---------------------------------------------------------------------------
# elementwise values


def test_relu_values():
    out = T.relu(Tensor([-1.0, 0.5, 2.0]))
    assert np.array_equal(out.data, np.float32([0.0, 0.5, 2.0]))


def test_add_zero_is_bitwise_identity():
    x = _rand((3, 4), seed=1)
    out = T.add(x, Tensor(np.zeros((3, 4), np.float32)))
    assert np.array_equal(out.data, x.data)


def test_sub_mul_scale_values():
    a, b = Tensor([3.0, 5.0]), Tensor([1.0, 2.0])
    assert np.array_equal(T.sub(a, b).data, np.float32([2.0, 3.0]))
    assert np.array_equal(T.mul(a, b).data, np.float32([3.0, 10.0]))
    assert np.array_equal(T.scale(a, 2.0).data, np.float32([6.0, 10.0]))


def test_gelu_asymptotes():
    out = T.gelu(Tensor([10.0, -10.0, 0.0]))
    assert out.data[0] == pytest.approx(10.0, abs=1e-4)
    assert out.data[1] == pytest.approx(0.0, abs=1e-4)
    assert out.data[2] == 0.0


def test_elementwise_dispatch_matches_direct_ops():
    a, b = _rand((4,), seed=2), _rand((4,), seed=3)
    assert np.array_equal(T.elementwise("add", a, b).data, T.add(a, b).data)
    assert np.array_equal(T.elementwise("relu", a).data, T.relu(a).data)
    with pytest.raises(UsageError):
        T.elementwise("pow", a, b)


def test_elementwise_shape_mismatch_names_both_shapes():
    with pytest.raises(DimensionError) as e:
        T.add(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 5))))
    assert "(2, 3)" in str(e.value) and "(4, 5)" in str(e.value)


def test_broadcast_gradient_sums_over_expanded_axes():
    x = _rand((2, 3), seed=4)
    bias = Tensor(np.float32([1.0, 2.0, 3.0]), requires_grad=True)
    T.tsum(T.add(x, bias)).backward()
    assert np.array_equal(bias.grad, np.full(3, 2.0, np.float32))


# ---------------------------------------------------------------------------
# matmul


def test_matmul_identity():
    b = _rand((3, 3), seed=5)
    out = T.matmul(Tensor(np.eye(3, dtype=np.float32)), b)
    assert np.allclose(out.data, b.data)


def test_matmul_hand_arithmetic():
    out = T.matmul(Tensor([[1.0, 2.0], [3.0, 4.0]]), Tensor([[1.0], [1.0]]))
    assert np.array_equal(out.data, np.float32([[3.0], [7.0]]))


def test_matmul_inner_mismatch_error():
    with pytest.raises(DimensionError) as e:
        T.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 2))))
    assert "(2, 3)" in str(e.value) and "(4, 2)" in str(e.value)


# ---------------------------------------------------------------------------
# conv3d


def test_conv3d_pointwise_identity():
    x = _rand((1, 4, 4, 4), seed=6)
    w = Tensor(np.ones((1, 1, 1, 1, 1), np.float32))
    out = T.conv3d(x, w)
    assert np.array_equal(out.data, x.data)


def test_conv3d_zero_weight_gives_constant_bias():
    x = _rand((2, 4, 4, 4), seed=7)
    w = Tensor(np.zeros((3, 2, 3, 3, 3), np.float32))
    b = Tensor(np.float32([0.5, -1.0, 2.0]))
    out = T.conv3d(x, w, b, padding=1)
    for c, v in enumerate([0.5, -1.0, 2.0]):
        assert np.all(out.data[c] == np.float32(v))


def test_conv3d_matches_brute_force():
    rng = np.random.default_rng(8)
    x = Tensor(rng.standard_normal((2, 5, 4, 4)).astype(np.float32))
    w = Tensor(rng.standard_normal((3, 2, 3, 3, 3)).astype(np.float32))
    out = T.conv3d(x, w, padding=1).data

    xp = np.pad(x.data.astype(np.float64), ((0, 0), (1, 1), (1, 1), (1, 1)))
    ref = np.zeros_like(out, np.float64)
    for co in range(3):
        for z in range(5):
            for y in range(4):
                for xx in range(4):
                    ref[co, z, y, xx] = np.sum(
                        xp[:, z : z + 3, y : y + 3, xx : xx + 3] * w.data[co]
                    )
    assert np.allclose(out, ref, atol=1e-4)


def test_conv3d_group_errors():
    x = Tensor(np.zeros((4, 4, 4, 4), np.float32))
    w = Tensor(np.zeros((4, 2, 3, 3, 3), np.float32))
    with pytest.raises(ConfigError):
        T.conv3d(x, w, groups=2)  # groups must be 1 or C_in
    with pytest.raises(ConfigError):
        T.conv3d(x, Tensor(np.zeros((4, 4, 3, 3, 3), np.float32)), groups=4)


def test_conv3d_padding_and_groups_are_keyword_only():
    x = Tensor(np.zeros((4, 4, 4, 4), np.float32))
    w = Tensor(np.zeros((4, 1, 3, 3, 3), np.float32))
    with pytest.raises(TypeError):
        T.conv3d(x, w, None, 1, 4)


def test_conv3d_even_kernel_rejected():
    with pytest.raises(ConfigError):
        T.conv3d(
            Tensor(np.zeros((1, 4, 4, 4), np.float32)),
            Tensor(np.zeros((1, 1, 2, 3, 3), np.float32)),
        )


def test_conv3d_empty_output_error():
    with pytest.raises(DimensionError):
        T.conv3d(
            Tensor(np.zeros((1, 2, 2, 2), np.float32)),
            Tensor(np.zeros((1, 1, 3, 3, 3), np.float32)),
        )


# ---------------------------------------------------------------------------
# gap / softmax / layernorm / concat


def test_gap_constant_volume():
    out = T.gap(Tensor(np.full((3, 2, 2, 2), 1.5, np.float32)))
    assert np.array_equal(out.data, np.full(3, 1.5, np.float32))


def test_gap_mean_of_zero_two():
    x = np.zeros((1, 2, 2, 2), np.float32)
    x.ravel()[::2] = 2.0
    assert T.gap(Tensor(x)).data[0] == pytest.approx(1.0)


def test_softmax_symmetry():
    out = T.softmax(Tensor([0.0, 0.0, 0.0]), axis=0)
    assert np.allclose(out.data, 1.0 / 3.0)


def test_softmax_stability_no_overflow():
    out = T.softmax(Tensor([1000.0, 0.0]), axis=0)
    assert np.isfinite(out.data).all()
    assert out.data[0] == pytest.approx(1.0)
    assert out.data[1] == pytest.approx(0.0, abs=1e-6)


def test_softmax_nan_raises():
    with pytest.raises(NumericError):
        T.softmax(Tensor([np.nan, 0.0]), axis=0)


@settings(max_examples=30, deadline=None)
@given(
    st.lists(
        st.floats(min_value=-50, max_value=50, allow_nan=False),
        min_size=1,
        max_size=8,
    )
)
def test_softmax_rows_sum_to_one(values):
    out = T.softmax(Tensor(np.float32(values)), axis=0)
    assert out.data.sum() == pytest.approx(1.0, abs=1e-5)
    assert (out.data >= 0).all()


def test_layernorm_constant_channel_gives_offset():
    x = Tensor(np.full((4, 2, 2, 2), 7.0, np.float32))
    gain = Tensor(np.ones(4, np.float32))
    offset = Tensor(np.float32([0.0, 1.0, -2.0, 0.5]))
    out = T.layernorm(x, gain, offset)
    for c, v in enumerate([0.0, 1.0, -2.0, 0.5]):
        assert np.allclose(out.data[c], v, atol=1e-5)


def test_layernorm_already_normalized_input_preserved():
    x = np.zeros((2, 1, 1, 1), np.float32)
    x[0], x[1] = 1.0, -1.0
    out = T.layernorm(
        Tensor(x), Tensor(np.ones(2, np.float32)), Tensor(np.zeros(2, np.float32))
    )
    assert np.allclose(out.data.ravel(), [1.0, -1.0], atol=1e-4)


def test_layernorm_affine_shape_error():
    with pytest.raises(DimensionError):
        T.layernorm(
            Tensor(np.zeros((4, 2, 2, 2), np.float32)),
            Tensor(np.ones(3, np.float32)),
            Tensor(np.zeros(3, np.float32)),
        )


def test_concat_values_and_empty():
    out = T.concat(Tensor([1.0, 2.0]), Tensor([3.0]), axis=0)
    assert np.array_equal(out.data, np.float32([1.0, 2.0, 3.0]))
    x = _rand((4,), seed=9)
    out = T.concat(x, Tensor(np.zeros(0, np.float32)), axis=0)
    assert np.array_equal(out.data, x.data)


def test_concat_non_axis_mismatch_error():
    with pytest.raises(DimensionError):
        T.concat(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 4))), axis=0)


def test_concat_backward_splits_gradient():
    a = Tensor(np.float32([1.0, 2.0]), requires_grad=True)
    b = Tensor(np.float32([3.0]), requires_grad=True)
    T.tsum(T.mul(T.concat(a, b, axis=0), Tensor([1.0, 2.0, 3.0]))).backward()
    assert np.array_equal(a.grad, np.float32([1.0, 2.0]))
    assert np.array_equal(b.grad, np.float32([3.0]))


def test_select_and_reshape():
    x = Tensor(np.float32([[1.0, 2.0], [3.0, 4.0]]), requires_grad=True)
    s = T.select(T.reshape(x, (4,)), 2)
    assert s.data == 3.0
    s.backward()
    assert np.array_equal(x.grad, np.float32([[0.0, 0.0], [1.0, 0.0]]))


# ---------------------------------------------------------------------------
# charbonnier


def test_charbonnier_zero_residual_equals_eps():
    x = _rand((3, 3), seed=10)
    loss = T.charbonnier(x, Tensor(x.data.copy()), eps=1e-3)
    assert float(loss.data) == pytest.approx(1e-3, rel=1e-6)


def test_charbonnier_three_four_five():
    y = Tensor(np.full((4, 4), 3e-3, np.float32))
    loss = T.charbonnier(y, Tensor(np.zeros((4, 4), np.float32)), eps=4e-3)
    assert float(loss.data) == pytest.approx(5e-3, rel=1e-5)


def test_charbonnier_shape_mismatch():
    with pytest.raises(DimensionError):
        T.charbonnier(Tensor(np.zeros((2, 2))), Tensor(np.zeros((3,))))


# ---------------------------------------------------------------------------
# backward mechanics


def test_backward_sum_gives_ones():
    x = _rand((3, 4), seed=11)
    x.requires_grad = True
    T.tsum(x).backward()
    assert np.array_equal(x.grad, np.ones((3, 4), np.float32))


def test_backward_sum_of_squares_gives_2x():
    x = _rand((5,), seed=12)
    x.requires_grad = True
    T.tsum(T.mul(x, x)).backward()
    assert np.allclose(x.grad, 2 * x.data, atol=1e-6)


def test_backward_accumulates_until_zeroed():
    x = Tensor(np.float32([1.0, 2.0]), requires_grad=True)
    T.tsum(x).backward()
    T.tsum(x).backward()
    assert np.array_equal(x.grad, np.float32([2.0, 2.0]))
    x.zero_grad()
    T.tsum(x).backward()
    assert np.array_equal(x.grad, np.float32([1.0, 1.0]))


def test_backward_requires_scalar():
    x = _rand((3,), seed=13)
    x.requires_grad = True
    with pytest.raises(UsageError):
        T.mul(x, x).backward()


def test_gradient_linearity():
    base = _rand((6,), seed=14)

    def grad_of(fn):
        x = Tensor(base.data.copy(), requires_grad=True)
        fn(x).backward()
        return x.grad

    g1 = grad_of(lambda x: T.tsum(T.mul(x, x)))
    g2 = grad_of(lambda x: T.tsum(T.gelu(x)))
    g12 = grad_of(
        lambda x: T.add(T.tsum(T.mul(x, x)), T.scale(T.tsum(T.gelu(x)), 2.0))
    )
    assert np.allclose(g12, g1 + 2 * g2, atol=1e-5)


def test_no_grad_blocks_recording():
    x = _rand((3,), seed=15)
    x.requires_grad = True
    with T.no_grad():
        out = T.tsum(T.mul(x, x))
    out.backward()
    assert x.grad is None


def test_backward_determinism_bitwise():
    def run():
        x = _rand((4, 4), seed=16)
        x.requires_grad = True
        T.charbonnier(T.gelu(T.matmul(x, x)), Tensor(np.zeros((4, 4), np.float32))).backward()
        return x.grad.copy()

    assert np.array_equal(run(), run())


# ---------------------------------------------------------------------------
# finite-difference oracle: the checker itself, then per-op gradient checks


def test_fd_check_linear_function_is_exact():
    rep = finite_diff_check(T.tsum, _rand((8,), seed=17))
    assert rep.passed and rep.max_rel_err < 1e-9


def test_fd_check_charbonnier_self_application():
    f = lambda x: T.charbonnier(x, Tensor(np.zeros(x.shape, np.float32)), eps=1e-3)
    # Charbonnier curvature scales as 1/eps near zero residual, so the step
    # must sit well below eps for the central difference to converge.
    rep = finite_diff_check(f, _rand((4, 4), seed=18), h=1e-5, tol=1e-3)
    assert rep.passed, rep


def test_fd_check_rejects_nonscalar():
    with pytest.raises(UsageError):
        finite_diff_check(lambda x: T.mul(x, x), _rand((3,), seed=19))


def test_fd_check_rejects_nonfinite():
    bad = lambda x: T.tsum(T.mul(x, Tensor([np.inf])))
    with pytest.raises(NumericError):
        finite_diff_check(bad, Tensor(np.float32([1.0])))


_PER_OP_CASES = {
    "gelu": lambda x: T.tsum(T.gelu(x)),
    "mul_add": lambda x: T.tsum(T.mul(T.add(x, x), x)),
    "matmul": lambda x: T.tsum(T.matmul(x, _transposed := Tensor(np.full((4, 2), 0.3, np.float32)))),
    "softmax": lambda x: T.tsum(T.mul(T.softmax(x, axis=-1), Tensor(np.linspace(0, 1, x.data.size).reshape(x.shape).astype(np.float32)))),
    "l2_normalize": lambda x: T.tsum(T.mul(T.l2_normalize_rows(x), Tensor(np.linspace(-1, 1, x.data.size).reshape(x.shape).astype(np.float32)))),
    "texp": lambda x: T.tsum(T.texp(x)),
    "mean": lambda x: T.tmean(T.mul(x, x)),
    "reshape_concat": lambda x: T.tsum(T.concat(T.reshape(x, (-1,)), Tensor(np.float32([1.0])), axis=0)),
}


@pytest.mark.parametrize("name", sorted(_PER_OP_CASES))
def test_fd_per_op(name):
    shape = (3, 4)
    rep = finite_diff_check(_PER_OP_CASES[name], _rand(shape, seed=20), tol=1e-3)
    assert rep.passed, (name, rep)


def test_fd_conv3d_dense_and_depthwise():
    w_dense = Tensor(np.random.default_rng(21).standard_normal((3, 2, 3, 3, 3)).astype(np.float32))
    f = lambda x: T.tsum(T.conv3d(x, w_dense, padding=1))
    rep = finite_diff_check(f, _rand((2, 4, 4, 4), seed=22), tol=1e-3, max_entries=40)
    assert rep.passed, rep

    w_dw = Tensor(np.random.default_rng(23).standard_normal((2, 1, 3, 3, 3)).astype(np.float32))
    f = lambda x: T.tsum(T.conv3d(x, w_dw, padding=1, groups=2))
    rep = finite_diff_check(f, _rand((2, 4, 4, 4), seed=24), tol=1e-3, max_entries=40)
    assert rep.passed, rep

    # gradient with respect to the dense kernel weights
    x_fixed = _rand((2, 4, 4, 4), seed=25)
    f = lambda w: T.tsum(T.conv3d(x_fixed, w, padding=1))
    rep = finite_diff_check(f, w_dense, tol=1e-3, max_entries=40)
    assert rep.passed, rep


def test_fd_gap_and_layernorm():
    rep = finite_diff_check(lambda x: T.tsum(T.gap(x)), _rand((3, 3, 3, 3), seed=26), tol=1e-3, max_entries=30)
    assert rep.passed, rep

    gain = Tensor(np.float32([1.2, 0.8, 1.0]))
    offset = Tensor(np.float32([0.1, -0.2, 0.0]))
    probe = Tensor(np.random.default_rng(27).standard_normal((3, 2, 2, 2)).astype(np.float32))
    f = lambda x: T.tsum(T.mul(T.layernorm(x, gain, offset), probe))
    rep = finite_diff_check(f, _rand((3, 2, 2, 2), seed=28), tol=1e-3, max_entries=24)
    assert rep.passed, rep


def test_fd_charbonnier_gradient():
    target = _rand((3, 3), seed=29)
    f = lambda x: T.charbonnier(target, x, eps=1e-3)
    rep = finite_diff_check(f, _rand((3, 3), seed=30), h=1e-5, tol=1e-3)
    assert rep.passed, rep
