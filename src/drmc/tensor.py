"""Minimal reverse-mode autodiff over dense float arrays.

The design follows the classic taped-graph pattern: every operation creates a
new Tensor that remembers its parents and a closure computing the local
vector-Jacobian product. Creation order doubles as topological order, and
``Tensor.backward`` walks the reachable graph in strict reverse creation
order, accumulating (never overwriting) into parent gradients.

Storage is float32 by default; reductions accumulate in float64 before
casting back. Operations preserve a float64 input dtype, which the
finite-difference checker exploits for its numeric side.
"""

from __future__ import annotations

import itertools
import math
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import DimensionError, ConfigurationError, NumericError, UsageError

_ids = itertools.count()
_grad_enabled = True

_GELU_C = math.sqrt(2.0 / math.pi)
_GELU_A = 0.044715


@contextmanager
def no_grad():
    """Disable graph recording inside the block (inference / oracles)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


def _as_array(data) -> np.ndarray:
    arr = np.asarray(data)
    if arr.dtype not in (np.float32, np.float64):
        arr = arr.astype(np.float32)
    return arr


class Tensor:
    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward_rule", "_id")

    def __init__(self, data, requires_grad: bool = False):
        self.data = _as_array(data)
        self.requires_grad = bool(requires_grad)
        self.grad: Optional[np.ndarray] = None
        self._parents: tuple = ()
        self._backward_rule: Optional[Callable[[np.ndarray], None]] = None
        self._id = next(_ids)

    @property
    def shape(self):
        return self.data.shape

    def zero_grad(self):
        self.grad = None

    def detach(self) -> "Tensor":
        return Tensor(self.data)

    def item(self) -> float:
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    # Convenience arithmetic; the full op set lives at module level.
    def __add__(self, other):
        return add(self, other if isinstance(other, Tensor) else Tensor(other))

    def __sub__(self, other):
        return sub(self, other if isinstance(other, Tensor) else Tensor(other))

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return scale(self, float(other))
        return mul(self, other)

    __rmul__ = __mul__

    def backward(self):
        """Reverse-mode sweep from a scalar tensor.

        Accumulates into ``grad`` of every reachable tensor with
        ``requires_grad``; repeated calls keep accumulating until grads are
        zeroed.
        """
        if self.data.size != 1:
            raise UsageError(
                f"backward requires a scalar loss, got shape {self.data.shape}"
            )
        # Iterative reachability; process in reverse creation order.
        seen = {self._id}
        stack = [self]
        nodes = []
        while stack:
            t = stack.pop()
            nodes.append(t)
            for p in t._parents:
                if p._id not in seen:
                    seen.add(p._id)
                    stack.append(p)
        nodes.sort(key=lambda t: t._id, reverse=True)

        grads: dict[int, np.ndarray] = {self._id: np.ones_like(self.data)}
        for t in nodes:
            g = grads.pop(t._id, None)
            if g is None:
                continue
            if t.requires_grad and t._parents == ():
                if t.grad is None:
                    t.grad = np.zeros_like(t.data)
                t.grad += g.astype(t.data.dtype, copy=False)
            if t._backward_rule is not None:
                t._backward_rule(g, grads)

    def reshape(self, shape) -> "Tensor":
        return reshape(self, shape)


def _accum(grads: dict, t: Tensor, g: np.ndarray):
    # Rebinding (never in-place mutation) keeps accumulation safe for views.
    tid = t._id
    if tid in grads:
        grads[tid] = grads[tid] + g
    else:
        grads[tid] = g


def _needs_graph(*parents: Tensor) -> bool:
    return _grad_enabled and any(
        p.requires_grad or p._backward_rule is not None for p in parents
    )


def _node(data: np.ndarray, parents: Sequence[Tensor], rule) -> Tensor:
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    out._id = next(_ids)
    if _needs_graph(*parents):
        out.requires_grad = False
        out._parents = tuple(parents)
        out._backward_rule = rule
    else:
        out.requires_grad = False
        out._parents = ()
        out._backward_rule = None
    return out


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum ``g`` down to ``shape`` (inverse of numpy broadcasting)."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def _check_broadcast(a: Tensor, b: Tensor, name: str):
    try:
        np.broadcast_shapes(a.shape, b.shape)
    except ValueError:
        raise DimensionError(
            f"{name}: shapes {a.shape} and {b.shape} are not compatible"
        ) from None


# ---------------------------------------------------------------------------
# elementwise ops


def add(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcast(a, b, "add")

    def rule(g, grads):
        _accum(grads, a, _unbroadcast(g, a.shape))
        _accum(grads, b, _unbroadcast(g, b.shape))

    return _node(a.data + b.data, (a, b), rule)


def sub(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcast(a, b, "sub")

    def rule(g, grads):
        _accum(grads, a, _unbroadcast(g, a.shape))
        _accum(grads, b, -_unbroadcast(g, b.shape))

    return _node(a.data - b.data, (a, b), rule)


def mul(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcast(a, b, "mul")

    def rule(g, grads):
        _accum(grads, a, _unbroadcast(g * b.data, a.shape))
        _accum(grads, b, _unbroadcast(g * a.data, b.shape))

    return _node(a.data * b.data, (a, b), rule)


def scale(a: Tensor, s: float) -> Tensor:
    s = float(s)

    def rule(g, grads):
        _accum(grads, a, g * s)

    return _node(a.data * s, (a,), rule)


def relu(a: Tensor) -> Tensor:
    out_data = np.maximum(a.data, 0)

    def rule(g, grads):
        _accum(grads, a, g * (a.data > 0))

    return _node(out_data, (a,), rule)


def gelu(a: Tensor) -> Tensor:
    """GELU via the tanh approximation (closed-form gradient)."""
    x = a.data
    inner = _GELU_C * (x + _GELU_A * x**3)
    t = np.tanh(inner)
    out_data = 0.5 * x * (1.0 + t)

    def rule(g, grads):
        dinner = _GELU_C * (1.0 + 3.0 * _GELU_A * x**2)
        d = 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t**2) * dinner
        _accum(grads, a, g * d)

    return _node(out_data, (a,), rule)


def elementwise(op_kind: str, a: Tensor, b: Optional[Tensor] = None) -> Tensor:
    """Uniform entry point over the elementwise kinds."""
    if op_kind in ("add", "sub", "mul"):
        if b is None:
            raise UsageError(f"{op_kind} is binary")
        return {"add": add, "sub": sub, "mul": mul}[op_kind](a, b)
    if op_kind == "scale":
        if b is None or b.data.size != 1:
            raise UsageError("scale expects a scalar second argument")
        return mul(a, b)
    if op_kind == "relu":
        return relu(a)
    if op_kind == "gelu":
        return gelu(a)
    raise UsageError(f"unknown elementwise kind {op_kind!r}")


# ---------------------------------------------------------------------------
# linear algebra


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise DimensionError(
            f"matmul expects >=2-d operands, got {a.shape} and {b.shape}"
        )
    if a.data.shape[-1] != b.data.shape[-2]:
        raise DimensionError(
            f"matmul inner dimensions disagree: {a.shape} x {b.shape}"
        )

    def rule(g, grads):
        ga = np.matmul(g, np.swapaxes(b.data, -1, -2))
        gb = np.matmul(np.swapaxes(a.data, -1, -2), g)
        _accum(grads, a, _unbroadcast(ga, a.shape))
        _accum(grads, b, _unbroadcast(gb, b.shape))

    return _node(np.matmul(a.data, b.data), (a, b), rule)


def _conv_slices(off: int, stride: int, out_len: int):
    return slice(off, off + (out_len - 1) * stride + 1, stride)


def conv3d(
    x: Tensor,
    weight: Tensor,
    bias: Optional[Tensor] = None,
    stride: int = 1,
    padding: int = 0,
    groups: int = 1,
) -> Tensor:
    """3-D cross-correlation over a [C,D,H,W] volume.

    ``groups=1`` is a dense conv, ``groups=C_in`` is depthwise. Implemented
    as one (C_out x C_in/g) matmul per kernel offset: fast in numpy, no
    im2col buffer.
    """
    if x.data.ndim != 4:
        raise DimensionError(f"conv3d input must be [C,D,H,W], got {x.shape}")
    c_in = x.data.shape[0]
    c_out, c_in_g, kd, kh, kw = weight.data.shape
    if any(k % 2 == 0 for k in (kd, kh, kw)):
        raise ConfigurationError(f"kernel sizes must be odd, got {(kd, kh, kw)}")
    if groups not in (1, c_in):
        raise ConfigurationError(f"groups must be 1 or C_in={c_in}, got {groups}")
    if c_in % groups != 0 or c_in_g != c_in // groups:
        raise ConfigurationError(
            f"channel count {c_in} not compatible with groups={groups} "
            f"and weight shape {weight.data.shape}"
        )
    depthwise = groups == c_in and groups > 1
    if depthwise and c_out != c_in:
        raise ConfigurationError("depthwise conv requires C_out == C_in")

    pad = padding
    xp = np.pad(x.data, ((0, 0), (pad, pad), (pad, pad), (pad, pad)))
    _, dp, hp, wp = xp.shape
    do = (dp - kd) // stride + 1
    ho = (hp - kh) // stride + 1
    wo = (wp - kw) // stride + 1
    if min(do, ho, wo) < 1:
        raise DimensionError(
            f"conv3d output would be empty for input {x.shape}, "
            f"kernel {(kd, kh, kw)}, padding {padding}"
        )

    out_data = np.zeros((c_out, do, ho, wo), dtype=np.result_type(x.data, weight.data))
    for dz in range(kd):
        sz = _conv_slices(dz, stride, do)
        for dy in range(kh):
            sy = _conv_slices(dy, stride, ho)
            for dx in range(kw):
                sx = _conv_slices(dx, stride, wo)
                patch = xp[:, sz, sy, sx]
                w_off = weight.data[:, :, dz, dy, dx]
                if depthwise:
                    out_data += w_off.reshape(c_out, 1, 1, 1) * patch
                else:
                    out_data += np.tensordot(w_off, patch, axes=([1], [0]))
    if bias is not None:
        out_data = out_data + bias.data.reshape(c_out, 1, 1, 1)

    def rule(g, grads):
        gxp = np.zeros_like(xp)
        gw = np.zeros_like(weight.data)
        for dz in range(kd):
            sz = _conv_slices(dz, stride, do)
            for dy in range(kh):
                sy = _conv_slices(dy, stride, ho)
                for dx in range(kw):
                    sx = _conv_slices(dx, stride, wo)
                    patch = xp[:, sz, sy, sx]
                    w_off = weight.data[:, :, dz, dy, dx]
                    if depthwise:
                        gxp[:, sz, sy, sx] += w_off.reshape(c_out, 1, 1, 1) * g
                        gw[:, 0, dz, dy, dx] += (g * patch).sum(axis=(1, 2, 3))
                    else:
                        gxp[:, sz, sy, sx] += np.tensordot(
                            w_off.T, g, axes=([1], [0])
                        )
                        gw[:, :, dz, dy, dx] += np.tensordot(
                            g.reshape(c_out, -1),
                            patch.reshape(c_in, -1).T,
                            axes=([1], [0]),
                        )
        if pad:
            gx = gxp[:, pad:-pad, pad:-pad, pad:-pad]
        else:
            gx = gxp
        _accum(grads, x, gx)
        _accum(grads, weight, gw)
        if bias is not None:
            _accum(grads, bias, g.sum(axis=(1, 2, 3)))

    parents = (x, weight) if bias is None else (x, weight, bias)
    return _node(out_data, parents, rule)


def gap(x: Tensor) -> Tensor:
    """Global average pooling [C,D,H,W] -> [C] (float64 accumulation)."""
    if x.data.ndim != 4:
        raise DimensionError(f"gap input must be [C,D,H,W], got {x.shape}")
    c = x.data.shape[0]
    n = x.data[0].size
    if n == 0:
        raise DimensionError(f"gap over empty spatial extent, shape {x.shape}")
    out_data = x.data.reshape(c, -1).mean(axis=1, dtype=np.float64).astype(x.data.dtype)

    def rule(g, grads):
        _accum(grads, x, np.broadcast_to(g.reshape(c, 1, 1, 1) / n, x.shape).copy())

    return _node(out_data, (x,), rule)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    if np.isnan(x.data).any():
        raise NumericError("softmax input contains NaN")
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    s = e / e.sum(axis=axis, keepdims=True)

    def rule(g, grads):
        dot = (g * s).sum(axis=axis, keepdims=True)
        _accum(grads, x, s * (g - dot))

    return _node(s, (x,), rule)


def layernorm(x: Tensor, gain: Tensor, offset: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize over the channel axis (axis 0) at every spatial position."""
    c = x.data.shape[0]
    if gain.data.shape != (c,) or offset.data.shape != (c,):
        raise DimensionError(
            f"layernorm affine shapes {gain.shape}/{offset.shape} "
            f"do not match channel count {c}"
        )
    bshape = (c,) + (1,) * (x.data.ndim - 1)
    mean = x.data.mean(axis=0, keepdims=True, dtype=np.float64)
    var = x.data.var(axis=0, keepdims=True, dtype=np.float64)
    inv = (1.0 / np.sqrt(var + eps)).astype(x.data.dtype)
    xhat = ((x.data - mean) * inv).astype(x.data.dtype)
    out_data = gain.data.reshape(bshape) * xhat + offset.data.reshape(bshape)

    def rule(g, grads):
        gxhat = g * gain.data.reshape(bshape)
        m1 = gxhat.mean(axis=0, keepdims=True)
        m2 = (gxhat * xhat).mean(axis=0, keepdims=True)
        _accum(grads, x, inv * (gxhat - m1 - xhat * m2))
        red = tuple(range(1, x.data.ndim))
        _accum(grads, gain, (g * xhat).sum(axis=red))
        _accum(grads, offset, g.sum(axis=red))

    return _node(out_data, (x, gain, offset), rule)


def concat(a: Tensor, b: Tensor, axis: int = 0) -> Tensor:
    sa, sb = list(a.shape), list(b.shape)
    if len(sa) != len(sb):
        raise DimensionError(f"concat rank mismatch: {a.shape} vs {b.shape}")
    axis = axis % len(sa)
    if sa[:axis] + sa[axis + 1 :] != sb[:axis] + sb[axis + 1 :]:
        raise DimensionError(
            f"concat non-axis dimensions differ: {a.shape} vs {b.shape} on axis {axis}"
        )
    na = a.shape[axis]

    def rule(g, grads):
        ga, gb = np.split(g, [na], axis=axis)
        _accum(grads, a, ga)
        _accum(grads, b, gb)

    return _node(np.concatenate([a.data, b.data], axis=axis), (a, b), rule)


def reshape(x: Tensor, shape) -> Tensor:
    shape = tuple(shape)

    def rule(g, grads):
        _accum(grads, x, g.reshape(x.shape))

    return _node(x.data.reshape(shape), (x,), rule)


def select(x: Tensor, index: int) -> Tensor:
    """Scalar view of one flat element (used for routing weights)."""
    flat = x.data.ravel()
    if not 0 <= index < flat.size:
        raise DimensionError(f"index {index} out of range for shape {x.shape}")

    def rule(g, grads):
        gx = np.zeros_like(x.data)
        gx.ravel()[index] = g
        _accum(grads, x, gx)

    return _node(flat[index].copy().reshape(()), (x,), rule)


def texp(x: Tensor) -> Tensor:
    out_data = np.exp(x.data)

    def rule(g, grads):
        _accum(grads, x, g * out_data)

    return _node(out_data, (x,), rule)


def l2_normalize_rows(x: Tensor, eps: float = 1e-12) -> Tensor:
    """Normalize each row of a 2-d tensor to unit L2 norm."""
    if x.data.ndim != 2:
        raise DimensionError(f"l2_normalize_rows expects 2-d input, got {x.shape}")
    norm = np.sqrt((x.data.astype(np.float64) ** 2).sum(axis=1, keepdims=True) + eps)
    norm = norm.astype(x.data.dtype)
    y = x.data / norm

    def rule(g, grads):
        dot = (g * y).sum(axis=1, keepdims=True)
        _accum(grads, x, (g - y * dot) / norm)

    return _node(y, (x,), rule)


def tsum(x: Tensor) -> Tensor:
    def rule(g, grads):
        _accum(grads, x, np.broadcast_to(g, x.shape).copy())

    return _node(np.asarray(x.data.sum(dtype=np.float64), dtype=x.data.dtype), (x,), rule)


def tmean(x: Tensor) -> Tensor:
    n = x.data.size

    def rule(g, grads):
        _accum(grads, x, np.broadcast_to(g / n, x.shape).copy())

    return _node(
        np.asarray(x.data.mean(dtype=np.float64), dtype=x.data.dtype), (x,), rule
    )


def charbonnier(y: Tensor, y_hat: Tensor, eps: float = 1e-3) -> Tensor:
    """Mean over voxels of sqrt((y - y_hat)^2 + eps^2); smooth everywhere."""
    if y.shape != y_hat.shape:
        raise DimensionError(
            f"charbonnier shapes differ: {y.shape} vs {y_hat.shape}"
        )
    r = y.data - y_hat.data
    s = np.sqrt(r * r + eps * eps)
    n = r.size
    loss = np.asarray(s.mean(dtype=np.float64), dtype=r.dtype)

    def rule(g, grads):
        d = g * r / s / n
        _accum(grads, y, d)
        _accum(grads, y_hat, -d)

    return _node(loss, (y, y_hat), rule)


# ---------------------------------------------------------------------------
# finite-difference oracle


@dataclass
class FiniteDiffReport:
    max_rel_err: float
    mean_rel_err: float
    tol: float
    n_checked: int
    passed: bool


def finite_diff_check(
    f: Callable[[Tensor], Tensor],
    x: Tensor,
    h: float = 1e-3,
    tol: float = 1e-3,
    max_entries: Optional[int] = None,
    seed: int = 0,
) -> FiniteDiffReport:
    """Compare the analytic gradient of scalar-valued ``f`` at ``x`` against
    central finite differences.

    The numeric side evaluates ``f`` on float64 copies (ops preserve the
    wider dtype), so its accuracy is limited by h^2 rather than float32
    rounding. Per-coordinate relative error uses a scale floor of 1e-2 of
    the largest gradient magnitude so that near-zero coordinates are judged
    on the gradient's overall scale.
    """
    xt = Tensor(x.data.copy(), requires_grad=True)
    out = f(xt)
    if out.data.size != 1:
        raise UsageError("finite_diff_check needs a scalar-valued function")
    if not np.isfinite(out.data).all():
        raise NumericError("function produced non-finite output")
    out.backward()
    analytic = (
        np.zeros(x.data.size) if xt.grad is None else xt.grad.astype(np.float64).ravel()
    )

    base = x.data.astype(np.float64).ravel()
    n = base.size
    if max_entries is not None and max_entries < n:
        rng = np.random.default_rng(seed)
        idxs = np.sort(rng.choice(n, size=max_entries, replace=False))
    else:
        idxs = np.arange(n)

    numeric = np.empty(len(idxs))
    with no_grad():
        for k, i in enumerate(idxs):
            pert = base.copy()
            pert[i] += h
            lp = float(f(Tensor(pert.reshape(x.shape))).data)
            pert[i] -= 2 * h
            lm = float(f(Tensor(pert.reshape(x.shape))).data)
            if not (math.isfinite(lp) and math.isfinite(lm)):
                raise NumericError("non-finite output during finite differencing")
            numeric[k] = (lp - lm) / (2.0 * h)

    a = analytic[idxs]
    gmax = max(np.abs(a).max(initial=0.0), np.abs(numeric).max(initial=0.0))
    if gmax == 0.0:
        errs = np.zeros(len(idxs))
    else:
        floor = 1e-2 * gmax
        denom = np.maximum(np.maximum(np.abs(a), np.abs(numeric)), floor)
        errs = np.abs(a - numeric) / denom
    max_err = float(errs.max(initial=0.0))
    mean_err = float(errs.mean()) if len(errs) else 0.0
    return FiniteDiffReport(max_err, mean_err, tol, len(idxs), max_err < tol)
