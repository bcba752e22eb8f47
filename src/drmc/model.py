"""Dynamic-routing mixture-of-experts network for volumetric restoration.

Architecture: a shallow 3x3x3 conv head, N dynamic-routing blocks (each a
pre-norm Transformer block whose attention bank and FFN bank are banks of M
experts selected by a small router MLP), and a 3x3x3 tail conv whose output
is added back to the input (global residual). Routers are chained: each one
receives the previous router's hidden state, so expert decisions carry
cross-layer context. The tail conv is zero-initialized, making the whole
network an exact identity map before training.

Every module takes a parameter source ``init`` and asks it for each of its
parameters in declaration order, so the constructors are the one walk over
the parameter layout: ``draw(rng)`` fills it with initial values, and
``load_checkpoint`` fills it from a file.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from typing import Callable, Iterator, Optional

import numpy as np

from . import tensor as T
from .errors import ConfigError, FormatError
from .tensor import Tensor

GATE_KINDS = ("relu", "softmax", "top2", "no_h")
_GATE_CODES = {k: i for i, k in enumerate(GATE_KINDS)}

CHECKPOINT_MAGIC = b"DRMC"
CHECKPOINT_VERSION = 1
# version, channels, experts, blocks, router width, gate code
CHECKPOINT_HEADER = struct.Struct("<IIIIIB")

# init(shape, fan_in=0, fill=0.0) -> float32 array of that shape
Init = Callable[..., np.ndarray]


def draw(rng: np.random.Generator) -> Init:
    """Parameter source for a fresh network: a uniform draw in
    +-1/sqrt(fan_in) when ``fan_in`` is given, the constant ``fill``
    otherwise (which consumes no random numbers)."""

    def init(shape: tuple, fan_in: int = 0, fill: float = 0.0) -> np.ndarray:
        if fan_in:
            bound = 1.0 / np.sqrt(fan_in)
            return rng.uniform(-bound, bound, size=shape).astype(np.float32)
        return np.full(shape, fill, np.float32)

    return init


class Parameter(Tensor):
    def __init__(self, data):
        super().__init__(data, requires_grad=True)


class Module:
    """Tiny container base: parameter traversal in declaration order."""

    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Parameter]]:
        for name, value in vars(self).items():
            full = f"{prefix}{name}"
            if isinstance(value, Parameter):
                yield full, value
            elif isinstance(value, Module):
                yield from value.named_parameters(f"{full}.")
            elif isinstance(value, (list, tuple)):
                for i, item in enumerate(value):
                    if isinstance(item, Module):
                        yield from item.named_parameters(f"{full}.{i}.")

    def parameters(self) -> list[Parameter]:
        return [p for _, p in self.named_parameters()]

    def zero_grad(self):
        for p in self.parameters():
            p.zero_grad()


class Linear(Module):
    def __init__(self, out_features: int, in_features: int, init: Init, bias: bool = True):
        self.weight = Parameter(init((out_features, in_features), fan_in=in_features))
        self.bias = Parameter(init((out_features,))) if bias else None

    def __call__(self, x: Tensor) -> Tensor:
        # x: (in, S) column-major feature matrix
        y = T.matmul(self.weight, x)
        if self.bias is not None:
            y = T.add(y, T.reshape(self.bias, (self.bias.shape[0], 1)))
        return y


class AttentionExpert(Module):
    """Channel attention with linear cost in voxel count, plus a depthwise
    conv reinstating local spatial context."""

    def __init__(self, channels: int, init: Init):
        c = channels
        self.q_proj = Linear(c, c, init, bias=False)
        self.k_proj = Linear(c, c, init, bias=False)
        self.v_proj = Linear(c, c, init, bias=False)
        self.log_temperature = Parameter(init(()))
        self.out_proj = Linear(c, c, init, bias=False)
        self.local_conv = Parameter(init((c, 1, 3, 3, 3), fan_in=27))

    def __call__(self, x: Tensor) -> Tensor:
        c, d, h, w = x.shape
        xf = T.reshape(x, (c, d * h * w))
        q = T.l2_normalize_rows(self.q_proj(xf))
        k = T.l2_normalize_rows(self.k_proj(xf))
        v = self.v_proj(xf)
        temp = T.texp(self.log_temperature)
        attn = T.softmax(T.mul(T.matmul(q, _transpose(k)), temp), axis=-1)
        y = self.out_proj(T.matmul(attn, v))
        y4 = T.reshape(y, (c, d, h, w))
        return T.add(y4, T.conv3d(y4, self.local_conv, padding=1, groups=c))


def _transpose(t: Tensor) -> Tensor:
    rows, cols = t.shape

    def rule(g, grads):
        T._accum(grads, t, g.T)

    return T._node(t.data.T.copy(), (t,), rule)


class FFNExpert(Module):
    """Position-wise 2-layer MLP with GELU, hidden width 2C."""

    def __init__(self, channels: int, init: Init):
        c = channels
        self.w1 = Linear(2 * c, c, init)
        self.w2 = Linear(c, 2 * c, init)

    def __call__(self, x: Tensor) -> Tensor:
        c, d, h, w = x.shape
        xf = T.reshape(x, (c, d * h * w))
        y = self.w2(T.gelu(self.w1(xf)))
        return T.reshape(y, (c, d, h, w))


class ExpertBank(Module):
    def __init__(self, kind: str, channels: int, n_experts: int, init: Init):
        if n_experts < 1:
            raise ConfigError(f"expert bank needs M >= 1, got {n_experts}")
        cls = AttentionExpert if kind == "attention" else FFNExpert
        self.experts = [cls(channels, init) for _ in range(n_experts)]

    def __len__(self):
        return len(self.experts)


class DynamicRoutingModule(Module):
    """Router MLP: [GAP(X), H] -> hidden -> M nonnegative expert weights."""

    def __init__(self, channels: int, hidden: int, n_experts: int, init: Init):
        self.w_in = Linear(hidden, channels + hidden, init)
        self.w_out = Linear(n_experts, hidden, init)
        self.n_experts = n_experts
        self.hidden = hidden


def _apply_gate(logits: Tensor, gate: str) -> Tensor:
    m = logits.shape[0]
    if gate in ("relu", "no_h"):
        return T.relu(logits)
    if gate == "softmax":
        return T.softmax(logits, axis=0)
    if gate == "top2":
        if m < 2:
            raise ConfigError("top2 gate requires at least 2 experts")
        # softmax over the two largest logits; the rest get exactly zero
        mask = np.full(m, -np.inf, logits.data.dtype)
        mask[np.argsort(logits.data)[-2:]] = 0.0
        return T.softmax(T.add(logits, Tensor(mask)), axis=0)
    raise ConfigError(f"unknown gate kind {gate!r}, allowed: {GATE_KINDS}")


def route(
    drm: DynamicRoutingModule, x: Tensor, h_prev: Tensor, gate: str
) -> tuple[Tensor, Tensor]:
    """One routing decision: returns (expert weights, next hidden state)."""
    pooled = T.gap(x)
    if gate == "no_h":
        h_prev = Tensor(np.zeros(drm.hidden, np.float32))
    inp = T.reshape(T.concat(pooled, h_prev, axis=0), (-1, 1))
    hidden = T.relu(drm.w_in(inp))
    logits = T.reshape(drm.w_out(hidden), (drm.n_experts,))
    w = _apply_gate(logits, gate)
    h_next = T.reshape(hidden, (drm.hidden,))
    return w, h_next


def fuse(bank: ExpertBank, x: Tensor, w: Tensor) -> Tensor:
    """Weighted sum of expert outputs; experts with exactly-zero weight are
    never evaluated."""
    if w.shape != (len(bank),):
        raise ConfigError(
            f"weight vector shape {w.shape} does not match bank size {len(bank)}"
        )
    out: Optional[Tensor] = None
    for m, expert in enumerate(bank.experts):
        wm = float(w.data[m])
        if wm == 0.0:
            continue
        term = T.mul(T.select(w, m), expert(x))
        out = term if out is None else T.add(out, term)
    if out is None:
        return Tensor(np.zeros(x.shape, x.data.dtype))
    return out


class DynamicRoutingBlock(Module):
    def __init__(self, channels: int, hidden: int, n_experts: int, init: Init):
        c = channels
        self.norm1_gain = Parameter(init((c,), fill=1.0))
        self.norm1_offset = Parameter(init((c,)))
        self.att_bank = ExpertBank("attention", c, n_experts, init)
        self.att_router = DynamicRoutingModule(c, hidden, n_experts, init)
        self.norm2_gain = Parameter(init((c,), fill=1.0))
        self.norm2_offset = Parameter(init((c,)))
        self.ffn_bank = ExpertBank("ffn", c, n_experts, init)
        self.ffn_router = DynamicRoutingModule(c, hidden, n_experts, init)


def drb_forward(
    block: DynamicRoutingBlock, x: Tensor, h: Tensor, gate: str
) -> tuple[Tensor, Tensor, list[Tensor]]:
    """One block; ``h`` is the router chain's hidden state, returned updated."""
    xn = T.layernorm(x, block.norm1_gain, block.norm1_offset)
    w_att, h1 = route(block.att_router, xn, h, gate)
    u = T.add(x, fuse(block.att_bank, xn, w_att))
    un = T.layernorm(u, block.norm2_gain, block.norm2_offset)
    w_ffn, h2 = route(block.ffn_router, un, h1, gate)
    y = T.add(u, fuse(block.ffn_bank, un, w_ffn))
    return y, h2, [w_att, w_ffn]


@dataclass
class ModelConfig:
    channels: int = 16
    n_experts: int = 3
    n_blocks: int = 3
    router_hidden: Optional[int] = None
    gate: str = "relu"

    def __post_init__(self):
        if self.router_hidden is None:
            self.router_hidden = self.channels
        if self.gate not in GATE_KINDS:
            raise ConfigError(
                f"gate must be one of {GATE_KINDS}, got {self.gate!r}"
            )
        for key in ("channels", "n_experts", "n_blocks", "router_hidden"):
            if getattr(self, key) < 1:
                raise ConfigError(f"{key} must be >= 1, got {getattr(self, key)}")
        if self.gate == "top2" and self.n_experts < 2:
            raise ConfigError("gate=top2 requires n_experts >= 2")


class DRMCNetwork(Module):
    """Parameters come from ``init`` in declaration order; by default they
    are drawn from ``seed``. The drawn tail conv is all-zero, so a fresh
    network is the identity map until the first optimizer step."""

    def __init__(self, config: ModelConfig, seed: int = 0, init: Optional[Init] = None):
        if init is None:
            init = draw(np.random.default_rng(seed))
        self.config = config
        c = config.channels
        self.head_weight = Parameter(init((c, 1, 3, 3, 3), fan_in=27))
        self.head_bias = Parameter(init((c,)))
        self.blocks = [
            DynamicRoutingBlock(c, config.router_hidden, config.n_experts, init)
            for _ in range(config.n_blocks)
        ]
        self.tail_weight = Parameter(init((1, c, 3, 3, 3)))
        self.tail_bias = Parameter(init((1,)))


def network_forward(net: DRMCNetwork, low: Tensor) -> tuple[Tensor, list[Tensor]]:
    """Full forward pass: returns (estimate, routing weight log of length 2N)."""
    f = T.conv3d(low, net.head_weight, net.head_bias, padding=1)
    h = Tensor(np.zeros(net.config.router_hidden, np.float32))
    route_logs: list[Tensor] = []
    for block in net.blocks:
        f, h, logs = drb_forward(block, f, h, net.config.gate)
        route_logs.extend(logs)
    est = T.add(low, T.conv3d(f, net.tail_weight, net.tail_bias, padding=1))
    return est, route_logs


# ---------------------------------------------------------------------------
# checkpoint format, all little-endian: magic, CHECKPOINT_HEADER, then the
# float32 parameters in declaration order.


def save_checkpoint(net: DRMCNetwork, path):
    cfg = net.config
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(
            CHECKPOINT_HEADER.pack(
                CHECKPOINT_VERSION,
                cfg.channels,
                cfg.n_experts,
                cfg.n_blocks,
                cfg.router_hidden,
                _GATE_CODES[cfg.gate],
            )
        )
        for _, p in net.named_parameters():
            fh.write(p.data.astype("<f4").tobytes())


def load_checkpoint(path) -> DRMCNetwork:
    """Build the network the header declares, reading each parameter from
    the file as its constructor asks for it: nothing is drawn, and no read
    goes past the end of the file."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != CHECKPOINT_MAGIC:
        raise FormatError(f"bad checkpoint magic {blob[:4]!r} at offset 0")
    offset = 4 + CHECKPOINT_HEADER.size
    if len(blob) < offset:
        raise FormatError(
            f"truncated checkpoint header: file ends at offset {len(blob)}, "
            f"header ends at offset {offset}"
        )
    version, c, m, n, h, gate_code = CHECKPOINT_HEADER.unpack_from(blob, 4)
    if version != CHECKPOINT_VERSION:
        raise FormatError(f"unsupported checkpoint version {version} at offset 4")
    if gate_code >= len(GATE_KINDS):
        raise FormatError(f"unknown gate code {gate_code} at offset 24")
    try:
        config = ModelConfig(
            channels=c, n_experts=m, n_blocks=n, router_hidden=h, gate=GATE_KINDS[gate_code]
        )
    except ConfigError as e:
        raise FormatError(f"invalid checkpoint header at offsets 8-24: {e}") from None

    def read(shape: tuple, fan_in: int = 0, fill: float = 0.0) -> np.ndarray:
        nonlocal offset
        # math.prod over Python ints: the u32 dims cannot wrap
        size = math.prod(shape)
        end = offset + 4 * size
        if end > len(blob):
            raise FormatError(
                f"checkpoint ends at offset {len(blob)}, inside a parameter "
                f"spanning offsets {offset}-{end}"
            )
        data = np.frombuffer(blob, "<f4", count=size, offset=offset)
        offset = end
        return data.reshape(shape).astype(np.float32)

    net = DRMCNetwork(config, init=read)
    if offset != len(blob):
        raise FormatError(
            f"checkpoint parameters end at offset {offset}, "
            f"but the file ends at offset {len(blob)}"
        )
    return net
