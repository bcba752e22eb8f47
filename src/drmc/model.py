"""Dynamic-routing mixture-of-experts network for volumetric restoration.

Architecture: a shallow 3x3x3 conv head, N dynamic-routing blocks (each a
pre-norm Transformer block whose attention bank and FFN bank are banks of M
experts selected by a small router MLP), and a 3x3x3 tail conv whose output
is added back to the input (global residual). Routers are chained: each one
receives the previous router's hidden state, so expert decisions carry
cross-layer context. The tail conv is zero-initialized, making the whole
network an exact identity map before training.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from . import tensor as T
from .errors import ConfigurationError, FormatError
from .tensor import Tensor

GATE_KINDS = ("relu", "softmax", "top2", "no_h")
_GATE_CODES = {k: i for i, k in enumerate(GATE_KINDS)}

CHECKPOINT_MAGIC = b"DRMC"
CHECKPOINT_VERSION = 1


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


def _fanin_uniform(rng: np.random.Generator, shape, fan_in: int) -> np.ndarray:
    bound = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape).astype(np.float32)


class Linear(Module):
    def __init__(self, out_features: int, in_features: int, bias: bool = True):
        self.weight = Parameter(np.zeros((out_features, in_features), np.float32))
        self.bias = Parameter(np.zeros(out_features, np.float32)) if bias else None

    def _init(self, rng: np.random.Generator):
        self.weight.data = _fanin_uniform(rng, self.weight.shape, self.weight.shape[1])
        if self.bias is not None:
            self.bias.data = np.zeros_like(self.bias.data)

    def __call__(self, x: Tensor) -> Tensor:
        # x: (in, S) column-major feature matrix
        y = T.matmul(self.weight, x)
        if self.bias is not None:
            y = T.add(y, T.reshape(self.bias, (self.bias.shape[0], 1)))
        return y


class AttentionExpert(Module):
    """Channel attention with linear cost in voxel count, plus a depthwise
    conv reinstating local spatial context."""

    def __init__(self, channels: int):
        c = channels
        self.q_proj = Linear(c, c, bias=False)
        self.k_proj = Linear(c, c, bias=False)
        self.v_proj = Linear(c, c, bias=False)
        self.log_temperature = Parameter(np.zeros((), np.float32))
        self.out_proj = Linear(c, c, bias=False)
        self.local_conv = Parameter(np.zeros((c, 1, 3, 3, 3), np.float32))

    def _init(self, rng: np.random.Generator):
        self.q_proj._init(rng)
        self.k_proj._init(rng)
        self.v_proj._init(rng)
        self.log_temperature.data = np.zeros((), np.float32)
        self.out_proj._init(rng)
        self.local_conv.data = _fanin_uniform(rng, self.local_conv.shape, 27)

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

    def __init__(self, channels: int):
        c = channels
        self.w1 = Linear(2 * c, c)
        self.w2 = Linear(c, 2 * c)

    def _init(self, rng: np.random.Generator):
        self.w1._init(rng)
        self.w2._init(rng)

    def __call__(self, x: Tensor) -> Tensor:
        c, d, h, w = x.shape
        xf = T.reshape(x, (c, d * h * w))
        y = self.w2(T.gelu(self.w1(xf)))
        return T.reshape(y, (c, d, h, w))


class ExpertBank(Module):
    def __init__(self, kind: str, channels: int, n_experts: int):
        if n_experts < 1:
            raise ConfigurationError(f"expert bank needs M >= 1, got {n_experts}")
        self.kind = kind
        cls = AttentionExpert if kind == "attention" else FFNExpert
        self.experts = [cls(channels) for _ in range(n_experts)]

    def _init(self, rng: np.random.Generator):
        for e in self.experts:
            e._init(rng)

    def __len__(self):
        return len(self.experts)


class DynamicRoutingModule(Module):
    """Router MLP: [GAP(X), H] -> hidden -> M nonnegative expert weights."""

    def __init__(self, channels: int, hidden: int, n_experts: int):
        self.w_in = Linear(hidden, channels + hidden)
        self.w_out = Linear(n_experts, hidden)
        self.n_experts = n_experts
        self.hidden = hidden

    def _init(self, rng: np.random.Generator):
        self.w_in._init(rng)
        self.w_out._init(rng)


def _apply_gate(logits: Tensor, gate: str) -> Tensor:
    m = logits.shape[0]
    if gate in ("relu", "no_h"):
        return T.relu(logits)
    if gate == "softmax":
        return T.softmax(logits, axis=0)
    if gate == "top2":
        if m < 2:
            raise ConfigurationError("top2 gate requires at least 2 experts")
        keep = np.argsort(logits.data)[-2:]
        sel = np.zeros((2, m), np.float32)
        sel[np.arange(2), keep] = 1.0
        sel_t = Tensor(sel)
        kept = T.matmul(sel_t, T.reshape(logits, (m, 1)))
        sm = T.softmax(kept, axis=0)
        return T.reshape(T.matmul(_transpose(sel_t), sm), (m,))
    raise ConfigurationError(f"unknown gate kind {gate!r}, allowed: {GATE_KINDS}")


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
        raise ConfigurationError(
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
    def __init__(self, channels: int, hidden: int, n_experts: int):
        c = channels
        self.norm1_gain = Parameter(np.ones(c, np.float32))
        self.norm1_offset = Parameter(np.zeros(c, np.float32))
        self.att_bank = ExpertBank("attention", c, n_experts)
        self.att_router = DynamicRoutingModule(c, hidden, n_experts)
        self.norm2_gain = Parameter(np.ones(c, np.float32))
        self.norm2_offset = Parameter(np.zeros(c, np.float32))
        self.ffn_bank = ExpertBank("ffn", c, n_experts)
        self.ffn_router = DynamicRoutingModule(c, hidden, n_experts)

    def _init(self, rng: np.random.Generator):
        self.norm1_gain.data = np.ones_like(self.norm1_gain.data)
        self.norm1_offset.data = np.zeros_like(self.norm1_offset.data)
        self.att_bank._init(rng)
        self.att_router._init(rng)
        self.norm2_gain.data = np.ones_like(self.norm2_gain.data)
        self.norm2_offset.data = np.zeros_like(self.norm2_offset.data)
        self.ffn_bank._init(rng)
        self.ffn_router._init(rng)


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
            raise ConfigurationError(
                f"gate must be one of {GATE_KINDS}, got {self.gate!r}"
            )
        for key in ("channels", "n_experts", "n_blocks", "router_hidden"):
            if getattr(self, key) < 1:
                raise ConfigurationError(f"{key} must be >= 1, got {getattr(self, key)}")
        if self.gate == "top2" and self.n_experts < 2:
            raise ConfigurationError("gate=top2 requires n_experts >= 2")


class DRMCNetwork(Module):
    def __init__(self, config: ModelConfig, seed: int = 0):
        self.config = config
        c = config.channels
        self.head_weight = Parameter(np.zeros((c, 1, 3, 3, 3), np.float32))
        self.head_bias = Parameter(np.zeros(c, np.float32))
        self.blocks = [
            DynamicRoutingBlock(c, config.router_hidden, config.n_experts)
            for _ in range(config.n_blocks)
        ]
        self.tail_weight = Parameter(np.zeros((1, c, 3, 3, 3), np.float32))
        self.tail_bias = Parameter(np.zeros(1, np.float32))
        init_parameters(self, seed)

    def __call__(self, low: Tensor):
        return network_forward(self, low)


def init_parameters(net: DRMCNetwork, seed: int):
    """Deterministic re-initialization; tail conv stays all-zero so the
    network is the identity map until the first optimizer step."""
    rng = np.random.default_rng(seed)
    net.head_weight.data = _fanin_uniform(rng, net.head_weight.shape, 27)
    net.head_bias.data = np.zeros_like(net.head_bias.data)
    for block in net.blocks:
        block._init(rng)
    net.tail_weight.data = np.zeros_like(net.tail_weight.data)
    net.tail_bias.data = np.zeros_like(net.tail_bias.data)


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
# checkpoint format: magic, version, config record, raw float32 parameters
# in declaration order, all little-endian.


def save_checkpoint(net: DRMCNetwork, path):
    cfg = net.config
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(
            struct.pack(
                "<IIIIIB",
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
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != CHECKPOINT_MAGIC:
        raise FormatError(f"bad checkpoint magic {blob[:4]!r} at offset 0")
    header = struct.calcsize("<IIIIIB")
    if len(blob) < 4 + header:
        raise FormatError(f"truncated checkpoint header, {len(blob)} bytes")
    version, c, m, n, ch, gate_code = struct.unpack("<IIIIIB", blob[4 : 4 + header])
    if version != CHECKPOINT_VERSION:
        raise FormatError(f"unsupported checkpoint version {version}")
    if gate_code >= len(GATE_KINDS):
        raise FormatError(f"unknown gate code {gate_code}")
    net = DRMCNetwork(
        ModelConfig(
            channels=c,
            n_experts=m,
            n_blocks=n,
            router_hidden=ch,
            gate=GATE_KINDS[gate_code],
        )
    )
    offset = 4 + header
    for name, p in net.named_parameters():
        nbytes = p.data.size * 4
        chunk = blob[offset : offset + nbytes]
        if len(chunk) != nbytes:
            raise FormatError(
                f"truncated checkpoint: parameter {name} needs {nbytes} bytes "
                f"at offset {offset}, {len(chunk)} available"
            )
        p.data = np.frombuffer(chunk, dtype="<f4").reshape(p.shape).copy()
        offset += nbytes
    if offset != len(blob):
        raise FormatError(
            f"checkpoint has {len(blob) - offset} trailing bytes at offset {offset}"
        )
    return net


def clone_network(net: DRMCNetwork) -> DRMCNetwork:
    """Independent copy with identical parameters (for read-only inference
    or baseline comparisons)."""
    twin = DRMCNetwork(ModelConfig(**vars(net.config)))
    for (_, src), (_, dst) in zip(net.named_parameters(), twin.named_parameters()):
        dst.data = src.data.copy()
    return twin
