"""Outside-in tracer for the drmc package.

The tracer never edits the program: it replaces the public functions of each
drmc module with timing wrappers for the duration of a ``with Tracer(...)``
block and puts every original back on exit. Names that a module imported by
name (``from .model import network_forward``) are patched at every import
site, so a call is traced however it is reached.

Per-op backward time comes from wrapping the backward rule closure that each
engine op attaches to its output tensor; the engine calls that closure from
``Tensor.backward``, whose own span is the walk overhead.

Spans (name, start, end, parent) are kept in memory and written out
once, at the end of a run.
"""

from __future__ import annotations

import os
import time
from array import array
from collections import Counter
from contextlib import contextmanager

_now = time.perf_counter

# Engine ops timed under their own name; every other public op is grouped as
# "elementwise" (add, mul, relu, gap, reshape, charbonnier, ...).
_NAMED_OPS = ("conv3d", "gelu", "matmul", "layernorm", "l2_normalize_rows", "softmax")
_BUCKET_OPS = (
    "add", "sub", "mul", "scale", "relu", "elementwise", "gap", "concat",
    "reshape", "select", "texp", "tsum", "tmean", "charbonnier",
)
OP_LAYERS = (
    "conv3d_dense", "conv3d_depthwise", "gelu", "matmul", "layernorm",
    "l2_normalize_rows", "softmax", "elementwise",
)

# (module, attribute, span name): every site a traced function is reached by.
_SITES = (
    ("model", "network_forward", "model.network_forward"),
    ("training", "network_forward", "model.network_forward"),
    ("analysis", "network_forward", "model.network_forward"),
    ("model", "route", "model.route"),
    ("model", "fuse", "model.fuse"),
    ("model", "load_checkpoint", "model.load_checkpoint"),
    ("cli", "load_checkpoint", "model.load_checkpoint"),
    ("training", "multi_center_step", "training.multi_center_step"),
    ("training", "adam_step", "training.adam_step"),
    ("training", "predict_volume", "training.predict_volume"),
    ("training", "unfold", "training.unfold"),
    ("training", "merge", "training.merge"),
    ("training", "evaluate", "training.evaluate"),
    ("training", "extract_patch_pools", "training.extract_patch_pools"),
    ("analysis", "interference", "analysis.interference"),
    ("analysis", "psnr", "analysis.psnr"),
    ("analysis", "lesion_bias", "analysis.lesion_bias"),
    ("data", "build_dataset", "data.build_dataset"),
    ("cli", "build_dataset", "data.build_dataset"),
    ("data", "generate_phantom", "data.generate_phantom"),
    ("data", "degrade", "data.degrade"),
    ("data", "resample", "data.resample"),
    ("volio", "read_volume", "volio.read_volume"),
    ("volio", "write_volume", "volio.write_volume"),
    ("config", "parse_config", "config.parse_config"),
    ("cli", "parse_config", "config.parse_config"),
    ("cli", "load_records", "cli.load_records"),
)
# Methods patched on their class: (module, class, method, span name).
_METHOD_SITES = (
    ("model", "AttentionExpert", "__call__", "model.attention_expert"),
    ("model", "FFNExpert", "__call__", "model.ffn_expert"),
    ("tensor", "Tensor", "backward", "tensor.backward_walk"),
)


def _op_cost(op: str, args, kwargs, out):
    """Layer name, computed forward FLOPs and operand bytes of one op call.

    FLOPs and bytes are computed from shapes, not measured: a multiply-add
    counts 2, and only conv3d and matmul are costed."""
    if op == "conv3d":
        x, weight = args[0], args[1]
        groups = kwargs.get("groups", args[5] if len(args) > 5 else 1)
        layer = "conv3d_dense" if groups == 1 else "conv3d_depthwise"
        macs_per_out = weight.data[0].size  # C_in/groups x kd x kh x kw
        return layer, 2 * macs_per_out * out.data.size, x.data.nbytes + weight.data.nbytes
    if op == "matmul":
        a, b = args[0], args[1]
        return op, 2 * out.data.size * a.data.shape[-1], a.data.nbytes + b.data.nbytes
    return (op if op in _NAMED_OPS else "elementwise"), 0, 0


class _TracedRule:
    """Backward rule of one graph node, timed under the op's layer name."""

    __slots__ = ("tracer", "rule", "layer", "flops", "operand_bytes")

    def __init__(self, tracer, rule, layer, flops, operand_bytes):
        self.tracer, self.rule, self.layer = tracer, rule, layer
        self.flops, self.operand_bytes = flops, operand_bytes

    def __call__(self, g, grads):
        tracer, name = self.tracer, _BWD[self.layer]
        idx = tracer.open(name)
        try:
            self.rule(g, grads)
        finally:
            tracer.close(idx)
        tracer.counts[name] += 1
        if self.flops:
            # one product per operand gradient, each the forward's size; reads
            # the incoming gradient and the operands, writes one gradient per
            # operand
            tracer.flops[self.layer] += 2 * self.flops
            tracer.nbytes[self.layer] += g.nbytes + 2 * self.operand_bytes


_FWD = {layer: f"tensor.{layer}.fwd" for layer in OP_LAYERS}
_BWD = {layer: f"tensor.{layer}.bwd" for layer in OP_LAYERS}


class Tracer:
    """Context manager that installs the wrappers and collects spans.

    ``Tracer(drmc_modules)`` takes a mapping from short module name
    ("tensor", "model", ...) to the imported drmc module. Span fields live
    in flat arrays rather than one object per span, so a long trace adds
    no work to the garbage collector."""

    def __init__(self, modules: dict):
        self.modules = modules
        self.names: list[str] = []
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.counts: Counter = Counter()
        self.flops: Counter = Counter()
        self.nbytes: Counter = Counter()
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    # -- span bookkeeping --------------------------------------------------

    def open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(_now())
        return idx

    def close(self, idx: int):
        self.ends[idx] = _now()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield idx
        finally:
            self.close(idx)

    @property
    def spans(self) -> list[tuple]:
        """Every span as (name, start, end, parent index or -1)."""
        return list(zip(self.names, self.starts, self.ends, self.parents))

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, fn, name: str, on_result=None):
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            tracer.counts[name] += 1
            if on_result is not None:
                on_result(args, kwargs, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def _wrap_op(self, fn, op: str):
        tracer = self

        def traced_op(*args, **kwargs):
            idx = tracer.open("tensor.op")
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            layer, flops, operand_bytes = _op_cost(op, args, kwargs, out)
            tracer.names[idx] = _FWD[layer]
            tracer.counts[_FWD[layer]] += 1
            if flops:
                tracer.flops[layer] += flops
                tracer.nbytes[layer] += operand_bytes + out.data.nbytes
            rule = out._backward_rule
            if rule is not None and not isinstance(rule, _TracedRule):
                tracer.counts["tensor.nodes"] += 1
                out._backward_rule = _TracedRule(tracer, rule, layer, flops, operand_bytes)
            return out

        traced_op.__wrapped__ = fn
        return traced_op

    def _count_fuse(self, args, kwargs, out):
        w = args[2] if len(args) > 2 else kwargs["w"]
        weights = w.data.ravel()
        self.counts["model.experts_available"] += int(weights.size)
        self.counts["model.experts_evaluated"] += int((weights != 0.0).sum())

    def _count_read(self, args, kwargs, out):
        path = args[0] if args else kwargs["path"]
        self.counts["volio.bytes_read"] += os.path.getsize(path)

    def _count_step(self, args, kwargs, out):
        _, buffers = out
        size = sum(a.nbytes for buf in buffers.values() for a in buf.values())
        self.counts["training.grad_buffer_bytes"] = max(
            self.counts["training.grad_buffer_bytes"], size
        )

    def _patch(self, owner, attr: str, new):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def _targets(self):
        """(owner, attribute, wrapper factory) of every site the tracer
        replaces: the single list both install() and patched_sites() use."""
        m = self.modules
        hooks = {
            "model.fuse": self._count_fuse,
            "volio.read_volume": self._count_read,
            "training.multi_center_step": self._count_step,
        }
        for op in _NAMED_OPS + _BUCKET_OPS:
            yield m["tensor"], op, lambda fn, op=op: self._wrap_op(fn, op)
        # model._transpose is an engine op that lives in model.py
        yield m["model"], "_transpose", lambda fn: self._wrap_op(fn, "transpose")
        for mod, attr, name in _SITES:
            yield m[mod], attr, lambda fn, name=name: self._wrap(fn, name, hooks.get(name))
        for mod, cls, meth, name in _METHOD_SITES:
            yield getattr(m[mod], cls), meth, lambda fn, name=name: self._wrap(fn, name)

    def install(self):
        for owner, attr, make in self._targets():
            self._patch(owner, attr, make(getattr(owner, attr)))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        try:
            self.install()
        except BaseException:
            self.uninstall()
            raise
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def patched_sites(self) -> list[tuple]:
        """(owner, attribute) of every site the tracer replaces."""
        return [(owner, attr) for owner, attr, _ in self._targets()]

    # -- output ----------------------------------------------------------------

    def write(self, path):
        """Write every span as a tab-separated line: index, name, start, end,
        parent index (-1 for a root)."""
        with open(path, "w") as fh:
            fh.write("idx\tname\tstart\tend\tparent\n")
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(f"{i}\t{name}\t{start:.9f}\t{end:.9f}\t{parent}\n")


def self_times(spans) -> list[float]:
    """Self time of each span: its duration minus the durations of its
    direct children (which the caller's nesting guarantees lie inside it)."""
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    return [(end - start) - child[i] for i, (_, start, end, _) in enumerate(spans)]
