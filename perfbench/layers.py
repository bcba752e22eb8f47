"""Per-layer metrics from a traced run.

Times are seconds summed over the whole traced run: set-up (all repeats),
gates, the warm-up operation and the traced operations. Engine-op times
(``tensor.*``) are self times, so nested ops are not counted twice; module,
training, analysis, data and I/O times are inclusive span durations. Counts
are exact and repeat for a given seed.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

from tracer import OP_LAYERS, self_times

MODEL_LAYERS = ("network_forward", "attention_expert", "ffn_expert", "route", "fuse")
TRAINING_SPANS = ("multi_center_step", "adam_step", "predict_volume", "unfold", "merge",
                  "evaluate", "extract_patch_pools")
INCLUSIVE = (
    ["analysis.interference", "analysis.psnr", "analysis.lesion_bias",
     "data.build_dataset", "data.generate_phantom", "data.degrade", "data.resample",
     "volio.read_volume", "volio.write_volume", "config.parse_config", "cli.load_records"]
)


def per_layer(tracer, traced_durations, untraced_durations) -> dict:
    spans = tracer.spans
    own = self_times(spans)
    self_s, total_s = defaultdict(float), defaultdict(float)
    phase = [""] * len(spans)
    in_interference = [False] * len(spans)
    center_backward = 0.0
    op_self_in_ops = 0.0
    interference_backwards = 0
    for i, (name, start, end, parent) in enumerate(spans):
        self_s[name] += own[i]
        total_s[name] += end - start
        # a parent always precedes its children in the span list
        phase[i] = name if name.startswith("bench.") else (phase[parent] if parent >= 0 else "")
        in_interference[i] = name == "analysis.interference" or (
            parent >= 0 and in_interference[parent])
        if name == "tensor.backward_walk":
            if parent >= 0 and spans[parent][0] == "training.multi_center_step":
                center_backward += end - start
            if in_interference[i] and phase[i] == "bench.op":
                interference_backwards += 1
        if phase[i] == "bench.op" and name.endswith((".fwd", ".bwd")):
            op_self_in_ops += own[i]

    counts, m = tracer.counts, {}
    for layer in OP_LAYERS:
        m[f"tensor.{layer}.fwd_s"] = (self_s[f"tensor.{layer}.fwd"], "s")
        m[f"tensor.{layer}.bwd_s"] = (self_s[f"tensor.{layer}.bwd"], "s")
        m[f"tensor.{layer}.calls"] = (counts[f"tensor.{layer}.fwd"], "count")
    for op, layers in (("conv3d", ("conv3d_dense", "conv3d_depthwise")), ("matmul", ("matmul",))):
        m[f"tensor.{op}.gflop"] = (sum(tracer.flops[x] for x in layers) / 1e9, "GFLOP-computed")
        m[f"tensor.{op}.mbytes"] = (sum(tracer.nbytes[x] for x in layers) / 1e6, "MB-computed")
    m["tensor.backward_walk_s"] = (self_s["tensor.backward_walk"], "s")
    m["tensor.nodes"] = (counts["tensor.nodes"], "count")

    for layer in MODEL_LAYERS:
        m[f"model.{layer}.s"] = (total_s[f"model.{layer}"], "s")
        m[f"model.{layer}.calls"] = (counts[f"model.{layer}"], "count")
    m["model.experts_evaluated"] = (counts["model.experts_evaluated"], "count")
    m["model.expert_eval_frac"] = (
        counts["model.experts_evaluated"] / max(counts["model.experts_available"], 1),
        "fraction")
    m["model.load_checkpoint_s"] = (total_s["model.load_checkpoint"], "s")

    for name in TRAINING_SPANS:
        m[f"training.{name}_s"] = (total_s[f"training.{name}"], "s")
    m["training.center_backward_s"] = (center_backward, "s")
    # what multi_center_step does itself: buffer copies, averaging, zero_grad
    m["training.grad_average_s"] = (self_s["training.multi_center_step"], "s")
    m["training.grad_buffer_bytes"] = (counts["training.grad_buffer_bytes"], "bytes")

    for name in INCLUSIVE:
        m[f"{name}_s"] = (total_s[name], "s")
    n_ops = len(traced_durations)
    per_op, rest = divmod(interference_backwards, n_ops)
    m["analysis.backward_calls"] = (interference_backwards / n_ops if rest else per_op, "count")
    m["volio.bytes_read"] = (counts["volio.bytes_read"], "bytes")

    ops_time = total_s["bench.op"]
    m["trace.op_self_frac"] = (op_self_in_ops / ops_time, "fraction")
    m["trace.overhead_frac"] = (
        float(np.median(traced_durations) / np.median(untraced_durations)) - 1.0, "fraction")
    return m
