"""Self-tests of the benchmark's own arithmetic and of the tracer.

    python3 -m pytest -q perfbench/tests
"""

import contextlib
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import stats  # noqa: E402
import workloads as W  # noqa: E402
from tracer import Tracer, self_times  # noqa: E402

from drmc import analysis, cli, config, data, model, training, volio  # noqa: E402
from drmc import tensor as T  # noqa: E402

MODULES = {"tensor": T, "model": model, "training": training, "analysis": analysis,
           "data": data, "volio": volio, "config": config, "cli": cli}


# -- self time ---------------------------------------------------------------


def test_self_time_subtracts_direct_children_only():
    spans = [
        ["root", 0.0, 10.0, -1],
        ["a", 1.0, 4.0, 0],
        ["b", 5.0, 9.0, 0],
        ["b.child", 6.0, 7.0, 2],
    ]
    assert self_times(spans) == [3.0, 3.0, 3.0, 1.0]


def test_self_times_of_a_tree_sum_to_its_root():
    tr = Tracer(MODULES)
    with tr.span("root"):
        for _ in range(3):
            with tr.span("mid"):
                with tr.span("leaf"):
                    sum(range(1000))
    root = tr.spans[0]
    assert sum(self_times(tr.spans)) == pytest.approx(root[2] - root[1], rel=1e-9)
    assert all(s >= 0 for s in self_times(tr.spans))


# -- percentiles and the tail rule -------------------------------------------


@pytest.mark.parametrize("n", [5, 19, 20, 39, 40, 99, 100, 250, 1000])
@pytest.mark.parametrize("q", [50, 75, 90, 95, 99])
def test_samples_beyond_counts_distinct_samples_above_the_percentile(n, q):
    xs = np.random.default_rng(q * n).permutation(n).astype(float).tolist()
    cut = np.percentile(xs, q)
    assert stats.samples_beyond(n, q) == sum(x > cut for x in xs)


@pytest.mark.parametrize(
    "n, want",
    [(9, None), (19, None), (20, 50), (37, 50), (38, 75), (91, 75), (92, 90),
     (181, 90), (182, 95), (901, 95), (902, 99)],
)
def test_highest_tail_percentile_keeps_ten_samples_beyond(n, want):
    assert stats.highest_tail_percentile(n) == want


def test_tail_percentile_follows_the_rule_at_the_fewest_ops():
    for workload, n in run.MIN_OPS.items():
        q = run.TAIL_Q[workload]
        assert q == (stats.highest_tail_percentile(n) or 100)
        assert q == 100 or stats.samples_beyond(n, q) >= stats.MIN_BEYOND


# -- tracer --------------------------------------------------------------------


def _loss(net, rng):
    low = T.Tensor(rng.uniform(0, 1, (1, 12, 12, 12)).astype(np.float32))
    full = T.Tensor(rng.uniform(0, 1, (1, 12, 12, 12)).astype(np.float32))
    est, _ = model.network_forward(net, low)
    return T.charbonnier(full, est)


def _trained_net():
    net = model.DRMCNetwork(model.ModelConfig(channels=4, n_experts=2, n_blocks=1), seed=0)
    for _, p in net.named_parameters():  # move the zero tail off init
        p.data = p.data + np.float32(0.01)
    return net


def test_wrappers_are_installed_then_removed():
    tr = Tracer(MODULES)
    originals = [(o, a, getattr(o, a)) for o, a in tr.patched_sites()]
    with tr:
        assert all(getattr(o, a) is not f for o, a, f in originals)
        net = _trained_net()
        _loss(net, np.random.default_rng(0)).backward()
    assert all(getattr(o, a) is f for o, a, f in originals)
    assert tr.counts["tensor.nodes"] > 0
    assert tr.counts["tensor.conv3d_dense.bwd"] == 2  # head and tail
    assert tr.counts["tensor.conv3d_depthwise.fwd"] >= 1


def test_wrappers_are_removed_when_the_traced_block_raises():
    tr = Tracer(MODULES)
    originals = [(o, a, getattr(o, a)) for o, a in tr.patched_sites()]
    with pytest.raises(RuntimeError):
        with tr:
            raise RuntimeError("boom")
    assert all(getattr(o, a) is f for o, a, f in originals)


def test_tracing_leaves_values_and_gradients_unchanged():
    def grads(trace):
        net = _trained_net()
        with (Tracer(MODULES) if trace else contextlib.nullcontext()):
            loss = _loss(net, np.random.default_rng(1))
            loss.backward()
        return [loss.data] + [p.grad for p in net.parameters()]

    for a, b in zip(grads(False), grads(True)):
        assert np.array_equal(a, b)


def test_conv3d_flops_are_computed_from_shapes():
    tr = Tracer(MODULES)
    x = T.Tensor(np.ones((1, 12, 12, 12), np.float32))
    w = T.Tensor(np.ones((16, 1, 3, 3, 3), np.float32), requires_grad=True)
    with tr:
        T.tsum(T.conv3d(x, w, padding=1)).backward()
    fwd = 2 * 16 * 27 * 12**3
    assert tr.flops["conv3d_dense"] == fwd + 2 * fwd


# -- seed-independent fixed-network gate ---------------------------------------


def _fixed_ref():
    return W.load_reference(run.REFS / "fixed.json")


def test_fixed_network_gate_passes_on_this_code():
    assert W.gate_fixed_network(MODULES, _fixed_ref()) == []


def test_fixed_network_gate_catches_a_wrong_backward_rule(monkeypatch):
    gelu = T.gelu

    def slightly_wrong_gelu(x):
        out = gelu(x)
        rule = out._backward_rule
        if rule is not None:
            out._backward_rule = lambda g, grads: rule(g * np.float64(1.001), grads)
        return out

    monkeypatch.setattr(T, "gelu", slightly_wrong_gelu)
    problems = W.gate_fixed_network(MODULES, _fixed_ref())
    assert any("central differences" in p for p in problems)


def test_fixed_network_gate_catches_a_changed_forward(monkeypatch):
    layernorm = T.layernorm
    monkeypatch.setattr(T, "layernorm", lambda x, g, o, eps=1e-5: layernorm(x, g, o, 1e-3))
    problems = W.gate_fixed_network(MODULES, _fixed_ref())
    assert any("!= reference" in p for p in problems)
