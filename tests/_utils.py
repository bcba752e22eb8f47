"""Shared helpers for the test suite."""

import numpy as np

from drmc import tensor as T
from drmc.model import load_checkpoint, network_forward, save_checkpoint
from drmc.tensor import Tensor, finite_diff_check


def perturb_parameters(net, seed=0, amplitude=0.05):
    """Move every parameter (including the zero tail conv) off its initial
    value so all experts are active and router logits sit away from the
    ReLU-gate kinks where one-sided derivatives break finite differencing."""
    rng = np.random.default_rng(seed)
    for _, p in net.named_parameters():
        p.data = (
            p.data + rng.uniform(-amplitude, amplitude, size=p.data.shape)
        ).astype(np.float32)


def clone(net, tmp_path):
    """Independent copy with identical parameters, through a checkpoint."""
    path = tmp_path / "clone.drmc"
    save_checkpoint(net, path)
    return load_checkpoint(path)


def input_loss_fn(net, y, eps=1e-3):
    """Scalar loss as a function of the network input volume."""

    def f(t):
        est, _ = network_forward(net, t)
        return T.charbonnier(Tensor(y), est, eps=eps)

    return f


def parameter_fd(net, holder, attr, x, y, **kw):
    """Finite-difference check of the loss gradient with respect to one
    parameter tensor, by temporarily substituting the attribute during the
    closure's forward pass."""
    orig = getattr(holder, attr)

    def f(t):
        setattr(holder, attr, t)
        try:
            est, _ = network_forward(net, Tensor(x))
            return T.charbonnier(Tensor(y), est)
        finally:
            setattr(holder, attr, orig)

    return finite_diff_check(f, orig, **kw)


def random_volume(rng, shape, channels=1):
    return Tensor(rng.uniform(0.0, 1.0, (channels,) + tuple(shape)).astype(np.float32))
