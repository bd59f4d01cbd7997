"""Per-array references for training: zeroed gradients and the Adam update, one array at a time."""

import numpy as np

from attnloc import attention_net as net


def zero_grads(params: net.ModelParams) -> None:
    """A fresh zero gradient array for every parameter."""
    for t in params.tensors.values():
        t.grad = np.zeros_like(t.data)


class AdamState:
    """Per-parameter first/second moment accumulators and step counter."""

    def __init__(self, params: net.ModelParams):
        self.m = {k: np.zeros_like(t.data) for k, t in params.items()}
        self.v = {k: np.zeros_like(t.data) for k, t in params.items()}
        self.t = 0


def adam_step(
    params: net.ModelParams,
    grads: dict[str, np.ndarray],
    state: AdamState,
    lr: float,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> None:
    """One bias-corrected Adam update, array by array; params then binds the new arrays as one new vector."""
    state.t += 1
    t = state.t
    for name, tensor in params.items():
        g = grads[name]
        if g.shape != tensor.data.shape:
            raise ValueError(f"gradient shape {g.shape} does not match {name} {tensor.data.shape}")
        m = state.m[name] = beta1 * state.m[name] + (1 - beta1) * g
        v = state.v[name] = beta2 * state.v[name] + (1 - beta2) * g * g
        m_hat = m / (1 - beta1**t)
        v_hat = v / (1 - beta2**t)
        tensor.data = tensor.data - lr * m_hat / (np.sqrt(v_hat) + eps)
    params.bind(np.concatenate([t.data.ravel() for _, t in params.items()]))
