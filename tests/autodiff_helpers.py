"""The finite-difference gradient oracle the tests check the tape against."""

import numpy as np

from attnloc.autodiff import Tensor


def numeric_gradient(f, x: Tensor, h: float = 1e-5) -> np.ndarray:
    """Central finite differences of a scalar-valued f with respect to x.

    The oracle for gradient checks: f is re-evaluated with perturbed copies
    of x.data, so it must not cache state across calls.
    """
    g = np.zeros_like(x.data)
    flat = x.data.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = f()
        flat[i] = orig - h
        fm = f()
        flat[i] = orig
        g.ravel()[i] = (fp - fm) / (2.0 * h)
    return g


def relative_error(a: np.ndarray, b: np.ndarray) -> float:
    """max |a - b| / max(1, |a|, |b|), a scale-aware gradient-check metric."""
    denom = max(1.0, float(np.abs(a).max(initial=0.0)), float(np.abs(b).max(initial=0.0)))
    return float(np.abs(a - b).max(initial=0.0)) / denom


def check_gradient(build, params: list[Tensor], h: float = 1e-5) -> float:
    """Worst relative error between analytic and numeric gradients.

    `build` constructs and returns the scalar loss Tensor from the current
    values of `params`.
    """
    for p in params:
        p.grad = None
    loss = build()
    loss.backward()
    worst = 0.0
    for p in params:
        analytic = p.grad if p.grad is not None else np.zeros_like(p.data)
        numeric = numeric_gradient(lambda: float(build().data[0, 0]), p, h=h)
        worst = max(worst, relative_error(analytic, numeric))
    return worst
