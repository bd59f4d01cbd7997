"""The finite-difference gradient oracle the tests check the tape against, and the tape ops only tests use."""

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


def sub(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise a - b of equal shapes."""
    if a.shape != b.shape:
        raise ValueError(f"elementwise sub needs equal shapes, got {a.shape} and {b.shape}")
    return Tensor._make(a.data - b.data, (a, b), lambda g: (g, -g))


def exp(x: Tensor) -> Tensor:
    """Elementwise e^x."""
    y = np.exp(x.data)
    return Tensor._make(y, (x,), lambda g: (g * y,))


def transpose(x: Tensor) -> Tensor:
    """x with rows and columns swapped."""
    return Tensor._make(x.data.T, (x,), lambda g: (g.T,))


def mean(x: Tensor) -> Tensor:
    """The 1x1 mean of all entries."""
    n = x.data.size
    return Tensor._make(np.array([[x.data.mean()]]), (x,), lambda g: (np.full_like(x.data, g[0, 0] / n),))


def concat(tensors: list[Tensor], axis: int) -> Tensor:
    """Concatenate along rows (axis=0) or columns (axis=1)."""
    if axis not in (0, 1):
        raise ValueError(f"axis must be 0 or 1, got {axis}")
    if not tensors:
        raise ValueError("concat needs at least one tensor")
    bounds = np.cumsum([0] + [t.shape[axis] for t in tensors])

    def _bw(g):
        return [g[lo:hi, :] if axis == 0 else g[:, lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:])]

    return Tensor._make(np.concatenate([t.data for t in tensors], axis=axis), tuple(tensors), _bw)
