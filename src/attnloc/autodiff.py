"""Reverse-mode automatic differentiation over dense 2D float64 arrays.

Minimal dynamic-tape engine: every operation returns a new Tensor holding
its forward value and a backward closure, a pure map from the upstream
gradient to one gradient per parent, in parent order. `Tensor.backward` is
the one place a gradient reaches a parent: it adds each returned array into
that parent's `.grad`. The graph is rebuilt each forward pass, so input
cardinalities may vary freely between passes. A tensor graph is single-owner
during a forward/backward pass; leaf values must not be mutated mid-pass, so
a closure may read the arrays its forward read.

Given plain arrays, all inputs of one kind, the forward ops (`linear`,
`relu`, `layer_norm`, `attention`, `max_pool_rows`) run the same value
expression and checks and return an array: recording follows the inputs.
"""

from __future__ import annotations

import functools
import math

import numpy as np


class Tensor:
    """A 2D float64 array node on the autodiff tape.

    Scalars are stored as 1x1, row vectors as 1xN. Leaf tensors (no
    parents) are parameters or constants; `backward` on a scalar loss
    accumulates gradients into every reachable tensor's `.grad`.
    """

    __slots__ = ("data", "grad", "_parents", "_backward")

    def __init__(self, data, _parents: tuple = (), _backward=None, _check: bool = True):
        arr = np.asarray(data, dtype=np.float64)
        if arr.ndim == 0:
            arr = arr.reshape(1, 1)
        elif arr.ndim == 1:
            arr = arr.reshape(1, -1)
        elif arr.ndim != 2:
            raise ValueError(f"tensors are 2D, got shape {arr.shape}")
        if _check:
            finite(arr)
        self.data = arr
        self.grad: np.ndarray | None = None
        self._parents = _parents
        self._backward = _backward

    @classmethod
    def _make(cls, data: np.ndarray, parents: tuple, backward) -> "Tensor":
        """An op's output node; backward maps its gradient to one gradient per parent."""
        return cls(data, parents, backward, _check=False)

    @property
    def shape(self) -> tuple[int, int]:
        return self.data.shape

    def _accum(self, g: np.ndarray) -> None:
        # copy on the first write, so no two tensors share a gradient array
        if self.grad is None:
            self.grad = g.copy()
        else:
            self.grad += g

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape})"

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: "Tensor") -> "Tensor":
        if self.shape != other.shape:
            raise ValueError(f"elementwise add needs equal shapes, got {self.shape} and {other.shape}")
        return Tensor._make(self.data + other.data, (self, other), lambda g: (g, g))

    def __sub__(self, other: "Tensor") -> "Tensor":
        if self.shape != other.shape:
            raise ValueError(f"elementwise sub needs equal shapes, got {self.shape} and {other.shape}")
        return Tensor._make(self.data - other.data, (self, other), lambda g: (g, -g))

    def __mul__(self, other) -> "Tensor":
        if isinstance(other, (int, float)):
            c = float(other)
            return Tensor._make(self.data * c, (self,), lambda g: (g * c,))
        if self.shape != other.shape:
            raise ValueError(f"elementwise mul needs equal shapes, got {self.shape} and {other.shape}")
        return Tensor._make(self.data * other.data, (self, other), lambda g: (g * other.data, g * self.data))

    __rmul__ = __mul__

    def __matmul__(self, other: "Tensor") -> "Tensor":
        if self.shape[1] != other.shape[0]:
            raise ValueError(f"matmul inner dims disagree: {self.shape} @ {other.shape}")
        return Tensor._make(self.data @ other.data, (self, other), lambda g: (g @ other.data.T, self.data.T @ g))

    def __neg__(self) -> "Tensor":
        return self * -1.0

    def relu(self) -> "Tensor":
        return relu(self)

    def exp(self) -> "Tensor":
        y = np.exp(self.data)
        return Tensor._make(y, (self,), lambda g: (g * y,))

    def sum(self) -> "Tensor":
        return Tensor._make(np.array([[self.data.sum()]]), (self,), lambda g: (np.full_like(self.data, g[0, 0]),))

    def backward(self) -> None:
        """Accumulate dself/dleaf into every reachable tensor's .grad.

        Raises:
            ValueError: if self is not 1x1 (loss must be scalar).
        """
        if self.shape != (1, 1):
            raise ValueError(f"backward requires a scalar, got shape {self.shape}")
        order = _toposort(self)
        self._accum(np.ones((1, 1)))
        for node in reversed(order):
            if node._backward is not None:
                for parent, g in zip(node._parents, node._backward(node.grad), strict=True):
                    parent._accum(g)


def finite(x: np.ndarray) -> np.ndarray:
    """x itself; raises ValueError, as a leaf Tensor does, on a NaN or infinite entry."""
    if not np.all(np.isfinite(x)):
        raise ValueError("tensor entries must be finite")
    return x


def _toposort(root: Tensor) -> list[Tensor]:
    """Post-order of root and every non-leaf tensor it depends on.

    Leaves have no backward, so they are left out. A node is marked visited
    when popped, not when pushed: a node pushed again by a later parent must
    be expanded from there, or on a DAG it could land after a consumer.
    """
    order: list[Tensor] = []
    visited: set[Tensor] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if node in visited:
            continue
        visited.add(node)
        stack.append((node, True))
        for p in node._parents:
            if p._parents and p not in visited:
                stack.append((p, False))
    return order


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Affine map x @ w + b as one node; b is a 1xd bias row added to every row."""
    if x.shape[1] != w.shape[0]:
        raise ValueError(f"matmul inner dims disagree: {x.shape} @ {w.shape}")
    if b.shape != (1, w.shape[1]):
        raise ValueError(f"linear needs a 1x{w.shape[1]} bias row, got {b.shape}")
    tape = isinstance(x, Tensor)
    xd, wd, bd = (x.data, w.data, b.data) if tape else (x, w, b)
    y = xd @ wd
    y += bd
    if not tape:
        return y
    return Tensor._make(y, (x, w, b), lambda g: (g @ wd.T, xd.T @ g, g.sum(axis=0, keepdims=True)))


def relu(x: Tensor) -> Tensor:
    """Elementwise max(x, 0); `Tensor.relu` is this op."""
    tape = isinstance(x, Tensor)
    xd = x.data if tape else x
    y = np.maximum(xd, 0.0)
    if not tape:
        return y
    return Tensor._make(y, (x,), lambda g: (g * (xd > 0.0),))


def _softmax(x: np.ndarray) -> np.ndarray:
    """Softmax over the last axis with per-row max subtraction for stability.

    Both softmax helpers reduce over a 2D (rows, last) view: numpy may sum a
    short axis in another order when the array has more dimensions, and a
    stack of score matrices should round exactly like the same rows in one
    matrix.
    """
    rows = x.reshape(-1, x.shape[-1])
    e = np.exp(rows - rows.max(axis=1, keepdims=True))
    return (e / e.sum(axis=1, keepdims=True)).reshape(x.shape)


def _softmax_grad(y: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Gradient through y = softmax(x) over the last axis: y * (g - sum_j g_j y_j)."""
    y2, g2 = y.reshape(-1, y.shape[-1]), g.reshape(-1, y.shape[-1])
    return (y2 * (g2 - (g2 * y2).sum(axis=1, keepdims=True))).reshape(y.shape)


def softmax_rows(x: Tensor) -> Tensor:
    """Row-wise softmax with per-row max subtraction for stability."""
    y = _softmax(x.data)
    return Tensor._make(y, (x,), lambda g: (_softmax_grad(y, g),))


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    """Per-row normalization: (x - mean) / sqrt(var + eps) * gamma + beta."""
    n, d = x.shape
    if d < 2:
        raise ValueError(f"layer_norm needs width >= 2, got {d}")
    if gamma.shape != (1, d) or beta.shape != (1, d):
        raise ValueError(f"gamma/beta must be 1x{d}, got {gamma.shape} and {beta.shape}")
    tape = isinstance(x, Tensor)
    xd, gd, bd = (x.data, gamma.data, beta.data) if tape else (x, gamma, beta)
    # the moments as np.mean/np.var compute them, without their dispatch
    xc = xd - xd.sum(axis=1, keepdims=True) / d
    inv = 1.0 / np.sqrt((xc * xc).sum(axis=1, keepdims=True) / d + eps)
    xhat = xc * inv
    y = xhat * gd + bd
    if not tape:
        return y

    def _bw(g):
        gh = g * gd
        # standard layer-norm input gradient, per row
        mean_gh = gh.sum(axis=1, keepdims=True) / d
        mean_gh_xhat = (gh * xhat).sum(axis=1, keepdims=True) / d
        gx = inv * (gh - mean_gh - xhat * mean_gh_xhat)
        return gx, (g * xhat).sum(axis=0, keepdims=True), g.sum(axis=0, keepdims=True)

    return Tensor._make(y, (x, gamma, beta), _bw)


def _split_heads(x: np.ndarray, heads: int, block_rows: int) -> np.ndarray:
    """View (rows, d) as (rows/block_rows, heads, block_rows, d/h): every head of every block of rows."""
    rows, d = x.shape
    return x.reshape(rows // block_rows, block_rows, heads, d // heads).transpose(0, 2, 1, 3)


def _merge_heads(x: np.ndarray) -> np.ndarray:
    """Inverse of _split_heads: blocks back in row order, heads side by side in the columns."""
    blocks, heads, block_rows, dh = x.shape
    return x.transpose(0, 2, 1, 3).reshape(blocks * block_rows, heads * dh)


# The three contractions of attention on per-head stacks: (dot) scores from
# queries and keys, (mix) weighted sums of the values, and (outer) the
# weight-by-row products that carry gradients back to the keys and values.
# Global mode runs them as batched BLAS matmuls; grouped mode, with many tiny
# per-group matrices, as einsum loops.
_GLOBAL_CONTRACTIONS = (
    lambda a, b: a @ b.swapaxes(-1, -2),
    np.matmul,
    lambda w, a: w.swapaxes(-1, -2) @ a,
)
_GROUPED_CONTRACTIONS = tuple(
    functools.partial(np.einsum, spec) for spec in ("nhqc,nhgc->nhqg", "nhqg,nhgc->nhqc", "nhqg,nhqc->nhgc")
)


def attention(q: Tensor, k: Tensor, v: Tensor, heads: int, group: int | None = None) -> Tensor:
    """Multi-head scaled dot-product attention, heads side by side in the columns.

    q is (n, d); k and v have equal shapes and width d, which heads must
    divide. Head j uses columns j*d/h ... (j+1)*d/h - 1 of q, k and v and
    computes softmax(Q_j K_j^T / sqrt(d/h)) V_j; the (n, d) output holds the
    heads in the same columns. group=None: every query attends to all rows of
    k. group=g: k has n*g rows and query i attends only to rows
    i*g ... i*g+g-1.
    """
    n, d = q.shape
    if k.shape[1] != d or v.shape != k.shape:
        raise ValueError(f"attention needs equal widths and key/value shapes, got q {q.shape}, k {k.shape}, v {v.shape}")
    if heads < 1 or d % heads != 0:
        raise ValueError(f"heads ({heads}) must divide the width ({d})")
    if n < 1 or k.shape[0] < 1:
        raise ValueError("attention needs at least one query and one key")
    if group is not None and (group < 1 or k.shape[0] != n * group):
        raise ValueError(f"grouped keys must have n*group = {n}*{group} rows, got {k.shape[0]}")
    scale = 1.0 / math.sqrt(d // heads)
    dot, mix, outer = _GLOBAL_CONTRACTIONS if group is None else _GROUPED_CONTRACTIONS
    # one block of all rows, or in grouped mode a block per query and per key group
    q_rows, kv_rows = (n, k.shape[0]) if group is None else (1, group)
    tape = isinstance(q, Tensor)
    qd, kd, vd = (q.data, k.data, v.data) if tape else (q, k, v)
    qh = _split_heads(qd, heads, q_rows)
    kh = _split_heads(kd, heads, kv_rows)
    vh = _split_heads(vd, heads, kv_rows)
    w = _softmax(dot(qh, kh) * scale)
    y = _merge_heads(mix(w, vh))
    if not tape:
        return y

    def _bw(g):
        gh = _split_heads(g, heads, q_rows)
        gs = _softmax_grad(w, dot(gh, vh)) * scale
        return _merge_heads(mix(gs, kh)), _merge_heads(outer(gs, qh)), _merge_heads(outer(w, gh))

    return Tensor._make(y, (q, k, v), _bw)


def max_pool_rows(x: Tensor) -> Tensor:
    """Columnwise maximum over rows; 1xd output.

    The gradient routes to the argmax row per column; ties go to the
    lowest row index.
    """
    n, d = x.shape
    if n < 1:
        raise ValueError("max_pool_rows needs at least one row")
    tape = isinstance(x, Tensor)
    xd = x.data if tape else x
    y = xd.max(axis=0, keepdims=True)
    if not tape:
        return y
    idx = np.argmax(xd, axis=0)  # lowest index wins ties

    def _bw(g):
        gx = np.zeros_like(xd)
        gx[idx, np.arange(d)] = g[0, :]
        return (gx,)

    return Tensor._make(y, (x,), _bw)


def glorot_uniform(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    """Glorot/Xavier uniform init for a fan_in x fan_out weight matrix."""
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))
