"""Reverse-mode automatic differentiation over dense 2D float64 arrays.

Minimal dynamic-tape engine: every operation returns a new Tensor holding
its forward value and a backward closure, which maps the upstream gradient
to one gradient per parent, in parent order. `Tensor.backward` is the one
place a gradient reaches a parent, and it hands arrays over: a closure owns
the upstream gradient it is given and may overwrite it, and returns arrays
no other tensor holds, one per parent, none of them twice (`__add__` gives
its second parent a copy). The graph is rebuilt each forward pass, so input
cardinalities may vary freely between passes. A tensor graph is single-owner
during a forward/backward pass; leaf values must not be mutated mid-pass, so
a closure may read the arrays its forward read.

The ops made by `_op` follow one rule: given no Tensor input they return
the plain array and record nothing; given any, they record one node, and
each plain array input is a constant leaf. Recording follows the inputs.
"""

from __future__ import annotations

import functools
import itertools
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

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape})"

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: "Tensor") -> "Tensor":
        if self.shape != other.shape:
            raise ValueError(f"elementwise add needs equal shapes, got {self.shape} and {other.shape}")
        return Tensor._make(self.data + other.data, (self, other), lambda g: (g, g.copy()))

    def __mul__(self, other) -> "Tensor":
        if isinstance(other, (int, float)):
            c = float(other)
            return Tensor._make(self.data * c, (self,), lambda g: (g * c,))
        if self.shape != other.shape:
            raise ValueError(f"elementwise mul needs equal shapes, got {self.shape} and {other.shape}")
        return Tensor._make(self.data * other.data, (self, other), lambda g: (g * other.data, g * self.data))

    def __matmul__(self, other: "Tensor") -> "Tensor":
        if self.shape[1] != other.shape[0]:
            raise ValueError(f"matmul inner dims disagree: {self.shape} @ {other.shape}")
        return Tensor._make(self.data @ other.data, (self, other), lambda g: (g @ other.data.T, self.data.T @ g))

    @property
    def T(self) -> "Tensor":
        return Tensor._make(self.data.T, (self,), lambda g: (g.T,))

    def sum(self) -> "Tensor":
        return Tensor._make(np.array([[self.data.sum()]]), (self,), lambda g: (np.full_like(self.data, g[0, 0]),))

    def backward(self) -> None:
        """Accumulate dself/dleaf into every reachable tensor's .grad, freeing the tape as it goes.

        A tensor's first gradient array becomes its .grad, not a copy, and
        later ones are added in place. Only the root's gradient is copied
        before its closure gets it, because the root keeps it; nothing is
        checked for shared memory, since every closure returns arrays no
        other tensor holds, none of them twice. Once a node has handed its
        gradients to its parents it drops its closure, its parents and,
        below the root, its own gradient, so each array only the pass
        needed is freed as soon as the pass is done with it. A graph is
        differentiated once; leaves keep their gradients.

        Raises:
            ValueError: if self is not 1x1 (loss must be scalar).
        """
        if self.shape != (1, 1):
            raise ValueError(f"backward requires a scalar, got shape {self.shape}")
        order = _toposort(self)
        self.grad = np.ones((1, 1)) if self.grad is None else self.grad + 1.0
        while order:
            node = order.pop()
            if node._backward is not None:
                grads = node._backward(node.grad.copy() if node is self else node.grad)
                for parent, g in zip(node._parents, grads, strict=True):
                    if parent.grad is not None:
                        parent.grad += g
                    else:
                        parent.grad = g
            node._parents, node._backward = (), None
            if node is not self:
                node.grad = None


def finite(x: np.ndarray) -> np.ndarray:
    """x itself; raises ValueError, as a leaf Tensor does, on a NaN or infinite entry."""
    if not np.isfinite(x).all():
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


def _op(arity: int):
    """Lift fn(*arrays, *options) -> (value, backward) into an op whose first `arity` arguments are its inputs.

    Given no Tensor input the op returns the value and records nothing. Given any, it records one node
    whose parents are the inputs, each plain array as a constant leaf. fn always receives arrays.
    """
    def lift(fn):
        @functools.wraps(fn)
        def op(*args, **options):
            inputs = args[:arity]
            for x in inputs:
                if type(x) is Tensor:
                    parents = tuple([a if type(a) is Tensor else Tensor(a, _check=False) for a in inputs])
                    y, backward = fn(*[p.data for p in parents], *args[arity:], **options)
                    return Tensor._make(y, parents, backward)
            return fn(*args, **options)[0]
        return op
    return lift


@_op(3)
def linear(x, w, b, relu: bool = False):
    """Affine map x @ w + b as one node; b is a 1xd bias row added to every row.

    relu=True clips the output at 0 in place, and the backward masks the gradient it owns by y > 0.
    """
    if x.shape[1] != w.shape[0]:
        raise ValueError(f"matmul inner dims disagree: {x.shape} @ {w.shape}")
    if b.shape != (1, w.shape[1]):
        raise ValueError(f"linear needs a 1x{w.shape[1]} bias row, got {b.shape}")
    y = x @ w
    y += b
    if relu:
        np.maximum(y, 0.0, out=y)

    def _bw(g):
        if relu:
            g *= (y > 0.0)
        return g @ w.T, x.T @ g, g.sum(axis=0, keepdims=True)

    return y, _bw


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


@_op(1)
def softmax_rows(x):
    """Row-wise softmax with per-row max subtraction for stability."""
    y = _softmax(x)
    return y, lambda g: (_softmax_grad(y, g),)


@_op(3)
def layer_norm(x, gamma, beta, eps: float = 1e-5):
    """Per-row normalization: (x - mean) / sqrt(var + eps) * gamma + beta."""
    n, d = x.shape
    if d < 2:
        raise ValueError(f"layer_norm needs width >= 2, got {d}")
    if gamma.shape != (1, d) or beta.shape != (1, d):
        raise ValueError(f"gamma/beta must be 1x{d}, got {gamma.shape} and {beta.shape}")
    # the moments as np.mean/np.var compute them, without their dispatch; in place, two (n, d) arrays fewer
    xhat = x - x.sum(axis=1, keepdims=True) / d
    inv = 1.0 / np.sqrt((xhat * xhat).sum(axis=1, keepdims=True) / d + eps)
    xhat *= inv

    def _bw(g):
        # gamma's and beta's gradients first, then x's, inv * (gh - mean(gh) - xhat * mean(gh * xhat)) per
        # row with gh = g * gamma, in g and one temporary: the same operations in the same order, so the same bits
        t = g * xhat
        g_gamma, g_beta = t.sum(axis=0, keepdims=True), g.sum(axis=0, keepdims=True)
        g *= gamma
        np.multiply(g, xhat, out=t)
        mean_gh, mean_gh_xhat = g.sum(axis=1, keepdims=True) / d, t.sum(axis=1, keepdims=True) / d
        g -= mean_gh
        np.multiply(xhat, mean_gh_xhat, out=t)
        g -= t
        g *= inv
        return g, g_gamma, g_beta

    y = xhat * gamma
    y += beta
    return y, _bw


def _split_heads(x: np.ndarray, heads: int, block_rows: int) -> np.ndarray:
    """View (rows, d) as (rows/block_rows, heads, block_rows, d/h): every head of every block of rows."""
    rows, d = x.shape
    return x.reshape(rows // block_rows, block_rows, heads, d // heads).transpose(0, 2, 1, 3)


def _merge_heads(x: np.ndarray) -> np.ndarray:
    """Inverse of _split_heads: blocks back in row order, heads side by side in the columns."""
    blocks, heads, block_rows, dh = x.shape
    return x.transpose(0, 2, 1, 3).reshape(blocks * block_rows, heads * dh)


def _padded_rows(counts: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """Stacked sets of rows padded to the largest: where each row lands, and the key mask.

    Row r of set b, which starts at row s_b, lands at row b*m + r - s_b of
    the padded stack, m the largest count. The mask, shaped to add to a
    (sets, heads, m, m) score stack, is -inf on every padded key.
    """
    counts = np.asarray(counts)
    m = counts.max()
    rows = np.repeat(np.arange(counts.size) * m - (np.cumsum(counts) - counts), counts) + np.arange(counts.sum())
    mask = np.where(np.arange(m) < counts[:, None], 0.0, -np.inf)
    return rows, mask[:, None, None, :]


def _pad(x: np.ndarray, rows: np.ndarray, size: int) -> np.ndarray:
    out = np.zeros((size, x.shape[1]))
    out[rows] = x
    return out


@_op(3)
def attention(q, k, v, heads: int, group: int | None = None, counts: list[int] | None = None):
    """Multi-head scaled dot-product attention in the network's two modes, heads side by side in the columns.

    q is (n, d), which heads must divide. Head j uses columns j*d/h ...
    (j+1)*d/h - 1 of q and computes softmax(Q_j K_j^T / sqrt(d/h)) V_j; the
    (n, d) output holds the heads in the same columns.
    counts=(n_1, ..., n_B), the global block: q, k and v are (n, d) stacks of
    B sets of rows, set b in n_b consecutive rows, and a query attends only
    to the keys of its own set. Sets of equal size are reshaped into a stack
    of blocks; unequal ones are padded to the largest, with the padded keys
    masked to -inf.
    group=g, the local block: k and v are (n*g, d/h), one head that every
    query head shares (multi-query attention), and query i attends only to
    rows i*g ... i*g+g-1.
    """
    n, d = q.shape
    if heads < 1 or d % heads != 0:
        raise ValueError(f"heads ({heads}) must divide the width ({d})")
    if (group is None) == (counts is None):
        raise ValueError("attention takes either set counts (the global block) or a key group (the local block)")
    dh, scale = d // heads, 1.0 / math.sqrt(d // heads)
    if group is not None:
        if group < 1 or k.shape != (n * group, dh) or v.shape != k.shape:
            raise ValueError(f"grouped keys and values must be ({n}*{group}, {dh}), got {k.shape} and {v.shape}")
        # one shared key/value head: the query heads become the query rows of a block per query
        q, q_rows, kv_rows, heads = q.reshape(n * heads, dh), heads, group, 1
    elif k.shape != q.shape or v.shape != q.shape:
        raise ValueError(f"set keys and values must have the queries' shape {q.shape}, got {k.shape} and {v.shape}")
    elif min(counts, default=0) < 1 or sum(counts) != n:
        raise ValueError(f"set counts must be >= 1 and sum to the {n} query and key rows, got {list(counts)}")
    else:  # a block per set
        q_rows = kv_rows = max(counts)
    padded = counts is not None and min(counts) != q_rows
    if padded:
        rows, mask = _padded_rows(counts)
        size = len(counts) * q_rows
        q, k, v = (_pad(x, rows, size) for x in (q, k, v))
    qh = _split_heads(q, heads, q_rows)
    kh = _split_heads(k, heads, kv_rows)
    vh = _split_heads(v, heads, kv_rows)
    s = qh @ kh.swapaxes(-1, -2) * scale
    if padded:
        s += mask
    w = _softmax(s)
    y = _merge_heads(w @ vh)
    y = y[rows] if padded else y.reshape(n, d)

    def _bw(g):
        gh = _split_heads(_pad(g, rows, size) if padded else g.reshape(q.shape), heads, q_rows)
        gs = _softmax_grad(w, gh @ vh.swapaxes(-1, -2)) * scale
        gq, gk = _merge_heads(gs @ kh), _merge_heads(gs.swapaxes(-1, -2) @ qh)
        gv = _merge_heads(w.swapaxes(-1, -2) @ gh)
        return (gq[rows], gk[rows], gv[rows]) if padded else (gq.reshape(n, d), gk, gv)

    return y, _bw


@_op(2)
def per_head_matmul(a, b, heads: int):
    """The per-head products a_j @ b_j stacked by rows: (p, h*c) @ (h*c, s) in h blocks gives (h*p, s).

    a_j is column block j of a and b_j row block j of b, each c wide; row
    block j of the output is a_j @ b_j, where a @ b would sum those blocks.
    """
    p, hc = a.shape
    if heads < 1 or hc % heads != 0 or b.shape[0] != hc:
        raise ValueError(f"per-head matmul needs {heads} equal column blocks of a matching b's rows, "
                         f"got {a.shape} and {b.shape}")
    ah = a.reshape(p, heads, hc // heads).swapaxes(0, 1)  # (h, p, c)
    bh = b.reshape(heads, hc // heads, b.shape[1])  # (h, c, s)

    def _bw(g):
        gh = g.reshape(heads, p, b.shape[1])
        return (gh @ bh.swapaxes(1, 2)).swapaxes(0, 1).reshape(p, hc), (ah.swapaxes(1, 2) @ gh).reshape(b.shape)

    return (ah @ bh).reshape(heads * p, b.shape[1]), _bw


@_op(1)
def max_pool_rows(x, counts: list[int]):
    """Columnwise maximum over each set of rows; (B, d) output.

    counts=(n_1, ..., n_B) splits the rows into B consecutive sets. The
    gradient routes to the argmax row per set and column; ties go to the
    lowest row index.
    """
    n, d = x.shape
    if n < 1:
        raise ValueError("max_pool_rows needs at least one row")
    if min(counts, default=0) < 1 or sum(counts) != n:
        raise ValueError(f"set counts must be >= 1 and sum to the {n} rows, got {list(counts)}")
    starts = [0, *itertools.accumulate(counts)][:-1]
    if min(counts) == max(counts):  # a stack of equal blocks, which reduceat would pool far slower
        y = x.reshape(len(counts), -1, d).max(axis=1)
    else:
        y = np.maximum.reduceat(x, starts, axis=0)

    def _bw(g):
        idx = np.stack([lo + np.argmax(x[lo:lo + c], axis=0) for lo, c in zip(starts, counts)])  # lowest index wins ties
        gx = np.zeros_like(x)
        gx[idx, np.arange(d)] = g
        return (gx,)

    return y, _bw


def pullback(outputs: tuple[Tensor, ...], grads: list[np.ndarray]) -> Tensor:
    """The 1x1 sum of <y_i, g_i> over the outputs y_i, each g_i held constant, as one node.

    Its backward gives y_i the gradient g_i, so a backward from it adds the
    vector-Jacobian products of the g_i into the leaves: one pass for the
    upstream gradients that several graphs gathered at the outputs.
    """
    value = sum(np.vdot(y.data, g) for y, g in zip(outputs, grads, strict=True))
    return Tensor._make(np.array([[value]]), tuple(outputs), lambda up: tuple(g * up[0, 0] for g in grads))


def homoscedastic_loss(pred: Tensor, target: np.ndarray, s_tran: Tensor, s_rot: Tensor) -> tuple[Tensor, np.ndarray]:
    """The homoscedastic two-task pose loss, summed over rows, as one node.

    pred and target are (B, 3) rows (dx, dy, dphi). Row i's residual
    r = pred_i - target_i gives l_tran = r_x^2 + r_y^2, l_rot = r_phi^2
    and the row loss l_tran e^-s_tran + s_tran + l_rot e^-s_rot + s_rot
    (Kendall, Gal & Cipolla 2018). Returns the 1x1 sum of the row losses
    and the (B, 3) array of (loss, l_tran, l_rot) per row. The backward is
    closed-form: 2 r [e^-s_tran, e^-s_tran, e^-s_rot] g to each row of pred,
    and the sum over rows of (1 - l e^-s) g to s_tran and s_rot.
    """
    if pred.shape[1] != 3 or target.shape != pred.shape:
        raise ValueError(f"loss needs (B, 3) predictions and targets, got {pred.shape} and {target.shape}")
    r = pred.data - target
    sq = r * r
    l_tran, l_rot = sq[:, 0] + sq[:, 1], sq[:, 2]
    e_tran, e_rot = np.exp(-s_tran.data[0, 0]), np.exp(-s_rot.data[0, 0])
    losses = l_tran * e_tran + s_tran.data[0, 0] + l_rot * e_rot + s_rot.data[0, 0]

    def _bw(g):
        g = g[0, 0]
        return (r * (g * np.array([e_tran, e_tran, e_rot])) * 2.0,
                np.array([[(g - g * l_tran * e_tran).sum()]]), np.array([[(g - g * l_rot * e_rot).sum()]]))

    loss = Tensor._make(np.array([[losses.sum()]]), (pred, s_tran, s_rot), _bw)
    return loss, np.stack((losses, l_tran, l_rot), axis=1)

