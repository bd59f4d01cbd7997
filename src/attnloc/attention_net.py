"""Attention network for measurement-to-landmark association and offset regression.

Pipeline: kNN grouping of landmarks around each measurement, row-wise
feed-forward embeddings, per-measurement local attention over the grouped
neighbors, global self-attention over the local features, max pooling, and
a feed-forward head regressing the pose offset (dx, dy, dphi).
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .geometry import PoseOffset, as_points, wrap_angle


@dataclass(frozen=True)
class NetConfig:
    """Architecture hyperparameters.

    d_m: model width, also the block feed-forward width. heads must divide
    d_m. k: neighbors per measurement, each embedded from its knn_group row.
    """

    d_m: int = 64
    heads: int = 4
    k: int = 8
    rff_hidden: int = 64
    head_hidden: tuple[int, ...] = (128, 64)
    seed: int = 0

    def __post_init__(self) -> None:
        if min(map(operator.index, (self.d_m, self.heads, self.k, self.rff_hidden, *self.head_hidden))) < 1:
            raise ValueError("d_m, heads, k, rff_hidden and head_hidden must be integers >= 1")
        check_seed(self.seed)
        if self.d_m % self.heads != 0:
            raise ValueError(f"heads ({self.heads}) must divide d_m ({self.d_m})")


def check_seed(seed) -> int:
    """seed as an int; ValueError unless it is an integer >= 0."""
    if not isinstance(seed, numbers.Integral) or seed < 0:
        raise ValueError(f"seed must be an integer >= 0, got {seed!r}")
    return int(seed)


class ModelParams:
    """Named parameter tensors plus the loss log-variances s_tran, s_rot.

    A parameter changes by replacing its array, never in place; derived
    caches inference_weights(self), None until its first call.
    """

    def __init__(self, config: NetConfig, tensors: dict[str, Tensor]):
        self.config = config
        self.tensors = tensors
        self.derived: InferenceWeights | None = None

    def __getitem__(self, name: str) -> Tensor:
        return self.tensors[name]

    def items(self):
        return self.tensors.items()

    def zero_grads(self) -> None:
        for t in self.tensors.values():
            t.grad = np.zeros_like(t.data)

    def param_count(self) -> int:
        return sum(t.data.size for t in self.tensors.values())


BLOCKS = ("local", "global")


def _rff_shapes(widths: list[int]) -> list[tuple[int, int]]:
    return list(zip(widths[:-1], widths[1:]))


def param_shapes(cfg: NetConfig) -> dict[str, tuple[int, int]]:
    """Shape of every named parameter array for a configuration.

    Each block keeps one fused (d, d) `{block}.q/k/v` projection, head i in
    columns i*d/h ... (i+1)*d/h - 1.
    """
    d = cfg.d_m
    shapes: dict[str, tuple[int, int]] = {}
    for prefix, width_in in (("embed_m", 2), ("embed_l", 3)):
        for i, (fi, fo) in enumerate(_rff_shapes([width_in, cfg.rff_hidden, d])):
            shapes[f"{prefix}.w{i}"] = (fi, fo)
            shapes[f"{prefix}.b{i}"] = (1, fo)
    for block in BLOCKS:
        for p in "qkv":
            shapes[f"{block}.{p}"] = (d, d)
        shapes[f"{block}.out"] = (d, d)
        shapes[f"{block}.ln1.g"] = (1, d)
        shapes[f"{block}.ln1.b"] = (1, d)
        for i, (fi, fo) in enumerate(_rff_shapes([d, d, d])):
            shapes[f"{block}.ff.w{i}"] = (fi, fo)
            shapes[f"{block}.ff.b{i}"] = (1, fo)
        shapes[f"{block}.ln2.g"] = (1, d)
        shapes[f"{block}.ln2.b"] = (1, d)
    head_widths = [d, *cfg.head_hidden, 3]
    for i, (fi, fo) in enumerate(_rff_shapes(head_widths)):
        shapes[f"head.w{i}"] = (fi, fo)
        shapes[f"head.b{i}"] = (1, fo)
    shapes["s_tran"] = (1, 1)
    shapes["s_rot"] = (1, 1)
    return shapes


def init_params(cfg: NetConfig) -> ModelParams:
    """Glorot-uniform weights, zero biases, unit layer-norm gains, s_* = 0, drawn from cfg.seed.

    Weights are drawn in parameter order. Each block's q/k/v projections are
    drawn head by head (q head 0, k head 0, v head 0, q head 1, ...) at
    (d, d/h), and each fused array is its heads side by side.
    """
    rng = np.random.default_rng(cfg.seed)

    def glorot(fan_in: int, fan_out: int) -> np.ndarray:
        limit = math.sqrt(6.0 / (fan_in + fan_out))
        return rng.uniform(-limit, limit, size=(fan_in, fan_out))

    d, dh = cfg.d_m, cfg.d_m // cfg.heads
    arrays: dict[str, np.ndarray] = {}
    for name, (r, c) in param_shapes(cfg).items():
        block, _, leaf = name.rpartition(".")
        if leaf == "q":
            heads = [[glorot(d, dh) for _ in "qkv"] for _ in range(cfg.heads)]
            for p, parts in zip("qkv", zip(*heads)):
                arrays[f"{block}.{p}"] = np.concatenate(parts, axis=1)
        elif leaf in ("k", "v"):
            continue  # drawn with q
        elif leaf[0] == "w" or leaf == "out":
            arrays[name] = glorot(r, c)
        elif leaf == "g":
            arrays[name] = np.ones((r, c))
        else:  # biases, layer-norm shifts, s_tran, s_rot
            arrays[name] = np.zeros((r, c))
    return ModelParams(cfg, {name: Tensor(arr) for name, arr in arrays.items()})


def knn_group(measurements, landmarks, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Group the k nearest landmarks (ascending distance) per measurement.

    Returns (indices, features): indices is (nu, k), landmark indices nearest
    first; features is (nu*k, 3), per neighbor (dx, dy, distance) relative to
    its measurement in the vehicle frame, measurement i in rows i*k ...
    i*k+k-1. Ties break toward the lower landmark index. When fewer than k
    landmarks exist, the sorted neighbor list repeats cyclically to length k.
    """
    m = as_points(measurements)
    lm = ad.finite(as_points(landmarks))  # a bad landmark may fall in no group, out of forward's input check
    if m.shape[0] == 0 or lm.shape[0] == 0:
        raise ValueError("knn_group needs at least one measurement and one landmark")
    if k < 1:
        raise ValueError("k must be >= 1")
    delta = lm[None, :, :] - m[:, None, :]  # (nu, L, 2)
    dist = np.hypot(delta[..., 0], delta[..., 1])
    idx = np.argsort(dist, axis=1, kind="stable")[:, np.arange(k) % lm.shape[0]]
    rows = np.arange(m.shape[0])[:, None]
    feats = np.concatenate((delta[rows, idx], dist[rows, idx][..., None]), axis=2)
    return idx, feats.reshape(-1, 3)


def _rff(x: Tensor, params: ModelParams, prefix: str, layers: int = 2) -> Tensor:
    """Row-wise feed-forward net: `layers` affine maps with ReLU between them."""
    for i in range(layers):
        x = ad.linear(x, params[f"{prefix}.w{i}"], params[f"{prefix}.b{i}"])
        if i < layers - 1:
            x = ad.relu(x)
    return x


def mha_block(x: Tensor, k: Tensor, v: Tensor, params: ModelParams, block: str, group: int | None = None,
              counts: list[int] | None = None) -> Tensor:
    """Set Transformer MAB: LayerNorm(S + rFF(S)), S = LayerNorm(X + Multihead(X, Y, Y)).

    k and v are the projected keys Y Wk and values Y Wv; the block projects
    the queries X Wq itself. group=None: every row of x attends to all rows
    of k. group=g: row i of x attends only to rows i*g ... i*g+g-1 of k.
    counts=(n_1, ..., n_B): x, k and v stack B sets of rows and a row attends
    only to the rows of its own set.
    """
    att = ad.attention(x @ params[f"{block}.q"], k, v, params.config.heads, group, counts)
    return _tail(x, att @ params[f"{block}.out"], params, block)


def _tail(x: Tensor, y: Tensor, params: ModelParams, block: str) -> Tensor:
    """The block after its attention's output map Y: LayerNorm(S + rFF(S)), S = LayerNorm(X + Y)."""
    s = ad.layer_norm(x + y, params[f"{block}.ln1.g"], params[f"{block}.ln1.b"])
    return ad.layer_norm(s + _rff(s, params, f"{block}.ff"), params[f"{block}.ln2.g"], params[f"{block}.ln2.b"])


def _local_maps(params, cfg: NetConfig) -> tuple:
    """(M, N, e): the local block's maps folded onto the neighbor hidden layer H, its one shared key/value head.

    The embedding ends in N = H W1 + b1, and the block's head j scores
    (X Wq_j)(N Wk_j)^T / sqrt(d_h) and mixes N Wv_j into the output through
    Wout_j, row block j of Wout. The key bias b1 Wk_j scores every neighbor
    of a query alike, so the softmax drops it; the query folds back through
    W1 Wk_j, M_j = Wq_j (W1 Wk_j)^T sqrt(rff_hidden / d_h), and since the
    weights sum to one the values fold forward, N_j = (W1 Wv_j) Wout_j and
    e = b1 Wv Wout. So attention(X M, H, H) @ N + e = Multihead(X, N, N) Wout.
    """
    w1, wv, wout = params["embed_l.w1"], params["local.v"], params["local.out"]
    m = ad.per_head_matmul(w1 @ params["local.k"], params["local.q"].T, cfg.heads).T
    scale = math.sqrt(cfg.rff_hidden / (cfg.d_m // cfg.heads))
    return m * scale, ad.per_head_matmul(w1 @ wv, wout, cfg.heads), params["embed_l.b1"] @ wv @ wout


@dataclass(frozen=True, eq=False)
class InferenceWeights:
    """What an unrecorded forward runs on: every parameter's array, and _local_maps of those arrays.

    Derived by inference_weights, not parameters: never saved, counted or
    trained. Training replaces parameter arrays: a derivation keeps the old
    ones, and the next inference_weights of the ModelParams derives anew.
    """

    config: NetConfig
    arrays: dict[str, np.ndarray]
    local_maps: tuple[np.ndarray, ...]

    def __getitem__(self, name: str) -> np.ndarray:
        return self.arrays[name]


def inference_weights(params: ModelParams | InferenceWeights) -> InferenceWeights:
    """The plain arrays and folded maps of params for unrecorded forwards; derived weights come back unchanged.

    A ModelParams gets back params.derived while that holds exactly its
    arrays, by identity; an array edited in place, not replaced, is not re-derived.
    """
    if isinstance(params, InferenceWeights):
        return params
    arrays = {name: t.data for name, t in params.items()}
    cached = params.derived
    if cached is None or cached.arrays.keys() != arrays.keys() or any(
            cached.arrays[name] is not a for name, a in arrays.items()):
        params.derived = cached = InferenceWeights(params.config, arrays, _local_maps(arrays, params.config))
    return cached


def local_attention(scenes, params: ModelParams | InferenceWeights):
    """Per-measurement attention over its k nearest landmarks, for every scene at once.

    scenes is a list of (measurements, landmarks) pairs; the output stacks
    each scene's nu rows, in scene order. Row i depends only on measurement
    i and its neighbor group, so rows permute exactly as the measurements
    do. kNN grouping runs per scene; all groups share the block weights and
    have exactly k members, so the per-measurement blocks of every scene run
    as one grouped block, equal to applying mha_block to each (query,
    neighbor group) pair over the embedded neighbors. The block runs as
    multi-query attention with the (sum nu * k, rff_hidden) hidden layer H
    as its one key/value head (_local_maps), so neither the embedding nor
    any (sum nu * k, d) key or value row is built.
    """
    cfg = params.config
    ms = [as_points(m) for m, _ in scenes]
    feats = np.concatenate([knn_group(m, lm, cfg.k)[1] for m, (_, lm) in zip(ms, scenes)])
    m_map, n_map, e = params.local_maps if isinstance(params, InferenceWeights) else _local_maps(params, cfg)
    queries = _rff(ad.finite(np.concatenate(ms)), params, "embed_m")  # (sum nu, d)
    hidden = ad.relu(ad.linear(ad.finite(feats), params["embed_l.w0"], params["embed_l.b0"]))  # (sum nu * k, rff_hidden)
    att = ad.attention(queries @ m_map, hidden, hidden, cfg.heads, cfg.k)  # (sum nu, heads * rff_hidden)
    return _tail(queries, ad.linear(att, n_map, e), params, "local")


def forward(scenes, params: ModelParams | InferenceWeights):
    """Raw (B, 3) offset regressions (dx, dy, dphi before wrapping), row b for scene b.

    scenes is a list of B (measurements, landmarks) pairs. Their rows stack
    with no padding: the embeddings and the local block run once over all
    rows, the global block and the max-pool within each scene, so row b
    equals scene b's own forward up to rounding, and one scene runs the
    one-scene ops exactly. Recording follows the weights: a ModelParams
    builds the Tensor tape training differentiates, and the InferenceWeights
    of inference_weights(params) run the same ops on arrays and return the
    array. Both raise ValueError on a non-finite input and
    FloatingPointError on a non-finite output.
    """
    if not scenes:
        raise ValueError("forward needs at least one scene")
    local = local_attention(scenes, params)
    counts = [as_points(m).shape[0] for m, _ in scenes]
    glob = mha_block(local, local @ params["global.k"], local @ params["global.v"], params, "global", counts=counts)
    h = _rff(ad.max_pool_rows(glob, counts), params, "head", len(params.config.head_hidden) + 1)
    if not np.all(np.isfinite(h.data if isinstance(h, Tensor) else h)):
        raise FloatingPointError("network output is not finite")
    return h


def predict_offset(measurements, landmarks, params: ModelParams | InferenceWeights) -> PoseOffset:
    """Predicted pose offset with wrapped heading, from an unrecorded forward pass."""
    out = forward([(measurements, landmarks)], inference_weights(params))[0]
    return PoseOffset(out[0], out[1], wrap_angle(out[2]))
