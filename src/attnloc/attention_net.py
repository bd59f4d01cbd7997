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

    d_m: model width. heads must divide d_m. k: neighbors per measurement.
    neighbor_features selects what feeds the neighbor embedding: relative
    offsets plus distance ("offsets", 3 inputs) or distance only
    ("distance", 1 input).
    """

    d_m: int = 64
    heads: int = 4
    k: int = 8
    rff_hidden: int = 64
    head_hidden: tuple[int, ...] = (128, 64)
    block_hidden: int | None = None
    neighbor_features: str = "offsets"
    seed: int = 0

    def __post_init__(self) -> None:
        widths = (self.d_m, self.heads, self.k, self.rff_hidden, *self.head_hidden,
                  *(() if self.block_hidden is None else (self.block_hidden,)))
        if any(isinstance(w, bool) for w in widths) or min(map(operator.index, widths)) < 1:
            raise ValueError("d_m, heads, k, rff_hidden, head_hidden and block_hidden must be integers >= 1")
        check_seed(self.seed)
        if self.d_m % self.heads != 0:
            raise ValueError(f"heads ({self.heads}) must divide d_m ({self.d_m})")
        if self.neighbor_features not in ("offsets", "distance"):
            raise ValueError(f"unknown neighbor_features mode {self.neighbor_features!r}")

    @property
    def feature_width(self) -> int:
        return 3 if self.neighbor_features == "offsets" else 1

    @property
    def ff_hidden(self) -> int:
        return self.block_hidden if self.block_hidden is not None else self.d_m


def check_seed(seed) -> int:
    """seed as an int; ValueError unless it is an integer >= 0, which a boolean is not."""
    if isinstance(seed, bool) or not isinstance(seed, numbers.Integral) or seed < 0:
        raise ValueError(f"seed must be an integer >= 0, got {seed!r}")
    return int(seed)


class ModelParams:
    """Named parameter tensors plus the loss log-variances s_tran, s_rot."""

    def __init__(self, config: NetConfig, tensors: dict[str, Tensor]):
        self.config = config
        self.tensors = tensors

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
    for prefix, width_in in (("embed_m", 2), ("embed_l", cfg.feature_width)):
        for i, (fi, fo) in enumerate(_rff_shapes([width_in, cfg.rff_hidden, d])):
            shapes[f"{prefix}.w{i}"] = (fi, fo)
            shapes[f"{prefix}.b{i}"] = (1, fo)
    for block in BLOCKS:
        for p in "qkv":
            shapes[f"{block}.{p}"] = (d, d)
        shapes[f"{block}.out"] = (d, d)
        shapes[f"{block}.ln1.g"] = (1, d)
        shapes[f"{block}.ln1.b"] = (1, d)
        for i, (fi, fo) in enumerate(_rff_shapes([d, cfg.ff_hidden, d])):
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
    s = ad.layer_norm(x + att @ params[f"{block}.out"], params[f"{block}.ln1.g"], params[f"{block}.ln1.b"])
    return ad.layer_norm(s + _rff(s, params, f"{block}.ff"), params[f"{block}.ln2.g"], params[f"{block}.ln2.b"])


def _local_kv(params) -> tuple:
    """(W1 Wk, b1 Wk, W1 Wv, b1 Wv): the local key and value projections folded into the neighbor embedding.

    The embedding ends in the affine map N = H W1 + b1, and N feeds only
    N Wk and N Wv, so N Wk = H (W1 Wk) + b1 Wk, and likewise for Wv.
    """
    w1, b1 = params["embed_l.w1"], params["embed_l.b1"]
    return tuple(x @ params[f"local.{p}"] for p in "kv" for x in (w1, b1))


@dataclass(frozen=True, eq=False)
class InferenceWeights:
    """What an unrecorded forward runs on: every parameter's array, and _local_kv of those arrays.

    Derived by inference_weights, not parameters: never saved, counted or
    trained. Training replaces a parameter's array, so updates made after
    the derivation do not reach it.
    """

    config: NetConfig
    arrays: dict[str, np.ndarray]
    local_kv: tuple[np.ndarray, ...]

    def __getitem__(self, name: str) -> np.ndarray:
        return self.arrays[name]


def inference_weights(params: ModelParams | InferenceWeights) -> InferenceWeights:
    """The plain arrays and folded maps of params for unrecorded forwards; derived weights come back unchanged."""
    if isinstance(params, InferenceWeights):
        return params
    arrays = {name: t.data for name, t in params.items()}
    return InferenceWeights(params.config, arrays, _local_kv(arrays))


def local_attention(scenes, params: ModelParams | InferenceWeights):
    """Per-measurement attention over its k nearest landmarks, for every scene at once.

    scenes is a list of (measurements, landmarks) pairs; the output stacks
    each scene's nu rows, in scene order. Row i depends only on measurement
    i and its neighbor group, so rows permute exactly as the measurements
    do. kNN grouping runs per scene; all groups share the block weights and
    have exactly k members, so the per-measurement blocks of every scene run
    as one grouped block, equal to applying mha_block to each (query,
    neighbor group) pair separately. The neighbor embedding's last layer is
    folded into the key and value projections (_local_kv), so the
    (sum nu * k, d) embedding is never built.
    """
    cfg = params.config
    ms = [as_points(m) for m, _ in scenes]
    feats = np.concatenate([knn_group(m, lm, cfg.k)[1] for m, (_, lm) in zip(ms, scenes)])
    if cfg.neighbor_features == "distance":
        feats = feats[:, 2:3]
    wk, bk, wv, bv = params.local_kv if isinstance(params, InferenceWeights) else _local_kv(params)
    queries = _rff(ad.finite(np.concatenate(ms)), params, "embed_m")  # (sum nu, d)
    hidden = ad.relu(ad.linear(ad.finite(feats), params["embed_l.w0"], params["embed_l.b0"]))  # (sum nu * k, rff_hidden)
    return mha_block(queries, ad.linear(hidden, wk, bk), ad.linear(hidden, wv, bv), params, "local", cfg.k)


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
