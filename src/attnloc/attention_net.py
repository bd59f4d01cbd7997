"""Attention network for measurement-to-landmark association and offset regression.

Pipeline: kNN grouping of landmarks around each measurement, row-wise
feed-forward embeddings, per-measurement local attention over the grouped
neighbors, global self-attention over the local features, max pooling, and
a feed-forward head regressing the pose offset (dx, dy, dphi).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .geometry import PoseOffset, as_points, check_int, wrap_angle


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
        for name in ("d_m", "heads", "k", "rff_hidden"):
            check_int(name, getattr(self, name), 1)
        for width in self.head_hidden:
            check_int("head_hidden", width, 1)
        check_int("seed", self.seed, 0)
        if self.d_m % self.heads != 0:
            raise ValueError(f"heads ({self.heads}) must divide d_m ({self.d_m})")


class ModelParams:
    """Named parameter tensors plus the loss log-variances s_tran, s_rot, all views of one flat vector.

    `flat` is one C-contiguous float64 vector holding every parameter in the
    order of `tensors` (param_shapes order), and each tensor's data is its
    view of it. ModelParams(config) lays out zeros for config's shapes;
    given tensors, it copies them into a new vector. Once built, the
    parameters change by replacing `flat` (bind), never by writing into it;
    derived caches inference_weights(self), None until its first call.
    """

    def __init__(self, config: NetConfig, tensors: dict[str, Tensor] | None = None):
        self.config = config
        shapes = param_shapes(config) if tensors is None else {name: t.data.shape for name, t in tensors.items()}
        self.flat = np.zeros(sum(r * c for r, c in shapes.values()))
        self.tensors = {name: Tensor(view) for name, view in zip(shapes, _views(self.flat, shapes.values()))}
        for name, t in (tensors or {}).items():
            self.tensors[name].data[...] = t.data
        self.derived: Weights | None = None

    def __getitem__(self, name: str) -> Tensor:
        return self.tensors[name]

    def items(self):
        return self.tensors.items()

    def param_count(self) -> int:
        return self.flat.size

    def bind(self, vector: np.ndarray, grad: bool = False) -> None:
        """Make every tensor's data, or with grad its gradient, its view of vector, a flat array laid out as `flat`.

        Bound as data, vector replaces `flat`; bound as gradients, it is where backward passes add.
        """
        for t, view in zip(self.tensors.values(), _views(vector, [t.data.shape for t in self.tensors.values()])):
            setattr(t, "grad" if grad else "data", view)
        if not grad:
            self.flat = vector


def _views(vector: np.ndarray, shapes) -> list[np.ndarray]:
    """Consecutive runs of a flat vector, one per (rows, cols) shape, each shaped as its own."""
    bounds = np.cumsum([0, *(r * c for r, c in shapes)])
    return [vector[lo:hi].reshape(shape) for lo, hi, shape in zip(bounds, bounds[1:], shapes)]


BLOCKS = ("local", "global")

# Scenes per stacked forward, in training tapes and evaluate_gps: more share the
# per-op overhead, but activations grow with the stack (d_m=256 levels off at 4)
SCENES_PER_FORWARD = 4


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

    Weights are drawn in parameter order, straight into params.flat. Each
    block's q/k/v projections are drawn head by head (q head 0, k head 0,
    v head 0, q head 1, ...) at (d, d/h), and each fused array is its heads
    side by side.
    """
    rng = np.random.default_rng(cfg.seed)

    def glorot(fan_in: int, fan_out: int) -> np.ndarray:
        limit = math.sqrt(6.0 / (fan_in + fan_out))
        return rng.uniform(-limit, limit, size=(fan_in, fan_out))

    d, dh = cfg.d_m, cfg.d_m // cfg.heads
    params = ModelParams(cfg)
    for name, (r, c) in param_shapes(cfg).items():
        block, _, leaf = name.rpartition(".")
        if leaf == "q":
            for i in range(cfg.heads):
                for p in "qkv":
                    params[f"{block}.{p}"].data[:, i * dh:(i + 1) * dh] = glorot(d, dh)
        elif leaf[0] == "w" or leaf == "out":
            params[name].data[...] = glorot(r, c)
        elif leaf == "g":
            params[name].data.fill(1.0)
        # k and v are drawn with q; biases, layer-norm shifts, s_tran and s_rot stay 0
    return params


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
    check_int("k", k, 1)
    delta = lm[None, :, :] - m[:, None, :]  # (nu, L, 2)
    dist = np.hypot(delta[..., 0], delta[..., 1])
    order = dist.argsort(axis=1, kind="stable")
    idx = order[:, :k] if lm.shape[0] >= k else order[:, np.arange(k) % lm.shape[0]]
    rows = np.arange(m.shape[0])[:, None]
    feats = np.concatenate((delta[rows, idx], dist[rows, idx][..., None]), axis=2)
    return idx, feats.reshape(-1, 3)


def _rff(x: Tensor, params: ModelParams, prefix: str, layers: int = 2) -> Tensor:
    """Row-wise feed-forward net: `layers` affine maps with ReLU between them."""
    for i in range(layers):
        x = ad.linear(x, params[f"{prefix}.w{i}"], params[f"{prefix}.b{i}"], relu=i < layers - 1)
    return x


def mha_block(x: Tensor, params: ModelParams, counts: list[int]) -> Tensor:
    """The global block, Set Transformer self-attention per set: LayerNorm(S + rFF(S)), S = LayerNorm(X + MH(X, X, X)).

    x stacks B sets of rows, set b in counts[b] consecutive rows, and a row
    attends only to the rows of its own set.
    """
    att = ad.attention(x @ params["global.q"], x @ params["global.k"], x @ params["global.v"], params.config.heads,
                       counts=counts)
    return _tail(x, att @ params["global.out"], params, "global")


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


class Weights:
    """What a forward runs on: the parameters, and _local_maps of them folded once.

    Recorded (record=True, one optimizer step's forwards): arrays holds the
    parameter tensors, fold the maps as recorded from them, and local_maps
    their values as leaf tensors, which every forward of the step reads and
    which gather the step's gradients; fold_backward, after the step's last
    backward, runs that sum back through the fold once. Unrecorded
    (inference_weights): arrays holds every parameter's array and
    local_maps the folded arrays. Derived from the vector `flat`, not
    parameters: never saved, counted or trained.
    """

    def __init__(self, params: ModelParams, record: bool):
        self.config, self.flat = params.config, params.flat
        self.arrays = params.tensors if record else {name: t.data for name, t in params.items()}
        maps = _local_maps(self.arrays, self.config)
        self.fold = maps if record else None
        self.local_maps = tuple(Tensor(t.data) for t in maps) if record else maps

    def __getitem__(self, name: str):
        return self.arrays[name]

    def fold_backward(self) -> None:
        ad.pullback(self.fold, [leaf.grad for leaf in self.local_maps]).backward()


def inference_weights(params: ModelParams | Weights) -> Weights:
    """The unrecorded Weights of params; Weights come back unchanged.

    A ModelParams gets back params.derived while it was derived from
    params.flat; a vector written in place, not replaced, is not re-derived.
    """
    if isinstance(params, Weights):
        return params
    if params.derived is None or params.derived.flat is not params.flat:
        params.derived = Weights(params, record=False)
    return params.derived


def local_attention(scenes, params: ModelParams | Weights):
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
    groups = [knn_group(m, lm, cfg.k)[1] for m, (_, lm) in zip(ms, scenes)]
    if len(scenes) == 1:  # not stacked; in C order its matmuls take the path a stacked copy would
        rows, feats = np.ascontiguousarray(ms[0]), groups[0]
    else:
        rows, feats = np.concatenate(ms), np.concatenate(groups)
    m_map, n_map, e = params.local_maps if isinstance(params, Weights) else _local_maps(params, cfg)
    queries = _rff(ad.finite(rows), params, "embed_m")  # (sum nu, d)
    # the neighbor hidden layer H, (sum nu * k, rff_hidden)
    hidden = ad.linear(ad.finite(feats), params["embed_l.w0"], params["embed_l.b0"], relu=True)
    att = ad.attention(queries @ m_map, hidden, hidden, cfg.heads, cfg.k)  # (sum nu, heads * rff_hidden)
    return _tail(queries, ad.linear(att, n_map, e), params, "local")


def forward(scenes, params: ModelParams | Weights):
    """Raw (B, 3) offset regressions (dx, dy, dphi before wrapping), row b for scene b.

    scenes is a list of B (measurements, landmarks) pairs. Their rows stack
    with no padding: the embeddings and the local block run once over all
    rows, the global block and the max-pool within each scene, so row b
    equals scene b's own forward up to rounding, and one scene runs the
    one-scene ops exactly. Recording follows the weights: a ModelParams
    builds the Tensor tape training differentiates (recorded Weights on
    their step's folded local maps), and the unrecorded Weights of
    inference_weights(params) run the same ops on arrays and return the
    array. Both raise ValueError on a non-finite input and
    FloatingPointError on a non-finite output.
    """
    if not scenes:
        raise ValueError("forward needs at least one scene")
    scenes = [(as_points(m), lm) for m, lm in scenes]
    local = local_attention(scenes, params)
    counts = [m.shape[0] for m, _ in scenes]
    glob = mha_block(local, params, counts)
    h = _rff(ad.max_pool_rows(glob, counts), params, "head", len(params.config.head_hidden) + 1)
    if not np.isfinite(h.data if isinstance(h, Tensor) else h).all():
        raise FloatingPointError("network output is not finite")
    return h


def predict_offsets(pairs, params: ModelParams | Weights) -> list[PoseOffset]:
    """Pose offsets with wrapped headings, one per (measurements, landmarks) pair, from one unrecorded forward."""
    out = forward(list(pairs), inference_weights(params)).tolist()
    return [PoseOffset(dx, dy, wrap_angle(dphi)) for dx, dy, dphi in out]


def predict_offset(measurements, landmarks, params: ModelParams | Weights) -> PoseOffset:
    """predict_offsets of the one pair."""
    return predict_offsets([(measurements, landmarks)], params)[0]
