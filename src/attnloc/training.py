"""Offset-label generation, homoscedastic multi-task loss, Adam, training loop.

Each training sample pairs measurements (true vehicle frame) with landmarks
transformed by a pose shifted by a freshly sampled offset; the offset is the
regression label. By construction correct_pose(shifted_pose, label) recovers
the true pose exactly, so the trained predictor plugs straight into the
subtraction-based inference correction.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import attention_net as net
from . import autodiff as ad
from .autodiff import Tensor
from .geometry import ORIGIN, PoseOffset, as_points, check_int, offset_pose, utm_to_vehicle, wrap_angle

@dataclass(frozen=True)
class TrainConfig:
    """Offset sampling bounds, optimizer settings and scene mixing.

    mix_ratio is the probability a sample comes from the map-backed pool
    (0 = synthetic only, 1 = map-backed only). samples_per_epoch defaults
    to the combined pool size.
    """

    sigma_pos: float = 1.0
    sigma_rot: float = math.radians(4.0)
    epochs: int = 30
    batch_size: int = 16
    learning_rate: float = 1e-3
    mix_ratio: float = 0.0
    samples_per_epoch: int | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        check_bound("sigma_pos", self.sigma_pos)
        check_bound("sigma_rot", self.sigma_rot)
        if not 0.0 <= self.mix_ratio <= 1.0:
            raise ValueError(f"mix_ratio must be in [0, 1], got {self.mix_ratio}")
        for name in ("epochs", "batch_size", *(() if self.samples_per_epoch is None else ("samples_per_epoch",))):
            check_int(name, getattr(self, name), 1)
        check_int("seed", self.seed, 0)
        if not 0 < self.learning_rate < math.inf:  # nan fails both comparisons
            raise ValueError(f"learning_rate must be a finite number > 0, got {self.learning_rate}")


def check_bound(name: str, value):
    """value; ValueError naming it unless it is a number >= 0 (NaN and a number in a string are not)."""
    if not (isinstance(value, numbers.Real) and value >= 0):
        raise ValueError(f"{name} must be a number >= 0, got {value!r}")
    return value


def sample_offset(sigma_pos: float, sigma_rot: float, rng: np.random.Generator) -> PoseOffset:
    """Independent uniform draws: dx, dy ~ U(-sigma_pos, sigma_pos), dphi ~ U(-sigma_rot, sigma_rot)."""
    if not (sigma_pos >= 0 and sigma_rot >= 0):
        raise ValueError("sampling bounds must be >= 0")
    dx = rng.uniform(-sigma_pos, sigma_pos) if sigma_pos > 0 else 0.0
    dy = rng.uniform(-sigma_pos, sigma_pos) if sigma_pos > 0 else 0.0
    dphi = rng.uniform(-sigma_rot, sigma_rot) if sigma_rot > 0 else 0.0
    return PoseOffset(dx, dy, dphi)


def make_training_sample(scene, cfg: TrainConfig,
                         rng: np.random.Generator) -> tuple[tuple[np.ndarray, np.ndarray], PoseOffset]:
    """((measurements, shifted landmarks), label) from a (measurements, landmarks) pair in the true vehicle frame.

    The sampled offset shifts the true pose (the origin) componentwise to
    simulate a noisy GPS pose; the landmarks are transformed into that
    simulated frame and the offset becomes the label.
    """
    measurements, landmarks = scene
    lm = as_points(landmarks)
    m = as_points(measurements)
    if lm.shape[0] == 0 or m.shape[0] == 0:
        raise ValueError("training sample needs nonempty landmarks and measurements")
    d = sample_offset(cfg.sigma_pos, cfg.sigma_rot, rng)
    return (m, utm_to_vehicle(lm, offset_pose(ORIGIN, d))), d


def multitask_loss_graph(pred: Tensor, labels: list[PoseOffset],
                         params: net.ModelParams) -> tuple[Tensor, np.ndarray]:
    """Homoscedastic multi-task loss on the raw (B, 3) network output, one label per row.

    Returns (l_multi, rows): the differentiable 1x1 sum over rows of
    l_tran * e^-s_tran + s_tran + l_rot * e^-s_rot + s_rot, one tape node,
    and the (B, 3) array of each row's (l_multi, l_tran, l_rot), its
    squared translation residual and squared wrapped heading residual. The
    heading residual is wrapped by folding the (locally constant) 2*pi shift
    into the label, so gradients stay exact across the seam.
    """
    target = np.array([(d.dx, d.dy, d.dphi) for d in labels])
    raw_dphi = pred.data[:, 2] - target[:, 2]
    target[:, 2] -= [wrap_angle(x) - x for x in raw_dphi]
    return ad.homoscedastic_loss(pred, target, params["s_tran"], params["s_rot"])


def _param_views(params: net.ModelParams, flat: np.ndarray):
    """(tensor, view) per parameter in parameter order: its slice of a flat vector, shaped as its array."""
    lo = 0
    for _, tensor in params.items():
        size = tensor.data.size
        yield tensor, flat[lo:lo + size].reshape(tensor.data.shape)
        lo += size


class AdamState:
    """Adam over one flat vector: the parameters' values `flat`, their moments m and v, and the step count t.

    Construction copies the parameter arrays once, in parameter order, into
    `flat` and replaces each with its view of it (equal values; ModelParams
    replaces arrays, never edits them).
    """

    def __init__(self, params: net.ModelParams):
        self.flat = np.concatenate([t.data.ravel() for _, t in params.items()])
        for tensor, view in _param_views(params, self.flat):
            tensor.data = view
        self.m = np.zeros_like(self.flat)
        self.v = np.zeros_like(self.flat)
        self.t = 0


def adam_step(
    params: net.ModelParams,
    grad: np.ndarray,
    state: AdamState,
    lr: float,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> None:
    """One bias-corrected Adam update of state.flat by the flat gradient, which it uses as scratch.

    Per element the operations, in their order, are those of
    m = beta1 m + (1 - beta1) g, v = beta2 v + (1 - beta2) g g and
    x - lr m_hat / (sqrt(v_hat) + eps), so the bits equal a per-array
    update. The moments change in place; the new values go to a new
    vector, and every parameter's array is replaced by a view of it.
    """
    x = state.flat
    if grad.shape != x.shape:
        raise ValueError(f"gradient shape {grad.shape} does not match the {x.size} parameters")
    state.t += 1
    t = state.t
    new = np.multiply(grad, 1 - beta1)
    state.m *= beta1
    state.m += new
    np.multiply(grad, 1 - beta2, out=new)
    new *= grad
    state.v *= beta2
    state.v += new
    np.divide(state.v, 1 - beta2**t, out=grad)  # grad is scratch from here: the moments hold it
    np.sqrt(grad, out=grad)
    grad += eps
    np.divide(state.m, 1 - beta1**t, out=new)
    new *= lr
    new /= grad
    np.subtract(x, new, out=new)
    state.flat = new
    for tensor, view in _param_views(params, new):
        tensor.data = view


@dataclass
class EpochStats:
    loss: float
    loss_tran: float
    loss_rot: float


@np.errstate(all="ignore")  # a diverging run stops at the finiteness checks, without warnings
def train(
    params: net.ModelParams,
    cfg: TrainConfig,
    synthetic_scenes: list[tuple[np.ndarray, np.ndarray]],
    map_scenes: list[tuple[np.ndarray, np.ndarray]] = (),
    progress=None,
) -> tuple[net.ModelParams, list[EpochStats]]:
    """Train in place over (measurements, landmarks) scene pairs.

    Landmarks are true-vehicle-frame positions; a fresh offset is sampled
    per scene per epoch. Each logical batch draws all its samples first,
    then runs them as tapes of net.SCENES_PER_FORWARD scenes, one stacked
    forward and backward each. The weight-only work runs once per step:
    every tape reads the local maps that net.StepWeights folded at the
    step's start, and their summed gradient runs back through the fold
    once after the last tape. The parameters are the views of AdamState's
    flat vector, and their gradients views of one zeroed flat gradient,
    which is averaged over the batch, checked and handed to adam_step.
    Deterministic for a fixed (cfg.seed, params, scenes) triple. A
    non-finite loss raises FloatingPointError naming the epoch and the
    sample, and a non-finite batch gradient one naming the epoch and the
    step, before any weight changes.
    """
    syn = list(synthetic_scenes)
    mapped = list(map_scenes)
    if cfg.mix_ratio > 0 and not mapped:
        raise ValueError("mix_ratio > 0 requires map-backed scenes")
    if cfg.mix_ratio < 1 and not syn:
        raise ValueError("mix_ratio < 1 requires synthetic scenes")
    rng = np.random.default_rng(cfg.seed)
    n_per_epoch = cfg.samples_per_epoch or (len(syn) + len(mapped))
    state = AdamState(params)
    history: list[EpochStats] = []
    for epoch in range(cfg.epochs):
        sums = np.zeros(3)
        for first in range(0, n_per_epoch, cfg.batch_size):
            batch = []
            for _ in range(min(cfg.batch_size, n_per_epoch - first)):
                use_map = mapped and (cfg.mix_ratio >= 1.0 or rng.random() < cfg.mix_ratio)
                pool = mapped if use_map else syn
                batch.append(make_training_sample(pool[rng.integers(len(pool))], cfg, rng))
            grad = np.zeros_like(state.flat)
            for tensor, view in _param_views(params, grad):
                tensor.grad = view
            weights = net.StepWeights(params)
            for lo in range(0, len(batch), net.SCENES_PER_FORWARD):
                pairs, labels = zip(*batch[lo:lo + net.SCENES_PER_FORWARD])
                pred = net.forward(list(pairs), weights)
                loss, rows = multitask_loss_graph(pred, list(labels), params)
                bad = np.flatnonzero(~np.isfinite(rows[:, 0]))
                if bad.size:
                    raise FloatingPointError(f"loss is not finite at epoch {epoch}, sample {first + lo + bad[0]}")
                loss.backward()
                for row in rows:
                    sums += row
            weights.fold_backward()
            grad /= len(batch)
            if not np.isfinite(grad).all():
                raise FloatingPointError(f"gradient is not finite at epoch {epoch}, step {first // cfg.batch_size}")
            adam_step(params, grad, state, cfg.learning_rate)
        stats = EpochStats(*(sums / n_per_epoch))
        history.append(stats)
        if progress is not None:
            progress(epoch, stats)
    return params, history
