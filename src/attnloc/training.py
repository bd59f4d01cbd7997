"""Offset-label generation, homoscedastic multi-task loss, Adam, training loop.

Each training sample pairs measurements (true vehicle frame) with landmarks
transformed by a pose shifted by a freshly sampled offset; the offset is the
regression label. By construction correct_pose(shifted_pose, label) recovers
the true pose exactly, so the trained predictor plugs straight into the
subtraction-based inference correction.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from . import attention_net as net
from .autodiff import Tensor
from .geometry import Pose, PoseOffset, as_points, offset_pose, utm_to_vehicle, wrap_angle

_MASK_TRAN = np.array([[1.0, 1.0, 0.0]])
_MASK_ROT = np.array([[0.0, 0.0, 1.0]])


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
        if self.sigma_pos < 0 or self.sigma_rot < 0:
            raise ValueError("sampling bounds must be >= 0")
        if not 0.0 <= self.mix_ratio <= 1.0:
            raise ValueError(f"mix_ratio must be in [0, 1], got {self.mix_ratio}")
        counts = (self.epochs, self.batch_size, *(() if self.samples_per_epoch is None else (self.samples_per_epoch,)))
        if min(map(operator.index, counts)) < 1:
            raise ValueError("epochs, batch_size and samples_per_epoch must be integers >= 1")
        if self.learning_rate <= 0:
            raise ValueError(f"learning_rate must be > 0, got {self.learning_rate}")


@dataclass
class TrainSample:
    """One ready-to-train pair: measurements, offset-shifted landmarks, label."""

    measurements: np.ndarray
    landmarks: np.ndarray
    label: PoseOffset


def sample_offset(sigma_pos: float, sigma_rot: float, rng: np.random.Generator) -> PoseOffset:
    """Independent uniform draws: dx, dy ~ U(-sigma_pos, sigma_pos), dphi ~ U(-sigma_rot, sigma_rot)."""
    if sigma_pos < 0 or sigma_rot < 0:
        raise ValueError("sampling bounds must be >= 0")
    dx = rng.uniform(-sigma_pos, sigma_pos) if sigma_pos > 0 else 0.0
    dy = rng.uniform(-sigma_pos, sigma_pos) if sigma_pos > 0 else 0.0
    dphi = rng.uniform(-sigma_rot, sigma_rot) if sigma_rot > 0 else 0.0
    return PoseOffset(dx, dy, dphi)


def make_training_sample(
    landmarks_utm,
    gt_pose: Pose,
    measurements,
    cfg: TrainConfig,
    rng: np.random.Generator,
) -> TrainSample:
    """Build one sample from in-FoV map landmarks and the ground-truth pose.

    The sampled offset shifts the ground-truth pose componentwise to
    simulate a noisy GPS measurement; landmarks are transformed into that
    simulated frame and the offset becomes the label. Synthetic scenes are
    the gt_pose = origin special case with landmarks already vehicle-frame.
    """
    lm = as_points(landmarks_utm)
    m = as_points(measurements)
    if lm.shape[0] == 0 or m.shape[0] == 0:
        raise ValueError("training sample needs nonempty landmarks and measurements")
    d = sample_offset(cfg.sigma_pos, cfg.sigma_rot, rng)
    noisy_pose = offset_pose(gt_pose, d)
    return TrainSample(measurements=m, landmarks=utm_to_vehicle(lm, noisy_pose), label=d)


def multitask_loss_graph(pred: Tensor, label: PoseOffset,
                         params: net.ModelParams) -> tuple[Tensor, float, float]:
    """Homoscedastic multi-task loss on the raw 1x3 network output.

    Returns (l_multi, l_tran, l_rot): the differentiable 1x1 loss
    l_multi = l_tran * e^-s_tran + s_tran + l_rot * e^-s_rot + s_rot, and
    the values of its squared translation residual and squared wrapped
    heading residual. The heading residual is wrapped by folding the
    (locally constant) 2*pi shift into the label, so gradients stay exact
    across the seam.
    """
    raw_dphi = float(pred.data[0, 2]) - label.dphi
    shift = wrap_angle(raw_dphi) - raw_dphi
    target = Tensor([[label.dx, label.dy, label.dphi - shift]])
    res = pred - target
    res_t = res * Tensor(_MASK_TRAN)
    res_r = res * Tensor(_MASK_ROT)
    l_tran = (res_t * res_t).sum()
    l_rot = (res_r * res_r).sum()
    s_tran, s_rot = params["s_tran"], params["s_rot"]
    loss = l_tran * (-s_tran).exp() + s_tran + l_rot * (-s_rot).exp() + s_rot
    return loss, float(l_tran.data[0, 0]), float(l_rot.data[0, 0])


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
    """One bias-corrected Adam update, in place."""
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
    per scene per epoch. Scenes are processed one at a time; gradients
    average over a logical batch before each Adam step. Deterministic for a
    fixed (cfg.seed, params, scenes) triple. A non-finite loss raises
    FloatingPointError naming the epoch and the sample, and a non-finite
    batch gradient one naming the epoch and the step, before any weight
    changes.
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
    origin = Pose(0.0, 0.0, 0.0)
    history: list[EpochStats] = []
    for epoch in range(cfg.epochs):
        sums = np.zeros(3)
        in_batch = 0
        params.zero_grads()
        for j in range(n_per_epoch):
            use_map = mapped and (cfg.mix_ratio >= 1.0 or rng.random() < cfg.mix_ratio)
            pool = mapped if use_map else syn
            meas, lm = pool[rng.integers(len(pool))]
            sample = make_training_sample(lm, origin, meas, cfg, rng)
            pred = net.forward(sample.measurements, sample.landmarks, params)
            loss, l_tran, l_rot = multitask_loss_graph(pred, sample.label, params)
            if not math.isfinite(loss.data[0, 0]):
                raise FloatingPointError(f"loss is not finite at epoch {epoch}, sample {j}")
            loss.backward()
            sums += (loss.data[0, 0], l_tran, l_rot)
            in_batch += 1
            if in_batch == cfg.batch_size or j == n_per_epoch - 1:
                grads = {k: t.grad / in_batch for k, t in params.items()}
                if not all(np.isfinite(g).all() for g in grads.values()):
                    raise FloatingPointError(f"gradient is not finite at epoch {epoch}, step {j // cfg.batch_size}")
                adam_step(params, grads, state, cfg.learning_rate)
                params.zero_grads()
                in_batch = 0
        stats = EpochStats(*(sums / n_per_epoch))
        history.append(stats)
        if progress is not None:
            progress(epoch, stats)
    return params, history
