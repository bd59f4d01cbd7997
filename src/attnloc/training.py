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
from . import autodiff as ad
from .autodiff import Tensor
from .geometry import ORIGIN, PoseOffset, as_points, offset_pose, utm_to_vehicle, wrap_angle

# Scenes per forward/backward tape. A batch runs as tapes of this many
# scenes: more scenes per tape cut the per-node overhead, but a tape's arrays
# live until its backward frees them, so peak memory grows with the tape.
TAPE_SCENES = 4


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


def make_training_sample(landmarks, measurements, cfg: TrainConfig, rng: np.random.Generator) -> TrainSample:
    """Build one sample from landmarks and measurements in the true vehicle frame.

    The sampled offset shifts the true pose (the origin) componentwise to
    simulate a noisy GPS pose; the landmarks are transformed into that
    simulated frame and the offset becomes the label.
    """
    lm = as_points(landmarks)
    m = as_points(measurements)
    if lm.shape[0] == 0 or m.shape[0] == 0:
        raise ValueError("training sample needs nonempty landmarks and measurements")
    d = sample_offset(cfg.sigma_pos, cfg.sigma_rot, rng)
    return TrainSample(measurements=m, landmarks=utm_to_vehicle(lm, offset_pose(ORIGIN, d)), label=d)


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
    per scene per epoch. Each logical batch draws all its samples first,
    then runs them as tapes of TAPE_SCENES scenes, one stacked forward and
    backward each; gradients average over the batch before each Adam step.
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
                meas, lm = pool[rng.integers(len(pool))]
                batch.append(make_training_sample(lm, meas, cfg, rng))
            params.zero_grads()
            for lo in range(0, len(batch), TAPE_SCENES):
                tape = batch[lo:lo + TAPE_SCENES]
                pred = net.forward([(s.measurements, s.landmarks) for s in tape], params)
                loss, rows = multitask_loss_graph(pred, [s.label for s in tape], params)
                bad = np.flatnonzero(~np.isfinite(rows[:, 0]))
                if bad.size:
                    raise FloatingPointError(f"loss is not finite at epoch {epoch}, sample {first + lo + bad[0]}")
                loss.backward()
                for row in rows:
                    sums += row
            grads = {k: t.grad / len(batch) for k, t in params.items()}
            if not all(np.isfinite(g).all() for g in grads.values()):
                raise FloatingPointError(f"gradient is not finite at epoch {epoch}, step {first // cfg.batch_size}")
            adam_step(params, grads, state, cfg.learning_rate)
        stats = EpochStats(*(sums / n_per_epoch))
        history.append(stats)
        if progress is not None:
            progress(epoch, stats)
    return params, history
