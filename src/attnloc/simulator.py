"""Synthetic training-scene generation and drive trajectories.

Landmark locations are drawn from a single Gaussian or a two-component
Gaussian mixture fitted to the forward-looking measurement distribution of
a vehicle sensor suite. Measurements are degraded copies of the landmarks:
Poisson missed detections, Poisson clutter uniform over a field-of-view
box, and uniform coordinate noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import ORIGIN, Pose, as_points, check_finite, check_int, check_number, wrap_angle


@dataclass(frozen=True)
class SimConfig:
    """Scene-generation parameters.

    distribution: "gaussian" (mu, sigma) or "mixture" (mu1/sigma1 plus
    mu2/sigma2 weighted by lambda2; component 2 is picked with probability
    lambda2 / (1 + lambda2)). Covariances are (2, 2) row tuples and must be
    symmetric positive definite. Landmark count is uniform on
    {nu_min, ..., nu_max}. chol maps each covariance's name to its Cholesky
    factor, taken once by the check; it is not a field, so no config key.
    """

    distribution: str = "mixture"
    mu: tuple[float, float] = (20.0, 0.0)
    sigma: tuple[tuple[float, float], tuple[float, float]] = ((100.0, 0.0), (0.0, 15.0))
    mu1: tuple[float, float] = (20.0, -2.0)
    mu2: tuple[float, float] = (20.0, 2.0)
    sigma1: tuple[tuple[float, float], tuple[float, float]] = ((120.0, 0.0), (0.0, 1.0))
    sigma2: tuple[tuple[float, float], tuple[float, float]] = ((120.0, 0.0), (0.0, 1.0))
    lambda2: float = 0.6
    nu_min: int = 8
    nu_max: int = 24
    lambda_clutter: float = 2.0
    lambda_miss: float = 1.0
    sigma_noise: float = 0.1
    clutter_lo: tuple[float, float] = (-10.0, -20.0)
    clutter_hi: tuple[float, float] = (60.0, 20.0)
    seed: int = 0

    def __post_init__(self) -> None:
        if self.distribution not in ("gaussian", "mixture"):
            raise ValueError(f"unknown distribution {self.distribution!r}")
        check_int("nu_min", self.nu_min, 1)
        check_int("nu_max", self.nu_max, self.nu_min)
        for name in ("lambda_clutter", "lambda_miss", "sigma_noise", "lambda2"):
            check_number(name, getattr(self, name))
        for name in ("mu", "mu1", "mu2", "clutter_lo", "clutter_hi"):
            point = getattr(self, name)
            if len(point) != 2:
                raise ValueError(f"{name} must be an (x, y) pair, got {point!r}")
            for i, x in enumerate(point):
                check_finite(f"{name}[{i}]", x)
        chol = {}
        for name in ("sigma", "sigma1", "sigma2"):
            m = np.asarray(getattr(self, name), dtype=np.float64)
            if m.shape != (2, 2) or not np.allclose(m, m.T):
                raise ValueError(f"{name} must be a symmetric 2x2 matrix")
            try:
                chol[name] = np.linalg.cholesky(m)
            except np.linalg.LinAlgError as exc:
                raise ValueError(f"{name} must be positive definite") from exc
        object.__setattr__(self, "chol", chol)


def sample_landmarks(cfg: SimConfig, rng: np.random.Generator, nu: int | None = None) -> np.ndarray:
    """Draw nu landmark positions from the configured model; nu ~ U{nu_min..nu_max} when it is None.

    The draws use the Cholesky factors SimConfig took of its covariances (cfg.chol).
    """
    nu = int(rng.integers(cfg.nu_min, cfg.nu_max + 1)) if nu is None else nu
    z = rng.standard_normal((nu, 2))
    if cfg.distribution == "gaussian":
        return np.asarray(cfg.mu) + z @ cfg.chol["sigma"].T
    second = rng.random(nu) < cfg.lambda2 / (1.0 + cfg.lambda2)
    return np.where(second[:, None], np.asarray(cfg.mu2) + z @ cfg.chol["sigma2"].T,
                    np.asarray(cfg.mu1) + z @ cfg.chol["sigma1"].T)


def degrade(landmarks, cfg: SimConfig, rng: np.random.Generator) -> np.ndarray:
    """Turn a landmark set into measurements: misses, noise, clutter.

    Deletes Poisson(lambda_miss) uniformly chosen points (capped so at
    least one survives), adds U(-sigma_noise, sigma_noise) per coordinate
    to the survivors, then appends Poisson(lambda_clutter) clutter points
    uniform over the clutter box. Clutter is not re-noised.
    """
    lm = as_points(landmarks)
    if lm.shape[0] == 0:
        raise ValueError("degrade needs a nonempty landmark set")
    n = lm.shape[0]
    n_miss = min(int(rng.poisson(cfg.lambda_miss)), n - 1)
    keep = np.ones(n, dtype=bool)
    if n_miss > 0:
        keep[rng.choice(n, size=n_miss, replace=False)] = False
    meas = lm[keep].copy()
    if cfg.sigma_noise > 0:
        meas += rng.uniform(-cfg.sigma_noise, cfg.sigma_noise, size=meas.shape)
    n_clutter = int(rng.poisson(cfg.lambda_clutter))
    if n_clutter > 0:
        clutter = rng.uniform(cfg.clutter_lo, cfg.clutter_hi, size=(n_clutter, 2))
        meas = np.vstack((meas, clutter))
    return meas


def generate_scene(cfg: SimConfig, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """(measurements, landmarks): sample landmarks and degrade a copy of them into measurements."""
    landmarks = sample_landmarks(cfg, rng)
    return degrade(landmarks, cfg, rng), landmarks


def scene_rng(seed: int, index: int) -> np.random.Generator:
    """Independent per-scene stream so scenes can be generated in parallel."""
    return np.random.default_rng((seed, index))


# below this turn rate (rad/s) CTRV motion takes its straight-line limit form
OMEGA_EPS = 1e-6


def ctrv_step(pose: Pose, v: float, omega: float, dt: float) -> Pose:
    """Closed-form constant-turn-rate-and-velocity motion over dt seconds."""
    check_number("dt", dt, positive=True)
    if abs(omega) < OMEGA_EPS:
        return Pose(pose.x + v * math.cos(pose.phi) * dt,
                    pose.y + v * math.sin(pose.phi) * dt,
                    wrap_angle(pose.phi + omega * dt))
    phi_next = pose.phi + omega * dt
    r = v / omega
    return Pose(pose.x + r * (math.sin(phi_next) - math.sin(pose.phi)),
                pose.y + r * (math.cos(pose.phi) - math.cos(phi_next)),
                wrap_angle(phi_next))


def generate_trajectory(v: float, omega: float, dt: float, steps: int, start: Pose = ORIGIN) -> list[Pose]:
    """CTRV trajectory: the start pose followed by `steps` integrated poses."""
    poses = [start]
    for _ in range(steps):
        poses.append(ctrv_step(poses[-1], v, omega, dt))
    return poses
