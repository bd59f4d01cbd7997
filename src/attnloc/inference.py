"""Pose inference: single-shot GPS-based correction and EKF-smoothed filtering.

The extended Kalman filter runs a constant turn rate and velocity (CTRV)
motion model on the state [x, y, phi, v, omega] and consumes the corrected
network pose as a 3D measurement [x, y, phi]. One filter session is a
sequential state machine; independent sessions may run concurrently over
shared immutable network parameters and map.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import attention_net as net
from .geometry import Pose, correct_pose, utm_to_vehicle, wrap_angle
from .map_store import query_fov
from .simulator import OMEGA_EPS, ctrv_step


class NoLandmarksInFov(ValueError):
    """FoV query produced no landmarks; inference is impossible."""


class InnovationError(FloatingPointError):
    """Innovation covariance lost positive definiteness."""


# initial variance of the speed and turn-rate states, which one pose does not observe
INIT_RATE_VAR = 100.0


@dataclass(frozen=True)
class EkfConfig:
    """Filter tuning: white accel/yaw-accel process noise and measurement noise.

    r_diag is the diagonal of the pose measurement covariance
    (m^2, m^2, rad^2).
    """

    sigma_accel: float = 0.5
    sigma_yaw_accel: float = 0.1
    r_diag: tuple = (0.25, 0.25, math.radians(2.0) ** 2)

    def __post_init__(self) -> None:
        if not (0 < self.sigma_accel < math.inf and 0 < self.sigma_yaw_accel < math.inf):  # nan fails both
            raise ValueError("process noise densities must be finite numbers > 0")
        if len(self.r_diag) != 3 or not all(0 < v < math.inf for v in self.r_diag):
            raise ValueError("r_diag must be 3 finite variances > 0")


@dataclass
class EkfState:
    """CTRV filter state: mean [x, y, phi, v, omega] and 5x5 covariance."""

    mean: np.ndarray
    cov: np.ndarray

    def pose(self) -> Pose:
        return Pose(self.mean[0], self.mean[1], self.mean[2])


def init_state(p: Pose, cfg: EkfConfig) -> EkfState:
    """Start a filter from a single (GPS) pose with zero rates of variance INIT_RATE_VAR."""
    mean = np.array([p.x, p.y, p.phi, 0.0, 0.0])
    cov = np.diag([cfg.r_diag[0], cfg.r_diag[1], cfg.r_diag[2], INIT_RATE_VAR, INIT_RATE_VAR])
    return EkfState(mean=mean, cov=cov)


def ekf_predict(s: EkfState, cfg: EkfConfig, dt: float) -> EkfState:
    """Closed-form CTRV propagation with analytic Jacobian.

    The mean moves by simulator.ctrv_step; below its turn-rate threshold the
    Jacobian takes the constant-velocity limit form too. The covariance is
    re-symmetrized after F P F^T + Q.
    """
    _, _, phi, v, omega = s.mean
    p = ctrv_step(s.pose(), v, omega, dt)
    mean = np.array([p.x, p.y, p.phi, v, omega])
    F = np.eye(5)
    if abs(omega) < OMEGA_EPS:
        c, si = math.cos(phi), math.sin(phi)
        F[0, 2] = -v * si * dt
        F[0, 3] = c * dt
        F[0, 4] = -0.5 * v * si * dt * dt  # limit of the CTRV terms as omega -> 0
        F[1, 2] = v * c * dt
        F[1, 3] = si * dt
        F[1, 4] = 0.5 * v * c * dt * dt
        F[2, 4] = dt
    else:
        phi2 = phi + omega * dt
        s1, c1 = math.sin(phi), math.cos(phi)
        s2, c2 = math.sin(phi2), math.cos(phi2)
        r = v / omega
        F[0, 2] = r * (c2 - c1)
        F[0, 3] = (s2 - s1) / omega
        F[0, 4] = v * dt * c2 / omega - v * (s2 - s1) / omega**2
        F[1, 2] = r * (s2 - s1)
        F[1, 3] = (c1 - c2) / omega
        F[1, 4] = v * dt * s2 / omega - v * (c1 - c2) / omega**2
        F[2, 4] = dt
    # noise enters through acceleration and yaw acceleration held over dt
    c, si = math.cos(phi), math.sin(phi)
    g = np.array([
        [0.5 * dt * dt * c, 0.0],
        [0.5 * dt * dt * si, 0.0],
        [0.0, 0.5 * dt * dt],
        [dt, 0.0],
        [0.0, dt],
    ])
    q = g @ np.diag([cfg.sigma_accel**2, cfg.sigma_yaw_accel**2]) @ g.T
    cov = F @ s.cov @ F.T + q
    return EkfState(mean=mean, cov=0.5 * (cov + cov.T))


def ekf_update(s: EkfState, z: Pose, cfg: EkfConfig) -> EkfState:
    """Pose-measurement update, H = [I3 | 0], Joseph-form covariance.

    H selects the pose block, so its products are slices of the covariance.
    The heading innovation is wrapped, so measurements across the +-pi seam
    stay small.
    """
    r = np.diag(cfg.r_diag)
    innov = np.array([z.x - s.mean[0], z.y - s.mean[1], wrap_angle(z.phi - s.mean[2])])
    s_mat = s.cov[:3, :3] + r
    try:
        np.linalg.cholesky(s_mat)
    except np.linalg.LinAlgError as exc:
        raise InnovationError("innovation covariance is not positive definite") from exc
    k = s.cov[:, :3] @ np.linalg.inv(s_mat)
    mean = s.mean + k @ innov
    mean[2] = wrap_angle(mean[2])
    ikh = np.eye(5)
    ikh[:, :3] -= k
    cov = ikh @ s.cov @ ikh.T + k @ r @ k.T
    return EkfState(mean=mean, cov=0.5 * (cov + cov.T))


def localize(lmap: np.ndarray, measurements, prior: Pose, regress, fov_radius: float) -> Pose:
    """The localization step: correct a prior pose by an offset regressed against the map around it.

    The map landmarks in the field of view of the prior are moved into its
    vehicle frame, regress(measurements, landmarks) returns the pose offset,
    and the offset is subtracted from the prior. Raises ValueError on empty
    measurements and NoLandmarksInFov on an empty field of view.
    """
    m = np.asarray(measurements, dtype=np.float64)
    if m.size == 0:
        raise ValueError("localization needs at least one measurement")
    fov = query_fov(lmap, prior, fov_radius)
    if fov.shape[0] == 0:
        raise NoLandmarksInFov("no landmarks in field of view")
    return correct_pose(prior, regress(m, utm_to_vehicle(fov, prior)))


def gps_inference(params: net.ModelParams | net.InferenceWeights, lmap: np.ndarray, measurements, p_gps: Pose,
                  fov_radius: float) -> Pose:
    """Single-shot correction of a noisy GPS pose: the localization step with the network as regressor.

    A ModelParams runs on the inference weights it keeps (net.inference_weights).
    """
    return localize(lmap, measurements, p_gps, lambda m, lm: net.predict_offset(m, lm, params), fov_radius)


class FilterSession:
    """EKF-smoothed localization needing only one GPS pose to initialize.

    Each step corrects the previous estimate by the network offset, as
    gps_inference does a GPS pose, and feeds the corrected pose to the
    filter as a measurement. The session derives the network's inference
    weights once, at construction, and holds that snapshot: later updates
    to params do not reach it.
    """

    def __init__(self, params: net.ModelParams | net.InferenceWeights, lmap: np.ndarray, p_init: Pose,
                 ekf_cfg: EkfConfig, fov_radius: float):
        self.weights = net.inference_weights(params)
        self.lmap = lmap
        self.cfg = ekf_cfg
        self.fov_radius = fov_radius
        self.state = init_state(p_init, self.cfg)

    def step(self, measurements, dt: float) -> Pose:
        """Advance one frame; returns the smoothed pose estimate."""
        if not 0 < dt < math.inf:  # nan fails both comparisons
            raise ValueError(f"dt must be a finite number > 0, got {dt}")
        z = gps_inference(self.weights, self.lmap, measurements, self.state.pose(), self.fov_radius)
        self.state = ekf_predict(self.state, self.cfg, dt)
        self.state = ekf_update(self.state, z, self.cfg)
        return self.state.pose()
