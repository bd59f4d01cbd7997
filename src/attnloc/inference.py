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
from .autodiff import finite
from .geometry import Pose, as_points, check_number, correct_pose, utm_to_vehicle, wrap_angle
from .map_store import query_fov
from .simulator import OMEGA_EPS, ctrv_step


class NoLandmarksInFov(ValueError):
    """FoV query produced no landmarks; inference is impossible."""


class InnovationError(FloatingPointError):
    """Innovation covariance lost positive definiteness."""


# initial variance of the speed and turn-rate states, which one pose does not observe
INIT_RATE_VAR = 100.0
# the 5x5 identity that the predict and update steps copy, never write
_EYE5 = np.eye(5)


@dataclass(frozen=True)
class EkfConfig:
    """Filter tuning: white accel/yaw-accel process noise and measurement noise.

    r_diag is the diagonal of the pose measurement covariance
    (m^2, m^2, rad^2); r is that covariance as a matrix, taken once by the
    check. It is not a field, so no config key.
    """

    sigma_accel: float = 0.5
    sigma_yaw_accel: float = 0.1
    r_diag: tuple = (0.25, 0.25, math.radians(2.0) ** 2)

    def __post_init__(self) -> None:
        if len(self.r_diag) != 3:
            raise ValueError("r_diag must be 3 finite variances > 0")
        for name, value in (("sigma_accel", self.sigma_accel), ("sigma_yaw_accel", self.sigma_yaw_accel),
                            *((f"r_diag[{i}]", v) for i, v in enumerate(self.r_diag))):
            check_number(name, value, positive=True)
        object.__setattr__(self, "r", np.diag(self.r_diag))


@dataclass
class EkfState:
    """CTRV filter state: mean [x, y, phi, v, omega] and 5x5 covariance."""

    mean: np.ndarray
    cov: np.ndarray

    def pose(self) -> Pose:
        return Pose(*self.mean[:3].tolist())


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
    x, y, phi, v, omega = s.mean.tolist()
    p = ctrv_step(Pose(x, y, phi), v, omega, dt)
    mean = np.array([p.x, p.y, p.phi, v, omega])
    c, si = math.cos(phi), math.sin(phi)
    F = _EYE5.copy()
    if abs(omega) < OMEGA_EPS:
        F[0, 2] = -v * si * dt
        F[0, 3] = c * dt
        F[0, 4] = -0.5 * v * si * dt * dt  # limit of the CTRV terms as omega -> 0
        F[1, 2] = v * c * dt
        F[1, 3] = si * dt
        F[1, 4] = 0.5 * v * c * dt * dt
    else:
        phi2 = phi + omega * dt
        s2, c2 = math.sin(phi2), math.cos(phi2)
        r = v / omega
        F[0, 2] = r * (c2 - c)
        F[0, 3] = (s2 - si) / omega
        F[0, 4] = v * dt * c2 / omega - v * (s2 - si) / omega**2
        F[1, 2] = r * (s2 - si)
        F[1, 3] = (c - c2) / omega
        F[1, 4] = v * dt * s2 / omega - v * (c - c2) / omega**2
    F[2, 4] = dt
    # noise enters through acceleration and yaw acceleration held over dt
    g = np.array([
        [0.5 * dt * dt * c, 0.0],
        [0.5 * dt * dt * si, 0.0],
        [0.0, 0.5 * dt * dt],
        [dt, 0.0],
        [0.0, dt],
    ])
    cov = F @ s.cov @ F.T + (g * [cfg.sigma_accel**2, cfg.sigma_yaw_accel**2]) @ g.T
    cov += cov.T
    cov *= 0.5
    return EkfState(mean=mean, cov=cov)


def ekf_update(s: EkfState, z: Pose, cfg: EkfConfig) -> EkfState:
    """Pose-measurement update, H = [I3 | 0], Joseph-form covariance.

    H selects the pose block, so its products are slices of the covariance.
    The heading innovation is wrapped, so measurements across the +-pi seam
    stay small.
    """
    x, y, phi = s.mean[:3].tolist()
    innov = np.array([z.x - x, z.y - y, wrap_angle(z.phi - phi)])
    s_mat = s.cov[:3, :3] + cfg.r
    try:
        # numpy factors a NaN matrix without complaint; a NaN or infinite entry makes the diagonal non-finite
        if not math.isfinite(np.linalg.cholesky(s_mat).trace()):
            raise np.linalg.LinAlgError("innovation covariance is not finite")
    except np.linalg.LinAlgError as exc:
        raise InnovationError("innovation covariance is not positive definite") from exc
    k = s.cov[:, :3] @ np.linalg.inv(s_mat)
    mean = s.mean + k @ innov
    mean[2] = wrap_angle(mean[2])
    ikh = _EYE5.copy()
    ikh[:, :3] -= k
    cov = ikh @ s.cov @ ikh.T + k @ cfg.r @ k.T
    cov += cov.T
    cov *= 0.5
    return EkfState(mean=mean, cov=cov)


def localize(queries, regress, fov_radius: float) -> list[Pose]:
    """The localization step: correct each prior pose by an offset regressed against the map around it.

    Per (map, measurements, prior) query, the map landmarks in the field of
    view of the prior are moved into its vehicle frame; regress maps the list
    of (measurements, landmarks) pairs to one offset each, subtracted from
    its prior. The first query with empty measurements raises ValueError, and
    the first with an empty field of view NoLandmarksInFov.
    """
    pairs = []
    for lmap, measurements, prior in queries:
        m = np.asarray(measurements, dtype=np.float64)
        if m.size == 0:
            raise ValueError("localization needs at least one measurement")
        fov = query_fov(lmap, prior, fov_radius)
        if fov.shape[0] == 0:
            raise NoLandmarksInFov("no landmarks in field of view")
        pairs.append((m, utm_to_vehicle(fov, prior)))
    return [correct_pose(prior, d) for (_, _, prior), d in zip(queries, regress(pairs))]


def gps_inference(params: net.ModelParams | net.Weights, lmap: np.ndarray, measurements, p_gps: Pose,
                  fov_radius: float) -> Pose:
    """Single-shot correction of a noisy GPS pose: the localization step of one query with the network as regressor.

    A ModelParams runs on the inference weights it keeps (net.inference_weights).
    """
    return localize([(lmap, measurements, p_gps)], lambda pairs: [net.predict_offset(*pairs[0], params)], fov_radius)[0]


class FilterSession:
    """EKF-smoothed localization needing only one GPS pose to initialize.

    Each step corrects the previous estimate by the network offset, as
    gps_inference does a GPS pose, and feeds the corrected pose to the
    filter as a measurement. The session derives the network's inference
    weights once, at construction, and holds that snapshot: later updates
    to params do not reach it. It checks the radius and the map once too,
    so a bad one fails the construction, not a later step.
    """

    def __init__(self, params: net.ModelParams | net.Weights, lmap: np.ndarray, p_init: Pose,
                 ekf_cfg: EkfConfig, fov_radius: float):
        self.weights = net.inference_weights(params)
        self.lmap = finite(as_points(lmap))
        self.cfg = ekf_cfg
        self.fov_radius = check_number("radius", fov_radius, positive=True)
        self.state = init_state(p_init, self.cfg)

    def step(self, measurements, dt: float) -> Pose:
        """Advance one frame; returns the smoothed pose estimate."""
        check_number("dt", dt, positive=True)
        z = gps_inference(self.weights, self.lmap, measurements, self.state.pose(), self.fov_radius)
        self.state = ekf_predict(self.state, self.cfg, dt)
        self.state = ekf_update(self.state, z, self.cfg)
        return self.state.pose()
