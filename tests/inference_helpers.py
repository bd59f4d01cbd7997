"""Reference EKF steps that only the tests use: the plain numpy forms the filter's steps must match bit for bit.

Each takes the state apart with numpy indexing and builds its matrices with
np.eye and np.diag, as the filter did before its steps read the state as
Python floats; attnloc.inference's ekf_predict and ekf_update must return
exactly these arrays.
"""

import math

import numpy as np

from attnloc.geometry import Pose, wrap_angle
from attnloc.inference import EkfConfig, EkfState, InnovationError
from attnloc.simulator import OMEGA_EPS, ctrv_step


def ekf_predict_reference(s: EkfState, cfg: EkfConfig, dt: float) -> EkfState:
    """Closed-form CTRV propagation with analytic Jacobian, F P F^T + Q re-symmetrized."""
    _, _, phi, v, omega = s.mean
    p = ctrv_step(s.pose(), v, omega, dt)
    mean = np.array([p.x, p.y, p.phi, v, omega])
    F = np.eye(5)
    if abs(omega) < OMEGA_EPS:
        c, si = math.cos(phi), math.sin(phi)
        F[0, 2] = -v * si * dt
        F[0, 3] = c * dt
        F[0, 4] = -0.5 * v * si * dt * dt
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


def ekf_update_reference(s: EkfState, z: Pose, cfg: EkfConfig) -> EkfState:
    """Pose-measurement update, H = [I3 | 0], Joseph-form covariance, wrapped heading innovation."""
    r = np.diag(cfg.r_diag)
    innov = np.array([z.x - s.mean[0], z.y - s.mean[1], wrap_angle(z.phi - s.mean[2])])
    s_mat = s.cov[:3, :3] + r
    try:
        np.linalg.cholesky(s_mat)
    except np.linalg.LinAlgError as exc:
        raise InnovationError("innovation covariance is not positive definite") from exc
    k = np.linalg.solve(s_mat, s.cov[:3, :]).T
    mean = s.mean + k @ innov
    mean[2] = wrap_angle(mean[2])
    ikh = np.eye(5)
    ikh[:, :3] -= k
    cov = ikh @ s.cov @ ikh.T + k @ r @ k.T
    return EkfState(mean=mean, cov=0.5 * (cov + cov.T))
