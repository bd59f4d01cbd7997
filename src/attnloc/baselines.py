"""Classical comparator: point-to-point ICP."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import ORIGIN, Pose, as_points, rotation, wrap_angle


@dataclass
class IcpResult:
    """Recovered rigid transform mapping L onto M, plus diagnostics.

    residuals[i] is the RMS nearest-neighbor distance after iteration i.
    """

    offset: Pose
    rms: float
    iterations: int
    residuals: list[float]


def _best_rigid(src: np.ndarray, dst: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Least-squares rotation/translation mapping src points onto dst (Umeyama, no scale)."""
    mu_s = src.mean(axis=0)
    mu_d = dst.mean(axis=0)
    cov = (dst - mu_d).T @ (src - mu_s)
    u, sv, vt = np.linalg.svd(cov)
    if sv.max() < 1e-12 * max(1.0, np.abs(src).max(), np.abs(dst).max()):
        raise ValueError("degenerate geometry: point sets carry no rigid alignment information")
    d = np.sign(np.linalg.det(u @ vt))
    r = u @ np.diag([1.0, d]) @ vt
    t = mu_d - r @ mu_s
    return r, t


def icp(
    measurements,
    landmarks,
    init: Pose = ORIGIN,
    max_iter: int = 50,
    tol: float = 1e-9,
) -> IcpResult:
    """Point-to-point ICP registering the landmark set onto the measurements.

    Alternates nearest-neighbor correspondence with a closed-form SVD rigid
    fit. Stops when the per-iteration transform change drops below tol (in
    meters / radians) or after max_iter iterations.
    """
    m = as_points(measurements)
    lm = as_points(landmarks)
    if m.shape[0] < 2 or lm.shape[0] < 2:
        raise ValueError("icp needs at least two points in each set")
    if np.ptp(m, axis=0).max() < 1e-12 or np.ptp(lm, axis=0).max() < 1e-12:
        raise ValueError("degenerate geometry: all points coincident")
    r = rotation(init.phi)
    t = np.array([init.x, init.y])
    residuals: list[float] = []
    iterations = 0
    for _ in range(max_iter):
        iterations += 1
        moved = lm @ r.T + t
        # nearest transformed landmark per measurement
        d2 = ((m[:, None, :] - moved[None, :, :]) ** 2).sum(axis=2)
        nn = np.argmin(d2, axis=1)
        residuals.append(float(np.sqrt(d2[np.arange(m.shape[0]), nn].mean())))
        r_new, t_new = _best_rigid(lm[nn], m)
        delta = max(
            float(np.abs(t_new - t).max()),
            abs(wrap_angle(math.atan2(r_new[1, 0], r_new[0, 0]) - math.atan2(r[1, 0], r[0, 0]))),
        )
        r, t = r_new, t_new
        if delta < tol:
            break
    moved = lm @ r.T + t
    d2 = ((m[:, None, :] - moved[None, :, :]) ** 2).sum(axis=2)
    rms = float(np.sqrt(d2.min(axis=1).mean()))
    residuals.append(rms)
    phi = math.atan2(r[1, 0], r[0, 0])
    return IcpResult(offset=Pose(t[0], t[1], phi), rms=rms, iterations=iterations, residuals=residuals)
