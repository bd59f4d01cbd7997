"""Pose-list error metrics that only the tests use; reports come from attnloc.metrics.EvalReport."""

import math

import numpy as np

from attnloc.geometry import Pose, wrap_angle


def pose_errors(preds: list[Pose], gts: list[Pose]) -> np.ndarray:
    """Per-sample error rows (ex_m, ey_m, ephi_rad), heading wrapped."""
    if len(preds) != len(gts):
        raise ValueError(f"length mismatch: {len(preds)} predictions vs {len(gts)} ground truths")
    if not preds:
        raise ValueError("need at least one sample")
    rows = [(p.x - g.x, p.y - g.y, wrap_angle(p.phi - g.phi)) for p, g in zip(preds, gts)]
    return np.asarray(rows, dtype=np.float64)


def rmse(preds: list[Pose], gts: list[Pose]) -> tuple[float, float, float]:
    """Root mean square error per component: (x m, y m, heading deg)."""
    e = pose_errors(preds, gts)
    r = np.sqrt((e**2).mean(axis=0))
    return float(r[0]), float(r[1]), math.degrees(float(r[2]))


def max_error(preds: list[Pose], gts: list[Pose]) -> tuple[float, float, float]:
    """Maximum absolute error per component: (x m, y m, heading deg)."""
    e = pose_errors(preds, gts)
    m = np.abs(e).max(axis=0)
    return float(m[0]), float(m[1]), math.degrees(float(m[2]))
