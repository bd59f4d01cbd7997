"""Evaluation metrics and report records.

Headings are wrapped before squaring and reported in degrees; positions in
meters.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .geometry import Pose, wrap_angle


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


@dataclass
class LatencyStats:
    """Wall-clock per-inference timings in milliseconds."""

    mean_ms: float = 0.0
    min_ms: float = 0.0
    max_ms: float = 0.0

    @classmethod
    def from_seconds(cls, seconds: list[float]) -> "LatencyStats":
        if not seconds:
            return cls()
        arr = np.asarray(seconds) * 1e3
        return cls(mean_ms=float(arr.mean()), min_ms=float(arr.min()), max_ms=float(arr.max()))


@dataclass
class EvalReport:
    """Per-component RMSE and maximum absolute error over an evaluation run."""

    n: int
    rmse_x_m: float
    rmse_y_m: float
    rmse_phi_deg: float
    max_x_m: float
    max_y_m: float
    max_phi_deg: float

    @classmethod
    def from_error_rows(cls, rows: np.ndarray) -> "EvalReport":
        """Recompute a report from trace rows (ex_m, ey_m, ephi_deg)."""
        e = np.asarray(rows, dtype=np.float64).reshape(-1, 3)
        if e.shape[0] == 0:
            raise ValueError("need at least one trace row")
        r = np.sqrt((e**2).mean(axis=0))
        m = np.abs(e).max(axis=0)
        return cls(n=int(e.shape[0]), rmse_x_m=float(r[0]), rmse_y_m=float(r[1]), rmse_phi_deg=float(r[2]),
                   max_x_m=float(m[0]), max_y_m=float(m[1]), max_phi_deg=float(m[2]))

    def metrics_dict(self) -> dict:
        """The report's fields as a JSON-ready dict."""
        return asdict(self)
