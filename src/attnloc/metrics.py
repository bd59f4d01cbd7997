"""Evaluation report records: error statistics from trace rows, latencies.

Positions are in meters, headings in degrees.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np


@dataclass
class LatencyStats:
    """Wall-clock per-inference timings in milliseconds: mean, extremes and the 50th and 95th percentiles."""

    mean_ms: float = 0.0
    min_ms: float = 0.0
    max_ms: float = 0.0
    p50_ms: float = 0.0
    p95_ms: float = 0.0

    @classmethod
    def from_seconds(cls, seconds: list[float]) -> "LatencyStats":
        if not seconds:
            return cls()
        arr = np.asarray(seconds) * 1e3
        # np.percentile's linear interpolation, without the numpy.ma import and sort kernels (2.4 MB) it loads
        p50, p95 = np.interp((0.5 * (arr.size - 1), 0.95 * (arr.size - 1)), np.arange(arr.size), sorted(arr))
        return cls(float(arr.mean()), float(arr.min()), float(arr.max()), float(p50), float(p95))


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
