"""Landmark map persistence and field-of-view queries.

A landmark map is the (N, 2) float64 array of its UTM points, in meters;
a landmark is named by its row. Map file format: UTF-8 CSV with header
`id,easting,northing`, one landmark per line, the id column numbering the
rows from 0. Disk range queries scan every landmark: the largest map any
config, test or benchmark builds holds 734 landmarks, and below about
1,500 landmarks a vectorized scan is faster than a Python-level uniform
grid. A spatial index comes back with a workload that needs one, and a
map reader with a workload that reads maps. Queries only read the map, so
they may run concurrently.
"""

from __future__ import annotations

import csv
import io
import math

import numpy as np

from .dataset_io import _atomic_write
from .geometry import Pose


def save_map(points: np.ndarray, path: str) -> None:
    """Write a landmark CSV atomically; coordinates keep full precision."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(["id", "easting", "northing"])
    for i, (x, y) in enumerate(points):
        writer.writerow([i, _fmt(x), _fmt(y)])
    _atomic_write(path, buf.getvalue())


def _fmt(v: float) -> str:
    # >= 3 decimal places, exact round trip
    s = f"{v:.3f}"
    return s if float(s) == v else repr(float(v))


def query_fov(points: np.ndarray, pose: Pose, radius: float) -> np.ndarray:
    """All landmarks within the closed disk of `radius` around the pose, in map row order."""
    if not 0 < radius < math.inf:  # nan fails both comparisons
        raise ValueError(f"radius must be a finite number > 0, got {radius}")
    # closed disk: a landmark exactly `radius` away is in view
    d = np.hypot(points[:, 0] - pose.x, points[:, 1] - pose.y)
    return points[d <= radius]
