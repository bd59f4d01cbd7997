"""Landmark map persistence and field-of-view queries.

Map file format: UTF-8 CSV with header `id,easting,northing`, one landmark
per line, coordinates in meters. Disk range queries scan every landmark:
the largest map any config, test or benchmark builds holds 734 landmarks,
and below about 1,500 landmarks a vectorized scan is faster than a
Python-level uniform grid. A spatial index comes back with a workload that
needs one. Maps are immutable after load, so concurrent queries are safe.
"""

from __future__ import annotations

import csv
import io

import numpy as np

from .dataset_io import _atomic_write
from .geometry import Pose

DEFAULT_FOV_RADIUS = 60.0

_HEADER = ["id", "easting", "northing"]


class MapFormatError(ValueError):
    """Raised when a map file does not parse."""


class LandmarkMap:
    """Landmarks with unique integer ids, held in id order."""

    def __init__(self, ids, points):
        self.ids = np.asarray(ids, dtype=np.int64).reshape(-1)
        self.points = np.asarray(points, dtype=np.float64).reshape(-1, 2)
        if self.ids.shape[0] != self.points.shape[0]:
            raise ValueError("ids and points must have equal length")
        uniq, counts = np.unique(self.ids, return_counts=True)
        dupes = uniq[counts > 1]
        if dupes.size:
            raise MapFormatError(f"duplicate landmark id {int(dupes[0])}")
        # sort by id so query results are deterministic
        order = np.argsort(self.ids)
        self.ids = self.ids[order]
        self.points = self.points[order]

    def __len__(self) -> int:
        return int(self.ids.shape[0])


def load_map(path: str) -> LandmarkMap:
    """Parse a landmark CSV; empty files (header only or zero bytes) are valid."""
    ids: list[int] = []
    xs: list[list[float]] = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        rows = list(reader)
    start = 0
    if rows and [c.strip() for c in rows[0]] == _HEADER:
        start = 1
    for lineno, row in enumerate(rows[start:], start=start + 1):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if len(row) != 3:
            raise MapFormatError(f"{path}:{lineno}: expected 3 fields, got {len(row)}")
        try:
            ids.append(int(row[0]))
            xs.append([float(row[1]), float(row[2])])
        except ValueError as exc:
            raise MapFormatError(f"{path}:{lineno}: {exc}") from exc
    return LandmarkMap(ids, np.asarray(xs, dtype=np.float64).reshape(-1, 2))


def save_map(lmap: LandmarkMap, path: str) -> None:
    """Write a landmark CSV atomically; coordinates keep full precision."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(_HEADER)
    for i, (x, y) in zip(lmap.ids, lmap.points):
        writer.writerow([int(i), _fmt(x), _fmt(y)])
    _atomic_write(path, buf.getvalue())


def _fmt(v: float) -> str:
    # >= 3 decimal places, exact round trip
    s = f"{v:.3f}"
    return s if float(s) == v else repr(float(v))


def query_fov(lmap: LandmarkMap, pose: Pose, radius: float = DEFAULT_FOV_RADIUS) -> np.ndarray:
    """All landmarks within the closed disk of `radius` around the pose.

    Returns their UTM positions ordered by ascending id.
    """
    if radius <= 0:
        raise ValueError(f"radius must be > 0, got {radius}")
    # closed disk: a landmark exactly `radius` away is in view
    d = np.hypot(lmap.points[:, 0] - pose.x, lmap.points[:, 1] - pose.y)
    return lmap.points[d <= radius]
