"""Landmark map persistence and field-of-view queries.

Map file format: UTF-8 CSV with header `id,easting,northing`, one landmark
per line, coordinates in meters. A uniform grid (50 m cells) over the
landmarks serves disk range queries; maps are immutable after load, so
concurrent queries are safe.
"""

from __future__ import annotations

import csv
import io
from collections import defaultdict

import numpy as np

from .dataset_io import _atomic_write
from .geometry import Pose

CELL_SIZE = 50.0
DEFAULT_FOV_RADIUS = 60.0

_HEADER = ["id", "easting", "northing"]


class MapFormatError(ValueError):
    """Raised when a map file does not parse."""


class LandmarkMap:
    """Landmarks with unique integer ids and a uniform-grid spatial index."""

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
        self._grid: dict[tuple[int, int], list[int]] = defaultdict(list)
        for i, (x, y) in enumerate(self.points):
            self._grid[_cell(x, y)].append(i)

    def __len__(self) -> int:
        return int(self.ids.shape[0])


def _cell(x: float, y: float) -> tuple[int, int]:
    return (int(np.floor(x / CELL_SIZE)), int(np.floor(y / CELL_SIZE)))


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

    Returns their UTM positions ordered by ascending id; identical to a
    brute-force scan.
    """
    if radius <= 0:
        raise ValueError(f"radius must be > 0, got {radius}")
    if len(lmap) == 0:
        return np.empty((0, 2))
    # one spare cell ring: hypot rounding can admit points a hair outside
    # the exact bounding box
    cx_lo, cy_lo = _cell(pose.x - radius, pose.y - radius)
    cx_hi, cy_hi = _cell(pose.x + radius, pose.y + radius)
    cx_lo, cy_lo, cx_hi, cy_hi = cx_lo - 1, cy_lo - 1, cx_hi + 1, cy_hi + 1
    hits: list[int] = []
    # for very large radii there are fewer occupied cells than bbox cells
    if (cx_hi - cx_lo + 1) * (cy_hi - cy_lo + 1) > len(lmap._grid):
        for (cx, cy), members in lmap._grid.items():
            if cx_lo <= cx <= cx_hi and cy_lo <= cy <= cy_hi:
                hits.extend(members)
    else:
        for cx in range(cx_lo, cx_hi + 1):
            for cy in range(cy_lo, cy_hi + 1):
                hits.extend(lmap._grid.get((cx, cy), ()))
    if not hits:
        return np.empty((0, 2))
    idx = np.array(sorted(hits), dtype=np.int64)  # ids ascend with index
    pts = lmap.points[idx]
    # hypot is correctly rounded, so the closed-ball boundary is exact
    d = np.hypot(pts[:, 0] - pose.x, pts[:, 1] - pose.y)
    return pts[d <= radius]
