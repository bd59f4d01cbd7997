"""Planar pose algebra and frame transforms.

Convention: angles in radians, wrapped to (-pi, pi], counterclockwise
positive. Degrees appear only at CLI/report boundaries. Point sets are
(N, 2) float64 arrays; rows are points in meters.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi


def wrap_angle(theta: float) -> float:
    """Wrap an angle to (-pi, pi].

    Raises:
        ValueError: if theta is not finite.
    """
    if not math.isfinite(theta):
        raise ValueError(f"angle must be finite, got {theta}")
    # fmod-based wrap keeps the half-open upper boundary: +pi maps to +pi.
    wrapped = theta - TWO_PI * math.floor((theta + math.pi) / TWO_PI)
    if wrapped <= -math.pi:
        wrapped += TWO_PI
    return wrapped


@dataclass(frozen=True)
class Pose:
    """Planar pose: position in meters, heading phi in radians.

    phi is wrapped to (-pi, pi] on construction.
    """

    x: float
    y: float
    phi: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError(f"pose position must be finite, got ({self.x}, {self.y})")
        object.__setattr__(self, "x", float(self.x))
        object.__setattr__(self, "y", float(self.y))
        object.__setattr__(self, "phi", wrap_angle(float(self.phi)))

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.phi], dtype=np.float64)


ORIGIN = Pose(0.0, 0.0, 0.0)


@dataclass(frozen=True)
class PoseOffset:
    """Small rigid pose correction (dx, dy in meters, dphi in radians)."""

    dx: float
    dy: float
    dphi: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.dx) and math.isfinite(self.dy)):
            raise ValueError(f"offset must be finite, got ({self.dx}, {self.dy})")
        object.__setattr__(self, "dx", float(self.dx))
        object.__setattr__(self, "dy", float(self.dy))
        object.__setattr__(self, "dphi", wrap_angle(float(self.dphi)))

    def as_array(self) -> np.ndarray:
        return np.array([self.dx, self.dy, self.dphi], dtype=np.float64)


def check_int(name: str, value, least: int) -> int:
    """value as an int; ValueError naming it unless it is an integer >= least (a bool is not)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
    return int(value)


def check_number(name: str, value, positive: bool = False):
    """value; ValueError naming it unless it is a finite real number > 0 (positive) or >= 0 (a bool is not)."""
    # the comparisons are exact: NaN fails both, and an integer beyond the float64 range the second
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not (0 < value if positive else 0 <= value) or not value <= sys.float_info.max):
        raise ValueError(f"{name} must be a finite number {'>' if positive else '>='} 0, got {value!r}")
    return value


def as_points(points) -> np.ndarray:
    """Coerce to an (N, 2) float64 point set; N may be 0."""
    arr = np.asarray(points, dtype=np.float64)
    if arr.size == 0:
        return arr.reshape(0, 2)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError(f"expected (N, 2) point set, got shape {arr.shape}")
    return arr


def rotation(theta: float) -> np.ndarray:
    """2x2 counterclockwise rotation matrix."""
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]], dtype=np.float64)


def correct_pose(p_gps: Pose, d: PoseOffset) -> Pose:
    """Apply a predicted offset to a noisy pose: componentwise subtraction.

    Deliberately not SE(2) composition; the offset is defined so that
    subtracting it from the noisy pose recovers the true pose (see
    offset_pose, its exact inverse).
    """
    return Pose(p_gps.x - d.dx, p_gps.y - d.dy, wrap_angle(p_gps.phi - d.dphi))


def offset_pose(p: Pose, d: PoseOffset) -> Pose:
    """Shift a pose componentwise by an offset; inverse of correct_pose."""
    return Pose(p.x + d.dx, p.y + d.dy, wrap_angle(p.phi + d.dphi))


def utm_to_vehicle(points, pose: Pose) -> np.ndarray:
    """Transform points from the global (UTM) frame into the vehicle frame.

    Each point p maps to R(-phi) @ (p - [x, y]). Order is preserved.
    """
    pts = as_points(points)
    return (pts - np.array([pose.x, pose.y])) @ rotation(-pose.phi).T
