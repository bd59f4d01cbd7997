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


def check_finite(name: str, value):
    """value; ValueError naming it unless it is a finite real number of any sign (a bool is not)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not abs(value) <= sys.float_info.max:
        raise ValueError(f"{name} must be a finite number, got {value!r}")
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


def correct_pose(p: Pose, d: Pose) -> Pose:
    """The true pose of a prior p whose offset is d: p composed with the inverse of d in SE(2).

    An offset is the prior read in the true vehicle frame, so that
    p = offset_pose(truth, d); the network output, the training label, the
    GPS noise draw and the ICP result all read so. The true heading is
    p.phi - d.phi, and (d.x, d.y) turned by it is subtracted from p.
    """
    phi = p.phi - d.phi
    c, s = math.cos(phi), math.sin(phi)
    return Pose(p.x - (c * d.x - s * d.y), p.y - (s * d.x + c * d.y), phi)


def offset_pose(p: Pose, d: Pose) -> Pose:
    """p composed with d in SE(2): (d.x, d.y) turned by p.phi is added; inverse of correct_pose, d at ORIGIN."""
    c, s = math.cos(p.phi), math.sin(p.phi)
    return Pose(p.x + (c * d.x - s * d.y), p.y + (s * d.x + c * d.y), p.phi + d.phi)


def utm_to_vehicle(points, pose: Pose) -> np.ndarray:
    """Transform points from the global (UTM) frame into the vehicle frame.

    Each point p maps to R(-phi) @ (p - [x, y]). Order is preserved.
    """
    pts = as_points(points)
    return (pts - np.array([pose.x, pose.y])) @ rotation(-pose.phi).T
