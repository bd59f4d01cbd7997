"""Rigid transforms that only the tests use, built on attnloc.geometry."""

import numpy as np

from attnloc.geometry import Pose, PoseOffset, as_points, rotation


def vehicle_to_utm(points, pose: Pose) -> np.ndarray:
    """Transform points from the vehicle frame into the global (UTM) frame."""
    pts = as_points(points)
    return pts @ rotation(pose.phi).T + np.array([pose.x, pose.y])


def perturb_points(points, d: PoseOffset) -> np.ndarray:
    """Apply a rigid perturbation: rotate about the origin, then translate.

    Each point p maps to R(dphi) @ p + [dx, dy]. The rotation center is the
    vehicle-frame origin (rear-axle center).
    """
    pts = as_points(points)
    return pts @ rotation(d.dphi).T + np.array([d.dx, d.dy])


def invert_offset(d: PoseOffset) -> PoseOffset:
    """Parameters of the inverse rigid transform of perturb_points(., d)."""
    t = rotation(-d.dphi) @ np.array([d.dx, d.dy])
    return PoseOffset(-t[0], -t[1], -d.dphi)
