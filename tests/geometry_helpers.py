"""Rigid transforms that only the tests use, built on attnloc.geometry."""

import numpy as np

from attnloc.geometry import Pose, as_points, rotation


def vehicle_to_utm(points, pose: Pose) -> np.ndarray:
    """Transform points from the vehicle frame into the global (UTM) frame."""
    pts = as_points(points)
    return pts @ rotation(pose.phi).T + np.array([pose.x, pose.y])


def perturb_points(points, d: Pose) -> np.ndarray:
    """Apply a rigid perturbation: rotate about the origin, then translate.

    Each point p maps to R(d.phi) @ p + [d.x, d.y]. The rotation center is the
    vehicle-frame origin (rear-axle center).
    """
    pts = as_points(points)
    return pts @ rotation(d.phi).T + np.array([d.x, d.y])


def invert_offset(d: Pose) -> Pose:
    """Parameters of the inverse rigid transform of perturb_points(., d)."""
    t = rotation(-d.phi) @ np.array([d.x, d.y])
    return Pose(-t[0], -t[1], -d.phi)
