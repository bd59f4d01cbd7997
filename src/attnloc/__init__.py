"""Landmark-based vehicle self-localization with an attention offset regressor.

Subpackages: geometry (pose algebra), autodiff (reverse-mode engine),
attention_net (the regression network), training (loss/optimizer/loop),
simulator (synthetic scenes and drives), map_store (landmark maps),
inference (GPS-based and EKF-smoothed localization), baselines (ICP),
dataset_io (file and config formats), metrics/experiment/cli (evaluation).
"""

from .geometry import Pose, PoseOffset, correct_pose, wrap_angle

__all__ = ["Pose", "PoseOffset", "correct_pose", "wrap_angle"]
__version__ = "0.1.0"
