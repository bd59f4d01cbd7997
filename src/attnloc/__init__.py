"""Landmark-based vehicle self-localization with an attention offset regressor.

Subpackages: geometry (pose algebra), autodiff (reverse-mode engine),
attention_net (the regression network), training (loss/optimizer/loop),
simulator (synthetic scenes and drives), map_store (landmark maps),
inference (GPS-based and EKF-smoothed localization), baselines (ICP),
dataset_io (file and config formats), metrics/experiment/cli (evaluation).

It imports none of them, so the CLI sets numpy's BLAS threads before numpy loads.
"""

__version__ = "0.1.0"
