"""The one-pair regression that only the tests use, built on attnloc.attention_net."""

from attnloc import attention_net as net
from attnloc.geometry import Pose


def predict_offset(measurements, landmarks, params: net.ModelParams | net.Weights) -> Pose:
    """predict_offsets of the one (measurements, landmarks) pair."""
    return net.predict_offsets([(measurements, landmarks)], params)[0]
