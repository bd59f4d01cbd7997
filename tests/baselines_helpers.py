"""The EKF fed raw GPS poses, a comparator that only the tests use."""

from attnloc.geometry import Pose
from attnloc.inference import EkfConfig, ekf_predict, ekf_update, init_state


def ekf_gps_baseline(gps_poses: list[Pose], dt: float, cfg: EkfConfig | None = None) -> list[Pose]:
    """Smooth a raw GPS pose sequence with the CTRV EKF (no network)."""
    if not gps_poses:
        raise ValueError("ekf_gps_baseline needs at least one pose")
    cfg = cfg if cfg is not None else EkfConfig()
    state = init_state(gps_poses[0], cfg)
    out = [state.pose()]
    for z in gps_poses[1:]:
        state = ekf_predict(state, cfg, dt)
        state = ekf_update(state, z, cfg)
        out.append(state.pose())
    return out
