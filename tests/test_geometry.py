import math
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from attnloc import attention_net as net
from attnloc import experiment
from attnloc.geometry import (
    ORIGIN,
    Pose,
    PoseOffset,
    as_points,
    check_number,
    correct_pose,
    offset_pose,
    utm_to_vehicle,
    wrap_angle,
)
from attnloc.inference import EkfConfig, FilterSession
from attnloc.map_store import query_fov
from attnloc.simulator import SimConfig, ctrv_step
from attnloc.training import TrainConfig, sample_offset
from geometry_helpers import invert_offset, perturb_points, vehicle_to_utm

PI = math.pi


class TestWrapAngle:
    def test_identity(self):
        assert wrap_angle(0.0) == 0.0

    def test_single_shift(self):
        assert wrap_angle(3 * PI / 2) == pytest.approx(-PI / 2, abs=1e-15)

    def test_boundary_maps_to_positive_pi(self):
        assert wrap_angle(-3 * PI) == pytest.approx(PI, abs=1e-15)
        assert wrap_angle(PI) == PI

    def test_nonfinite_rejected(self):
        for bad in (math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError):
                wrap_angle(bad)

    @given(st.floats(min_value=-1e6, max_value=1e6))
    def test_idempotent_and_in_range(self, theta):
        w = wrap_angle(theta)
        assert -PI < w <= PI
        assert wrap_angle(w) == w

    @given(st.floats(min_value=-100.0, max_value=100.0))
    def test_congruent_mod_2pi(self, theta):
        w = wrap_angle(theta)
        assert math.isclose(math.sin(w), math.sin(theta), abs_tol=1e-9)
        assert math.isclose(math.cos(w), math.cos(theta), abs_tol=1e-9)


class TestPoseTypes:
    def test_pose_wraps_heading(self):
        assert Pose(0, 0, 3 * PI / 2).phi == pytest.approx(-PI / 2)

    def test_pose_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            Pose(math.nan, 0, 0)
        with pytest.raises(ValueError):
            PoseOffset(0, math.inf, 0)

    def test_as_points_shape(self):
        assert as_points([]).shape == (0, 2)
        assert as_points([(1, 2), (3, 4)]).shape == (2, 2)
        with pytest.raises(ValueError):
            as_points([[1, 2, 3]])


class TestCorrectPose:
    def test_zero_offset(self):
        p = correct_pose(Pose(10, 5, 0.1), PoseOffset(0, 0, 0))
        assert (p.x, p.y, p.phi) == (10, 5, 0.1)

    def test_direct_substitution(self):
        p = correct_pose(Pose(0, 0, 0), PoseOffset(1, -2, 0.5))
        assert (p.x, p.y, p.phi) == (-1, 2, -0.5)

    def test_wrap_after_subtraction(self):
        p = correct_pose(Pose(0, 0, 3.0), PoseOffset(0, 0, -0.5))
        assert p.phi == pytest.approx(3.5 - 2 * PI)

    def test_exact_identity_under_zero(self):
        p = Pose(123.456, -9.25, 1.125)
        q = correct_pose(p, PoseOffset(0.0, 0.0, 0.0))
        assert q == p

    def test_inverse_of_offset_pose(self):
        p = Pose(4.0, -2.0, 0.7)
        d = PoseOffset(0.3, -0.8, 0.2)
        q = correct_pose(offset_pose(p, d), d)
        assert (q.x, q.y, q.phi) == pytest.approx((p.x, p.y, p.phi), abs=1e-12)


class TestFrameTransforms:
    def test_utm_to_vehicle_identity_pose(self):
        pts = np.array([[1.0, 2.0], [-3.0, 0.5]])
        np.testing.assert_array_equal(utm_to_vehicle(pts, Pose(0, 0, 0)), pts)

    def test_utm_to_vehicle_translation(self):
        out = utm_to_vehicle([[2.0, 1.0]], Pose(1, 1, 0))
        np.testing.assert_allclose(out, [[1.0, 0.0]], atol=1e-15)

    def test_utm_to_vehicle_quarter_turn(self):
        out = utm_to_vehicle([[0.0, 1.0]], Pose(0, 0, PI / 2))
        np.testing.assert_allclose(out, [[1.0, 0.0]], atol=1e-15)

    def test_vehicle_to_utm_quarter_turn(self):
        out = vehicle_to_utm([[1.0, 0.0]], Pose(0, 0, PI / 2))
        np.testing.assert_allclose(out, [[0.0, 1.0]], atol=1e-15)

    def test_round_trip_tight(self):
        rng = np.random.default_rng(0)
        pts = rng.uniform(-50, 50, size=(20, 2))
        pose = Pose(3.0, -7.0, 0.9)
        back = vehicle_to_utm(utm_to_vehicle(pts, pose), pose)
        np.testing.assert_allclose(back, pts, atol=1e-12)

    @given(
        st.floats(min_value=-1e7, max_value=1e7),
        st.floats(min_value=-1e7, max_value=1e7),
        st.floats(min_value=-math.pi, max_value=math.pi),
    )
    def test_round_trip_large_coordinates(self, x, y, phi):
        pose = Pose(x, y, phi)
        pts = np.array([[x + 30.0, y - 12.0], [x - 5.0, y + 40.0]])
        back = vehicle_to_utm(utm_to_vehicle(pts, pose), pose)
        np.testing.assert_allclose(back, pts, atol=1e-9)

    def test_order_and_cardinality_preserved(self):
        pts = np.array([[1.0, 0.0], [2.0, 0.0], [3.0, 0.0]])
        out = utm_to_vehicle(pts, Pose(0, 0, 0.3))
        assert out.shape == pts.shape
        assert out[0, 0] < out[1, 0] < out[2, 0]


class TestPerturbPoints:
    def test_identity(self):
        pts = np.array([[1.0, 2.0]])
        np.testing.assert_array_equal(perturb_points(pts, PoseOffset(0, 0, 0)), pts)

    def test_pure_translation(self):
        out = perturb_points([[0.0, 0.0]], PoseOffset(1, 0, 0))
        np.testing.assert_allclose(out, [[1.0, 0.0]], atol=1e-15)

    def test_half_turn(self):
        out = perturb_points([[1.0, 0.0]], PoseOffset(0, 0, PI))
        np.testing.assert_allclose(out, [[-1.0, 0.0]], atol=1e-15)

    def test_inverse_transform_round_trip(self):
        rng = np.random.default_rng(1)
        pts = rng.uniform(-100, 100, size=(15, 2))
        d = PoseOffset(0.7, -1.2, 0.4)
        back = perturb_points(perturb_points(pts, d), invert_offset(d))
        np.testing.assert_allclose(back, pts, atol=1e-9)

    def test_inverse_matches_utm_transform(self):
        # transforming with the offset-as-pose is the inverse rigid perturbation
        pts = np.array([[3.0, -4.0], [0.5, 2.5]])
        d = PoseOffset(0.4, 0.9, -0.3)
        a = utm_to_vehicle(pts, Pose(d.dx, d.dy, d.dphi))
        b = perturb_points(pts, invert_offset(d))
        np.testing.assert_allclose(a, b, atol=1e-12)


class TestCheckNumber:
    @pytest.mark.parametrize("value", [0, 0.0, 2, 1.5, np.float64(0.25), 1e308])
    def test_returns_a_number_unchanged(self, value):
        assert check_number("x", value) is value

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan, True, False, -1e-300, 10**400, "1.0", None,
                                       np.float64(math.nan)])
    def test_rejects_anything_else(self, value):
        with pytest.raises(ValueError, match=rf"^x must be a finite number >= 0, got {re.escape(repr(value))}$"):
            check_number("x", value)

    def test_positive_rejects_zero(self):
        assert check_number("x", 1e-300, positive=True) == 1e-300
        with pytest.raises(ValueError, match=r"^x must be a finite number > 0, got 0\.0$"):
            check_number("x", 0.0, positive=True)


def _filter_step(dt):
    params = net.init_params(net.NetConfig(d_m=8, heads=2, k=2, rff_hidden=8, head_hidden=(8,)))
    FilterSession(params, np.array([[1.0, 1.0]]), ORIGIN, EkfConfig(), fov_radius=10.0).step([[1.0, 0.0]], dt)


# every range check on a number a caller hands the program: (site, the name its
# error gives, whether it needs > 0, a call that hands it x)
SITES = [
    ("TrainConfig.sigma_pos", "sigma_pos", False, lambda x: TrainConfig(sigma_pos=x)),
    ("TrainConfig.sigma_rot", "sigma_rot", False, lambda x: TrainConfig(sigma_rot=x)),
    ("TrainConfig.mix_ratio", "mix_ratio", False, lambda x: TrainConfig(mix_ratio=x)),
    ("TrainConfig.learning_rate", "learning_rate", True, lambda x: TrainConfig(learning_rate=x)),
    ("sample_offset.sigma_pos", "sigma_pos", False, lambda x: sample_offset(x, 0.1, np.random.default_rng(0))),
    ("sample_offset.sigma_rot", "sigma_rot", False, lambda x: sample_offset(1.0, x, np.random.default_rng(0))),
    ("gps_noise.sigma_pos", "sigma_pos", False, lambda x: experiment.gps_noise({"gps_noise": {"sigma_pos": x}})),
    ("gps_noise.sigma_phi_deg", "sigma_phi_deg", False,
     lambda x: experiment.gps_noise({"gps_noise": {"sigma_phi_deg": x}})),
    ("train_config.sigma_rot_deg", "sigma_rot_deg", False,
     lambda x: experiment.train_config({"train": {"sigma_rot_deg": x}})),
    ("DriveConfig.dt", "dt", True, lambda x: experiment.DriveConfig(dt=x)),
    ("DriveConfig.v", "v", False, lambda x: experiment.DriveConfig(v=x)),
    ("DriveConfig.segments", "segment duration", True,
     lambda x: experiment.DriveConfig(segments=((20.0, 1.5), (x, -1.5)))),
    ("EkfConfig.sigma_accel", "sigma_accel", True, lambda x: EkfConfig(sigma_accel=x)),
    ("EkfConfig.sigma_yaw_accel", "sigma_yaw_accel", True, lambda x: EkfConfig(sigma_yaw_accel=x)),
    ("EkfConfig.r_diag", "r_diag[1]", True, lambda x: EkfConfig(r_diag=(0.25, x, 0.001))),
    ("SimConfig.lambda_clutter", "lambda_clutter", False, lambda x: SimConfig(lambda_clutter=x)),
    ("SimConfig.lambda_miss", "lambda_miss", False, lambda x: SimConfig(lambda_miss=x)),
    ("SimConfig.sigma_noise", "sigma_noise", False, lambda x: SimConfig(sigma_noise=x)),
    ("SimConfig.lambda2", "lambda2", False, lambda x: SimConfig(lambda2=x)),
    ("ctrv_step.dt", "dt", True, lambda x: ctrv_step(ORIGIN, 1.0, 0.5, x)),
    ("FilterSession.step.dt", "dt", True, _filter_step),
    ("query_fov.radius", "radius", True, lambda x: query_fov(np.zeros((1, 2)), ORIGIN, x)),
    ("knn_group.k", "k", True, lambda x: net.knn_group([[0.0, 0.0]], [[1.0, 0.0]], x)),
]
CASES = [(site, name, call, x) for site, name, positive, call in SITES
         for x in (math.inf, math.nan, True, -1, *((0,) if positive else ()))]


@pytest.mark.parametrize("site,name,call,value", CASES, ids=[f"{site}-{x}" for site, _, _, x in CASES])
def test_every_site_rejects_a_bad_number_by_name(site, name, call, value):
    with pytest.raises(ValueError, match=rf"^{re.escape(name)} must be .+, got {re.escape(repr(value))}$"):
        call(value)
