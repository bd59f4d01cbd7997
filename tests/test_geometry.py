import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from attnloc.geometry import (
    Pose,
    PoseOffset,
    as_points,
    correct_pose,
    offset_pose,
    utm_to_vehicle,
    wrap_angle,
)
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
