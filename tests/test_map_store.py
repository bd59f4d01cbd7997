import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from attnloc.geometry import Pose
from attnloc.map_store import query_fov, save_map
from map_store_helpers import read_map


def _in_disk(points, pose, radius):
    # an independent reference: one landmark at a time, in row order
    return np.array([[x, y] for x, y in points if math.hypot(x - pose.x, y - pose.y) <= radius]).reshape(-1, 2)


class TestSaveMap:
    def test_round_trip_identity(self, tmp_path):
        rng = np.random.default_rng(0)
        pts = rng.uniform(0, 1e6, size=(50, 2))
        path = tmp_path / "out.csv"
        save_map(pts, str(path))
        first = path.read_bytes()
        ids, again = read_map(str(path))
        assert ids == list(range(50))
        np.testing.assert_array_equal(again, pts)
        save_map(again, str(path))
        assert path.read_bytes() == first

    def test_full_precision_survives(self, tmp_path):
        pts = np.array([[math.pi * 1e5, 1.0 / 3.0]])
        path = str(tmp_path / "pi.csv")
        save_map(pts, path)
        ids, again = read_map(path)
        assert ids == [0]
        np.testing.assert_array_equal(again, pts)

    def test_file_bytes(self, tmp_path):
        # rows numbered from 0, >= 3 decimals, repr where 3 lose bits, csv's CRLF line ends
        path = tmp_path / "bytes.csv"
        save_map(np.array([[1.5, -2.0], [math.pi, 0.1]]), str(path))
        assert path.read_bytes() == b"id,easting,northing\r\n0,1.500,-2.000\r\n1,3.141592653589793,0.100\r\n"


class TestQueryFov:
    def test_radius_smaller_than_nearest(self):
        assert query_fov(np.array([[10.0, 0.0]]), Pose(0, 0, 0), radius=5.0).shape == (0, 2)

    def test_boundary_included(self):
        assert query_fov(np.array([[10.0, 0.0]]), Pose(0, 0, 0), radius=10.0).shape == (1, 2)

    def test_results_ordered_by_id(self):
        # a landmark's id is its row, so results come in map row order, not by distance
        pts = np.array([[3.0, 0.0], [20.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        out = query_fov(pts, Pose(0, 0, 0), radius=10.0)
        np.testing.assert_array_equal(out, [[3.0, 0.0], [1.0, 0.0], [2.0, 0.0]])

    def test_nonpositive_radius_rejected(self):
        with pytest.raises(ValueError):
            query_fov(np.array([[1.0, 1.0]]), Pose(0, 0, 0), radius=0.0)

    def test_matches_per_landmark_check_large_map(self):
        rng = np.random.default_rng(1)
        pts = rng.uniform(-500, 500, size=(1000, 2))
        for seed in range(30):
            r = np.random.default_rng(seed)
            pose = Pose(r.uniform(-500, 500), r.uniform(-500, 500), 0.0)
            radius = r.uniform(1.0, 200.0)
            got = query_fov(pts, pose, radius)
            np.testing.assert_array_equal(got, _in_disk(pts, pose, radius))

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(st.tuples(st.floats(-200, 200), st.floats(-200, 200)), min_size=1, max_size=40),
        st.floats(-250, 250),
        st.floats(-250, 250),
        st.floats(0.5, 300),
    )
    def test_matches_per_landmark_check_property(self, raw_pts, px, py, radius):
        pts = np.asarray(raw_pts)
        pose = Pose(px, py, 0.0)
        got = query_fov(pts, pose, radius)
        np.testing.assert_array_equal(got, _in_disk(pts, pose, radius))
