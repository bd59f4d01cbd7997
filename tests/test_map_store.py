import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from attnloc.geometry import Pose
from attnloc.map_store import LandmarkMap, MapFormatError, load_map, query_fov, save_map


def _write(tmp_path, text, name="map.csv"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return str(p)


def _brute_force(lmap, pose, radius):
    d = np.hypot(lmap.points[:, 0] - pose.x, lmap.points[:, 1] - pose.y)
    return lmap.points[d <= radius]


class TestLoadMap:
    def test_empty_file_is_valid(self, tmp_path):
        lmap = load_map(_write(tmp_path, ""))
        assert len(lmap) == 0

    def test_header_only_is_valid(self, tmp_path):
        lmap = load_map(_write(tmp_path, "id,easting,northing\n"))
        assert len(lmap) == 0

    def test_three_lines(self, tmp_path):
        lmap = load_map(_write(tmp_path, "id,easting,northing\n1,10.5,20.25\n2,-3.125,4.0\n5,0.001,0.002\n"))
        assert len(lmap) == 3
        pts = query_fov(lmap, Pose(0, 0, 0), radius=100.0)
        assert pts.shape == (3, 2)

    def test_duplicate_id_names_offender(self, tmp_path):
        with pytest.raises(MapFormatError, match="7"):
            load_map(_write(tmp_path, "id,easting,northing\n7,1.0,1.0\n7,2.0,2.0\n"))

    def test_parse_error_reports_line(self, tmp_path):
        with pytest.raises(MapFormatError, match=":3:"):
            load_map(_write(tmp_path, "id,easting,northing\n1,1.0,1.0\n2,abc,3.0\n"))

    def test_wrong_field_count_reports_line(self, tmp_path):
        with pytest.raises(MapFormatError, match=":2:"):
            load_map(_write(tmp_path, "id,easting,northing\n1,1.0\n"))


class TestSaveMap:
    def test_round_trip_identity(self, tmp_path):
        rng = np.random.default_rng(0)
        pts = rng.uniform(0, 1e6, size=(50, 2))
        lmap = LandmarkMap(np.arange(50) * 3, pts)
        path = str(tmp_path / "out.csv")
        save_map(lmap, path)
        again = load_map(path)
        save_map(again, path)
        final = load_map(path)
        np.testing.assert_array_equal(again.ids, final.ids)
        np.testing.assert_array_equal(again.points, final.points)
        np.testing.assert_array_equal(lmap.points, final.points)

    def test_full_precision_survives(self, tmp_path):
        pts = np.array([[math.pi * 1e5, 1.0 / 3.0]])
        lmap = LandmarkMap([9], pts)
        path = str(tmp_path / "pi.csv")
        save_map(lmap, path)
        np.testing.assert_array_equal(load_map(path).points, pts)

    def test_file_bytes(self, tmp_path):
        # rows by id, >= 3 decimals, repr where 3 lose bits, csv's CRLF line ends
        lmap = LandmarkMap([4, 2], [[1.5, -2.0], [math.pi, 0.1]])
        path = tmp_path / "bytes.csv"
        save_map(lmap, str(path))
        assert path.read_bytes() == b"id,easting,northing\r\n2,3.141592653589793,0.100\r\n4,1.500,-2.000\r\n"


class TestQueryFov:
    def test_radius_smaller_than_nearest(self):
        lmap = LandmarkMap([0], [[10.0, 0.0]])
        assert query_fov(lmap, Pose(0, 0, 0), radius=5.0).shape == (0, 2)

    def test_boundary_included(self):
        lmap = LandmarkMap([0], [[10.0, 0.0]])
        assert query_fov(lmap, Pose(0, 0, 0), radius=10.0).shape == (1, 2)

    def test_results_ordered_by_id(self):
        pts = [[1.0, 0.0], [2.0, 0.0], [3.0, 0.0]]
        lmap = LandmarkMap([30, 10, 20], pts)
        out = query_fov(lmap, Pose(0, 0, 0), radius=10.0)
        np.testing.assert_array_equal(out, [[2.0, 0.0], [3.0, 0.0], [1.0, 0.0]])

    def test_nonpositive_radius_rejected(self):
        lmap = LandmarkMap([0], [[1.0, 1.0]])
        with pytest.raises(ValueError):
            query_fov(lmap, Pose(0, 0, 0), radius=0.0)

    def test_grid_matches_brute_force_large_map(self):
        rng = np.random.default_rng(1)
        pts = rng.uniform(-500, 500, size=(1000, 2))
        lmap = LandmarkMap(np.arange(1000), pts)
        for seed in range(30):
            r = np.random.default_rng(seed)
            pose = Pose(r.uniform(-500, 500), r.uniform(-500, 500), 0.0)
            radius = r.uniform(1.0, 200.0)
            got = query_fov(lmap, pose, radius)
            np.testing.assert_array_equal(got, _brute_force(lmap, pose, radius))

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(st.tuples(st.floats(-200, 200), st.floats(-200, 200)), min_size=1, max_size=40),
        st.floats(-250, 250),
        st.floats(-250, 250),
        st.floats(0.5, 300),
    )
    def test_grid_matches_brute_force_property(self, raw_pts, px, py, radius):
        pts = np.asarray(raw_pts)
        lmap = LandmarkMap(np.arange(len(raw_pts)), pts)
        pose = Pose(px, py, 0.0)
        got = query_fov(lmap, pose, radius)
        np.testing.assert_array_equal(got, _brute_force(lmap, pose, radius))
