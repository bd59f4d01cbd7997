import math

import numpy as np
import pytest

from attnloc.baselines import icp
from attnloc.geometry import Pose, PoseOffset
from attnloc.simulator import generate_trajectory
from baselines_helpers import ekf_gps_baseline
from geometry_helpers import invert_offset, perturb_points


def _cloud(seed, n=15, scale=20.0):
    return np.random.default_rng(seed).uniform(-scale, scale, size=(n, 2))


class TestIcp:
    def test_identical_sets_identity(self):
        m = _cloud(0)
        result = icp(m, m)
        assert result.iterations == 1
        assert result.rms < 1e-12
        assert abs(result.offset.dx) < 1e-12
        assert abs(result.offset.dy) < 1e-12
        assert abs(result.offset.dphi) < 1e-12

    def test_construct_and_invert(self):
        # landmarks are a rigid transform of the measurements; the recovered
        # transform maps them back, i.e. the analytic inverse
        m = _cloud(1)
        applied = PoseOffset(0.5, 0.3, math.radians(3.0))
        lm = perturb_points(m, applied)
        expect = invert_offset(applied)
        result = icp(m, lm)
        assert result.iterations <= 5
        assert result.offset.dx == pytest.approx(expect.dx, abs=1e-3)
        assert result.offset.dy == pytest.approx(expect.dy, abs=1e-3)
        assert math.degrees(abs(result.offset.dphi - expect.dphi)) < 0.01

    @pytest.mark.parametrize("seed", range(6))
    def test_random_small_offsets_recovered(self, seed):
        rng = np.random.default_rng(100 + seed)
        m = rng.uniform(-25, 25, size=(20, 2))
        applied = PoseOffset(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5),
                             math.radians(rng.uniform(-5, 5)))
        lm = perturb_points(m, applied)
        expect = invert_offset(applied)
        result = icp(m, lm)
        assert result.iterations <= 5
        assert abs(result.offset.dx - expect.dx) < 1e-3
        assert abs(result.offset.dy - expect.dy) < 1e-3
        assert math.degrees(abs(result.offset.dphi - expect.dphi)) < 0.01

    def test_residual_monotone_nonincreasing(self):
        rng = np.random.default_rng(2)
        m = rng.uniform(-20, 20, size=(25, 2))
        lm = perturb_points(m, PoseOffset(0.8, -0.6, math.radians(6)))
        result = icp(m, lm, tol=0.0, max_iter=20)  # force full iteration count
        for a, b in zip(result.residuals, result.residuals[1:]):
            assert b <= a + 1e-12

    def test_clutter_degrades_residual(self):
        rng = np.random.default_rng(3)
        m_clean = rng.uniform(-20, 20, size=(20, 2))
        lm = perturb_points(m_clean, PoseOffset(0.2, 0.1, math.radians(2)))
        lm_noisy = lm + rng.uniform(-0.1, 0.1, size=lm.shape)
        clean = icp(m_clean, lm_noisy)
        clutter = rng.uniform(-20, 20, size=(4, 2))  # 20% spurious measurements
        noisy = icp(np.vstack([m_clean, clutter]), lm_noisy)
        assert noisy.rms > clean.rms

    def test_too_few_points_rejected(self):
        with pytest.raises(ValueError):
            icp([[0.0, 0.0]], [[1.0, 1.0], [2.0, 2.0]])

    def test_degenerate_geometry_rejected(self):
        coincident = np.tile([[1.0, 1.0]], (5, 1))
        with pytest.raises(ValueError):
            icp(coincident, coincident)

    def test_init_guess_used(self):
        m = _cloud(4)
        applied = PoseOffset(2.5, -1.5, math.radians(10))  # beyond cold-start capture
        lm = perturb_points(m, applied)
        expect = invert_offset(applied)
        warm = icp(m, lm, init=PoseOffset(expect.dx + 0.1, expect.dy - 0.1, expect.dphi))
        assert abs(warm.offset.dx - expect.dx) < 1e-3
        assert abs(warm.offset.dy - expect.dy) < 1e-3


class TestEkfGpsBaseline:
    def test_noiseless_gps_converges_to_input(self):
        poses = generate_trajectory(5.0, 0.0, dt=0.1, steps=80)
        out = ekf_gps_baseline(poses, dt=0.1)
        tail_err = [math.hypot(a.x - b.x, a.y - b.y) for a, b in zip(out[-20:], poses[-20:])]
        assert max(tail_err) < 0.05

    def test_smoothing_beats_raw_noise(self):
        rng = np.random.default_rng(5)
        gt = generate_trajectory(5.0, 0.0, dt=0.1, steps=150)
        noisy = [Pose(p.x + rng.normal(scale=1.0), p.y + rng.normal(scale=1.0),
                      p.phi + rng.normal(scale=0.05)) for p in gt]
        smoothed = ekf_gps_baseline(noisy, dt=0.1)

        def rmse_pos(est):
            e = np.array([[a.x - b.x, a.y - b.y] for a, b in zip(est, gt)])
            return float(np.sqrt((e**2).sum(axis=1).mean()))

        assert rmse_pos(smoothed) < rmse_pos(noisy)

    def test_single_pose(self):
        p = Pose(3.0, 4.0, 0.5)
        out = ekf_gps_baseline([p], dt=0.1)
        assert out == [p]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ekf_gps_baseline([], dt=0.1)
