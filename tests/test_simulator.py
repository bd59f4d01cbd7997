import dataclasses
import hashlib
import math

import numpy as np
import pytest

from attnloc import experiment
from attnloc.geometry import Pose
from attnloc.simulator import (
    SimConfig,
    ctrv_step,
    degrade,
    generate_scene,
    generate_trajectory,
    sample_landmarks,
    scene_rng,
)


class TestSimConfig:
    def test_non_pd_sigma_rejected(self):
        with pytest.raises(ValueError):
            SimConfig(distribution="gaussian", sigma=((1.0, 2.0), (2.0, 1.0)))

    def test_asymmetric_sigma_rejected(self):
        with pytest.raises(ValueError):
            SimConfig(sigma1=((1.0, 0.5), (0.0, 1.0)))

    def test_nu_bounds(self):
        with pytest.raises(ValueError):
            SimConfig(nu_min=5, nu_max=4)
        with pytest.raises(ValueError):
            SimConfig(nu_min=0)

    def test_negative_rates_rejected(self):
        with pytest.raises(ValueError):
            SimConfig(lambda_clutter=-1.0)

    def test_replaced_config_gets_fresh_factors(self):
        cfg = dataclasses.replace(SimConfig(distribution="gaussian"), sigma=((4.0, 0.0), (0.0, 9.0)))
        np.testing.assert_array_equal(cfg.chol["sigma"], [[2.0, 0.0], [0.0, 3.0]])


class TestSampleLandmarks:
    def test_exact_count(self):
        cfg = SimConfig(nu_min=5, nu_max=5)
        assert sample_landmarks(cfg, np.random.default_rng(0)).shape == (5, 2)

    def test_degenerate_covariance_collapses_to_mean(self):
        cfg = SimConfig(distribution="gaussian", mu=(20.0, 0.0),
                        sigma=((1e-12, 0.0), (0.0, 1e-12)), nu_min=50, nu_max=50)
        pts = sample_landmarks(cfg, np.random.default_rng(1))
        np.testing.assert_allclose(pts, np.tile([20.0, 0.0], (50, 1)), atol=1e-4)

    @pytest.mark.slow
    def test_gaussian_statistics(self):
        cfg = SimConfig(distribution="gaussian", nu_min=1, nu_max=1)
        rng = np.random.default_rng(2)
        pts = np.vstack([sample_landmarks(cfg, rng) for _ in range(100_000)])
        n = pts.shape[0]
        se = np.sqrt(np.array([100.0, 15.0]) / n)
        assert np.all(np.abs(pts.mean(axis=0) - [20.0, 0.0]) < 3 * se)
        var = pts.var(axis=0)
        assert abs(var[0] - 100.0) / 100.0 < 0.05
        assert abs(var[1] - 15.0) / 15.0 < 0.05

    @pytest.mark.slow
    def test_mixture_component_weights(self):
        # P(component 2) = lambda2 / (1 + lambda2) = 0.375, so
        # E[y] = 0.625 * (-2) + 0.375 * 2 = -0.5
        cfg = SimConfig(distribution="mixture", nu_min=1, nu_max=1)
        rng = np.random.default_rng(3)
        pts = np.vstack([sample_landmarks(cfg, rng) for _ in range(100_000)])
        # y | component is N(+-2, 1): split at 0 identifies the component
        frac2 = (pts[:, 1] > 0).mean()
        assert abs(frac2 - 0.375) < 0.01
        assert abs(pts[:, 1].mean() - (-0.5)) < 0.03


class TestDegrade:
    def test_no_degradation_is_identity(self):
        cfg = SimConfig(lambda_clutter=0.0, lambda_miss=0.0, sigma_noise=0.0)
        lm = np.random.default_rng(4).uniform(-10, 10, size=(7, 2))
        np.testing.assert_array_equal(degrade(lm, cfg, np.random.default_rng(5)), lm)

    def test_miss_cap_keeps_one_point(self):
        cfg = SimConfig(lambda_clutter=0.0, lambda_miss=1e4, sigma_noise=0.0)
        lm = np.random.default_rng(6).uniform(-10, 10, size=(5, 2))
        for seed in range(20):
            out = degrade(lm, cfg, np.random.default_rng(seed))
            assert out.shape[0] >= 1

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            degrade(np.zeros((0, 2)), SimConfig(), np.random.default_rng(0))

    def test_noise_support(self):
        cfg = SimConfig(lambda_clutter=0.0, lambda_miss=0.0, sigma_noise=0.05)
        lm = np.zeros((200, 2))
        out = degrade(lm, cfg, np.random.default_rng(7))
        assert np.abs(out).max() <= 0.05

    def test_clutter_inside_box(self):
        cfg = SimConfig(lambda_clutter=50.0, lambda_miss=0.0, sigma_noise=0.0,
                        clutter_lo=(-10.0, -20.0), clutter_hi=(60.0, 20.0))
        lm = np.array([[0.0, 0.0]])
        out = degrade(lm, cfg, np.random.default_rng(8))
        clutter = out[1:]
        assert np.all(clutter[:, 0] >= -10.0) and np.all(clutter[:, 0] <= 60.0)
        assert np.all(clutter[:, 1] >= -20.0) and np.all(clutter[:, 1] <= 20.0)

    @pytest.mark.slow
    def test_poisson_clutter_rate(self):
        cfg = SimConfig(lambda_clutter=2.0, lambda_miss=0.0, sigma_noise=0.0)
        lm = np.array([[1.0, 1.0]])
        rng = np.random.default_rng(9)
        counts = np.array([degrade(lm, cfg, rng).shape[0] - 1 for _ in range(10_000)])
        se = math.sqrt(2.0 / counts.size)
        assert abs(counts.mean() - 2.0) < 3 * se

    @pytest.mark.slow
    def test_poisson_miss_rate(self):
        cfg = SimConfig(lambda_clutter=0.0, lambda_miss=1.0, sigma_noise=0.0)
        lm = np.random.default_rng(10).uniform(-10, 10, size=(30, 2))
        rng = np.random.default_rng(11)
        missed = np.array([30 - degrade(lm, cfg, rng).shape[0] for _ in range(10_000)])
        se = math.sqrt(1.0 / missed.size)
        assert abs(missed.mean() - 1.0) < 3 * se


class TestGenerateScene:
    def test_deterministic_under_fixed_seed(self):
        cfg = SimConfig(seed=0)
        a_meas, a_lm = generate_scene(cfg, scene_rng(12, 3))
        b_meas, b_lm = generate_scene(cfg, scene_rng(12, 3))
        np.testing.assert_array_equal(a_lm, b_lm)
        np.testing.assert_array_equal(a_meas, b_meas)

    def test_landmark_count_in_bounds(self):
        cfg = SimConfig(nu_min=8, nu_max=24)
        for i in range(50):
            _, lm = generate_scene(cfg, scene_rng(13, i))
            assert 8 <= lm.shape[0] <= 24

    @pytest.mark.slow
    def test_mean_measurement_count(self):
        cfg = SimConfig(lambda_clutter=2.0, lambda_miss=1.0, sigma_noise=0.0)
        deltas = []
        for i in range(10_000):
            meas, lm = generate_scene(cfg, scene_rng(14, i))
            deltas.append(meas.shape[0] - lm.shape[0])
        deltas = np.array(deltas)
        se = math.sqrt((2.0 + 1.0) / deltas.size)
        assert abs(deltas.mean() - (2.0 - 1.0)) < 3 * se


def _fingerprint(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.asarray(a, dtype=np.float64)
        h.update(np.asarray(a.shape).tobytes())
        h.update(a.tobytes())
    return h.hexdigest()


class TestPinnedOutput:
    """sha256 of seeded simulator output, recorded from the code; a change that moves a bit fails here."""

    @pytest.mark.parametrize("distribution, digest", [
        ("mixture", "a4b78c469092cdc62a05f94c83dc16231288f9e3a5c5a1f2a786d0dc6814b951"),
        ("gaussian", "e6fcb14f7f43b7e6cfef3a23ddf8d711bd5060be3b50fa1e446a41b675e082f3"),
    ])
    def test_scene_set(self, distribution, digest):
        scenes = experiment.generate_scene_set(SimConfig(distribution=distribution, seed=0),
                                               1.0, math.radians(4.0), 50, 0)
        assert _fingerprint(a for sc in scenes for a in (sc.measurements, sc.landmarks, sc.gps_pose.as_array())) \
            == digest

    def test_desk_drive_map(self):
        d = experiment.DriveConfig()
        lmap = experiment.build_drive_map(experiment.drive_trajectory(d), d, SimConfig(), np.random.default_rng((0, 2)))
        assert lmap.shape == (229, 2)
        assert _fingerprint([lmap]) == "3510fdab29156c6f61c72174f92c8bbf81da48ef6a2a411410f2a2c3f6a0fd9d"


class TestDriveConfig:
    @pytest.mark.parametrize("bad", [{"dt": math.nan}, {"dt": math.inf}, {"v": math.nan}, {"v": math.inf}],
                             ids=["dt-nan", "dt-inf", "v-nan", "v-inf"])
    def test_non_finite_motion_rejected(self, bad):
        with pytest.raises(ValueError, match="finite number"):
            experiment.DriveConfig(**bad)


class TestTrajectory:
    def test_zero_velocity_constant_pose(self):
        poses = generate_trajectory(0.0, 0.0, dt=0.5, steps=10)
        assert all(p == poses[0] for p in poses)

    def test_straight_line_advance(self):
        poses = generate_trajectory(1.0, 0.0, dt=1.0, steps=10)
        assert len(poses) == 11
        for i, p in enumerate(poses):
            assert p.x == pytest.approx(float(i), abs=1e-12)
            assert p.y == 0.0

    def test_quarter_circle(self):
        # v=1, omega=pi/2: radius 2/pi, quarter turn after 1 s
        poses = generate_trajectory(1.0, math.pi / 2, dt=0.01, steps=100)
        end = poses[-1]
        r = 2.0 / math.pi
        assert end.x == pytest.approx(r, abs=1e-9)
        assert end.y == pytest.approx(r, abs=1e-9)
        assert end.phi == pytest.approx(math.pi / 2, abs=1e-9)

    def test_single_step_closed_form(self):
        p = ctrv_step(Pose(0, 0, 0), v=1.0, omega=math.pi / 2, dt=1.0)
        assert p.x == pytest.approx(2.0 / math.pi)
        assert p.y == pytest.approx(2.0 / math.pi)

    def test_nonpositive_dt_rejected(self):
        with pytest.raises(ValueError):
            ctrv_step(Pose(0, 0, 0), 1.0, 0.0, dt=0.0)

    @pytest.mark.parametrize("omega", [0.0, 0.5])
    @pytest.mark.parametrize("dt", [math.nan, math.inf])
    def test_non_finite_dt_rejected(self, dt, omega):
        with pytest.raises(ValueError, match="dt must be a finite number > 0, got"):
            ctrv_step(Pose(0, 0, 0), 1.0, omega, dt)
        with pytest.raises(ValueError, match="dt must be a finite number > 0, got"):
            generate_trajectory(1.0, omega, dt, steps=1)
