import json
import math
from pathlib import Path

import numpy as np
import pytest

from attnloc import attention_net as net
from attnloc import experiment, inference, training
from attnloc.dataset_io import Scene, load_checkpoint
from attnloc.geometry import Pose, PoseOffset, offset_pose
from attnloc.inference import (
    EkfConfig,
    EkfState,
    FilterSession,
    NoLandmarksInFov,
    ekf_predict,
    ekf_update,
    gps_inference,
    init_state,
)
from attnloc.simulator import SimConfig, generate_trajectory


def _state(x=0.0, y=0.0, phi=0.0, v=0.0, omega=0.0, var=1.0):
    return EkfState(mean=np.array([x, y, phi, v, omega]), cov=np.eye(5) * var)


@pytest.fixture(scope="module")
def zero_net():
    """Network whose prediction is exactly (0, 0, 0)."""
    params = net.init_params(net.NetConfig(d_m=8, heads=2, k=2, seed=0))
    out_layer = len(params.config.head_hidden)
    params.tensors[f"head.w{out_layer}"] = net.Tensor(np.zeros((64, 3)))
    params.tensors[f"head.b{out_layer}"] = net.Tensor(np.zeros((1, 3)))
    return params


class TestEkfConfig:
    @pytest.mark.parametrize("bad", [
        {"sigma_accel": math.nan}, {"sigma_yaw_accel": math.inf},
        {"r_diag": (math.nan, 1.0, 1.0)}, {"r_diag": (1.0, 1.0, math.inf)},
    ], ids=["sigma_accel-nan", "sigma_yaw_accel-inf", "r_diag-nan", "r_diag-inf"])
    def test_non_finite_noise_rejected(self, bad):
        # a NaN density would build and make every predicted covariance NaN
        with pytest.raises(ValueError, match="finite"):
            EkfConfig(**bad)


class TestEkfPredict:
    def test_stationary_mean_fixed_covariance_grows(self):
        # zero prior isolates the process noise: the output covariance is Q
        cfg = EkfConfig()
        s = EkfState(mean=np.zeros(5), cov=np.zeros((5, 5)))
        out = ekf_predict(s, cfg, dt=0.5)
        np.testing.assert_array_equal(out.mean, s.mean)
        assert np.all(np.linalg.eigvalsh(out.cov) >= -1e-15)
        assert np.trace(out.cov) > 0

    def test_straight_motion(self):
        out = ekf_predict(_state(v=1.0), EkfConfig(), dt=1.0)
        assert out.mean[0] == pytest.approx(1.0)
        assert out.mean[1] == pytest.approx(0.0)

    def test_ctrv_closed_form(self):
        out = ekf_predict(_state(v=1.0, omega=math.pi / 2), EkfConfig(), dt=1.0)
        assert out.mean[0] == pytest.approx(2.0 / math.pi)
        assert out.mean[1] == pytest.approx(2.0 / math.pi)
        assert out.mean[2] == pytest.approx(math.pi / 2)

    def test_jacobian_matches_numeric(self):
        # with identity prior and negligible process noise, the propagated
        # covariance is F F^T; compare against the numeric Jacobian
        tiny = EkfConfig(sigma_accel=1e-12, sigma_yaw_accel=1e-12)
        for omega in (0.0, 0.3, -0.7, 1e-7):
            mean = np.array([1.0, -2.0, 0.4, 3.0, omega])

            def f(m):
                return ekf_predict(EkfState(mean=m.copy(), cov=np.eye(5)), tiny, dt=0.25).mean

            # h large enough that sin-difference cancellation noise (about
            # 1e-16 * v/omega) stays below the finite-difference signal
            h = 1e-4
            num = np.zeros((5, 5))
            for j in range(5):
                up, dn = mean.copy(), mean.copy()
                up[j] += h
                dn[j] -= h
                num[:, j] = (f(up) - f(dn)) / (2 * h)
            cov_out = ekf_predict(EkfState(mean=mean.copy(), cov=np.eye(5)), tiny, dt=0.25).cov
            np.testing.assert_allclose(cov_out, num @ num.T, atol=1e-5)

    def test_dt_validation(self):
        with pytest.raises(ValueError):
            ekf_predict(_state(), EkfConfig(), dt=0.0)

    @pytest.mark.parametrize("omega", [0.0, 0.5])
    @pytest.mark.parametrize("dt", [math.nan, math.inf])
    def test_non_finite_dt_rejected(self, dt, omega):
        with pytest.raises(ValueError, match="dt must be a finite number > 0, got"):
            ekf_predict(_state(v=1.0, omega=omega), EkfConfig(), dt=dt)

    def test_symmetry_preserved(self):
        rng = np.random.default_rng(0)
        s = _state(v=5.0, omega=0.2)
        for _ in range(100):
            s = ekf_predict(s, EkfConfig(), dt=0.1)
            assert np.abs(s.cov - s.cov.T).max() < 1e-9


class TestEkfUpdate:
    def test_tight_measurement_dominates(self):
        cfg = EkfConfig(r_diag=(1e-12, 1e-12, 1e-12))
        out = ekf_update(_state(var=10.0), Pose(3.0, -1.0, 0.5), cfg)
        assert out.mean[0] == pytest.approx(3.0, abs=1e-6)
        assert out.mean[1] == pytest.approx(-1.0, abs=1e-6)
        assert out.mean[2] == pytest.approx(0.5, abs=1e-6)

    def test_zero_innovation_keeps_mean(self):
        s = _state(x=2.0, y=1.0, phi=0.3, v=4.0)
        out = ekf_update(s, Pose(2.0, 1.0, 0.3), EkfConfig())
        np.testing.assert_allclose(out.mean, s.mean, atol=1e-12)

    def test_pose_covariance_contracts(self):
        s = _state(var=4.0)
        out = ekf_update(s, Pose(0.1, 0.2, 0.0), EkfConfig())
        assert np.trace(out.cov[:3, :3]) < np.trace(s.cov[:3, :3])

    def test_innovation_wraps_at_seam(self):
        s = _state(phi=math.pi - 0.01, var=1.0)
        out = ekf_update(s, Pose(0.0, 0.0, -math.pi + 0.01), EkfConfig())
        # innovation is +0.02, not -2pi + 0.02
        assert abs(out.mean[2]) > math.pi - 0.02

    def test_posterior_stays_psd(self):
        rng = np.random.default_rng(1)
        s = _state(var=2.0)
        for i in range(200):
            s = ekf_predict(s, EkfConfig(), dt=0.1)
            z = Pose(rng.normal(), rng.normal(), rng.normal(scale=0.3))
            s = ekf_update(s, z, EkfConfig())
            assert np.all(np.linalg.eigvalsh(s.cov) > 0)


class TestGpsInference:
    def _map(self):
        # the map's landmarks, also used as noise-free measurements
        return np.random.default_rng(2).uniform(5, 40, size=(12, 2)) * np.array([1.0, 0.3])

    def test_zero_net_returns_gps_pose(self, zero_net):
        pts = self._map()
        p_gps = Pose(1.0, -0.5, 0.1)
        out = gps_inference(zero_net, pts, pts, p_gps, fov_radius=100.0)
        assert out == p_gps

    def test_oracle_prediction_recovers_truth(self, zero_net, monkeypatch):
        # an oracle that outputs the exact offset undoes the GPS error
        pts = self._map()
        gt = Pose(0.0, 0.0, 0.0)
        d = PoseOffset(0.4, -0.2, 0.05)
        p_gps = offset_pose(gt, d)
        monkeypatch.setattr(inference.net, "predict_offset", lambda m, lm, p: d)
        out = gps_inference(zero_net, pts, pts, p_gps, fov_radius=100.0)
        assert (out.x, out.y, out.phi) == pytest.approx((gt.x, gt.y, gt.phi), abs=1e-12)

    def test_empty_fov_rejected(self, zero_net):
        pts = self._map()
        with pytest.raises(NoLandmarksInFov, match="field of view"):
            gps_inference(zero_net, pts, pts, Pose(1e6, 1e6, 0.0), fov_radius=10.0)

    @pytest.mark.parametrize("radius", [math.nan, math.inf])
    def test_non_finite_radius_rejected(self, zero_net, radius):
        # named as a bad radius, not reported as an empty field of view
        pts = self._map()
        with pytest.raises(ValueError, match="radius must be a finite number > 0"):
            gps_inference(zero_net, pts, pts, Pose(0, 0, 0), fov_radius=radius)

    def test_empty_measurements_rejected(self, zero_net):
        pts = self._map()
        with pytest.raises(ValueError):
            gps_inference(zero_net, pts, np.zeros((0, 2)), Pose(0, 0, 0), fov_radius=100.0)

    # landmarks reach the network only through the FoV query, which never
    # returns a non-finite point, so the measurements carry the input check
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_measurement_rejected(self, zero_net, bad):
        pts = self._map()
        m = pts.copy()
        m[3, 1] = bad
        with pytest.raises(ValueError, match="entries must be finite"):
            gps_inference(zero_net, pts, m, Pose(1.0, -0.5, 0.1), fov_radius=100.0)

    def test_icp_empty_fov_rejected_alike(self):
        # the ICP baseline runs the same localization step, so it fails the same way
        pts = self._map()
        far = Scene(t=0.0, gt_pose=Pose(0, 0, 0), gps_pose=Pose(1e6, 1e6, 0.0), measurements=pts, landmarks=pts)
        with pytest.raises(NoLandmarksInFov, match="field of view"):
            experiment.evaluate_icp([far], fov_radius=10.0)


class TestFilterSession:
    def test_stationary_zero_net_fixed_estimate(self, zero_net):
        rng = np.random.default_rng(3)
        pts = rng.uniform(-30, 30, size=(10, 2))
        init = Pose(0.5, -0.25, 0.02)
        session = FilterSession(zero_net, pts, init, EkfConfig(), fov_radius=100.0)
        for _ in range(10):
            out = session.step(pts, dt=0.1)
            assert out.x == pytest.approx(init.x, abs=1e-9)
            assert out.y == pytest.approx(init.y, abs=1e-9)
            assert out.phi == pytest.approx(init.phi, abs=1e-9)

    @pytest.mark.parametrize("dt", [0.0, math.nan, math.inf, -math.inf])
    def test_bad_dt_rejected_before_the_step(self, zero_net, monkeypatch, dt):
        session = FilterSession(zero_net, np.array([[1.0, 1.0]]), Pose(0, 0, 0), EkfConfig(), fov_radius=100.0)
        state = session.state
        monkeypatch.setattr(inference, "gps_inference", None)  # the FoV query and the network must not run
        with pytest.raises(ValueError, match="dt must be a finite number > 0, got"):
            session.step([[1.0, 1.0]], dt=dt)
        assert session.state is state

    def test_oracle_with_noise_beats_raw_measurements(self, zero_net, monkeypatch):
        # 100-step drive; an oracle network plus pose noise stands in for
        # the trained model, so the filter sees z = true pose + noise
        poses = generate_trajectory(5.0, 0.05, dt=0.1, steps=100)
        truth = poses[1:]
        noise = np.random.default_rng(4).normal(scale=0.3, size=(len(truth), 3))
        noisy = [Pose(g.x + n[0], g.y + n[1], g.phi + 0.05 * n[2]) for g, n in zip(truth, noise)]

        pts = np.vstack([[p.x + 10.0, p.y] for p in poses])
        session = FilterSession(zero_net, pts, poses[0], EkfConfig(), fov_radius=1e6)

        z_seq = iter(noisy)

        def oracle(m, lm, p):
            z = next(z_seq)
            prev = session.state.pose()
            return PoseOffset(prev.x - z.x, prev.y - z.y, prev.phi - z.phi)

        monkeypatch.setattr(inference.net, "predict_offset", oracle)
        filtered = [session.step(pts[:5], dt=0.1) for _ in truth]

        def rmse_pos(est):
            e = np.array([[a.x - b.x, a.y - b.y] for a, b in zip(est, truth)])
            return float(np.sqrt((e**2).sum(axis=1).mean()))

        assert rmse_pos(filtered) <= rmse_pos(noisy)


def _count_derivations(monkeypatch) -> list:
    """Every distinct InferenceWeights that net.inference_weights returns for a ModelParams from now on."""
    derived = []
    derive = net.inference_weights

    def counted(params):
        weights = derive(params)
        if weights is not params and not any(weights is w for w in derived):
            derived.append(weights)
        return weights

    monkeypatch.setattr(net, "inference_weights", counted)
    return derived


def _copy_params(params: net.ModelParams) -> net.ModelParams:
    return net.ModelParams(params.config, {name: net.Tensor(t.data.copy()) for name, t in params.items()})


class TestInferenceWeights:
    @pytest.fixture(scope="class")
    def setup(self):
        params = net.init_params(net.NetConfig(d_m=16, heads=2, k=3, seed=2))
        scenes = experiment.generate_scene_set(SimConfig(distribution="mixture", seed=6), 1.0, math.radians(4.0), 8, 6)
        return params, scenes

    def test_evaluate_gps_equals_per_call_gps_inference(self, setup):
        params, scenes = setup
        preds, _, _ = experiment.evaluate_gps(params, scenes, None, 60.0)
        assert preds == [gps_inference(params, experiment.scene_map(sc), sc.measurements, sc.gps_pose, 60.0)
                         for sc in scenes]

    def test_evaluate_gps_derives_once(self, setup, monkeypatch):
        params, scenes = setup
        derived = _count_derivations(monkeypatch)
        experiment.evaluate_gps(params, scenes, None, 60.0)
        assert len(derived) == 1

    def test_filter_session_derives_once(self, setup, monkeypatch):
        params, scenes = setup
        derived = _count_derivations(monkeypatch)
        sc = scenes[0]
        session = FilterSession(params, experiment.scene_map(sc), sc.gps_pose, EkfConfig(), fov_radius=100.0)
        for _ in range(5):
            session.step(sc.measurements, 0.05)
        assert len(derived) == 1

    def test_calls_on_one_model_params_derive_once(self, setup, monkeypatch):
        params, scenes = _copy_params(setup[0]), setup[1]
        derived = _count_derivations(monkeypatch)
        for i in range(50):
            sc = scenes[i % len(scenes)]
            gps_inference(params, experiment.scene_map(sc), sc.measurements, sc.gps_pose, 60.0)
            net.predict_offset(sc.measurements, sc.landmarks, params)
        assert len(derived) == 1

    def test_replacing_arrays_derives_anew(self, setup, monkeypatch):
        params, scenes = _copy_params(setup[0]), setup[1]
        sc = scenes[0]
        session = FilterSession(params, experiment.scene_map(sc), sc.gps_pose, EkfConfig(), fov_radius=100.0)
        before = net.predict_offset(sc.measurements, sc.landmarks, params)
        pred = net.forward([(sc.measurements, sc.landmarks)], params)
        params.zero_grads()
        pred.sum().backward()
        training.adam_step(params, {name: t.grad for name, t in params.items()}, training.AdamState(params), 1e-2)
        derived = _count_derivations(monkeypatch)
        after = net.predict_offset(sc.measurements, sc.landmarks, params)
        assert len(derived) == 1 and derived[0] is not session.weights
        assert after == net.predict_offset(sc.measurements, sc.landmarks, _copy_params(params)) != before
        assert all(session.weights[name] is not t.data for name, t in params.items())
        assert net.predict_offset(sc.measurements, sc.landmarks, session.weights) == before

    def test_derived_weights_come_back_unchanged(self, setup):
        weights = net.inference_weights(setup[0])
        assert net.inference_weights(weights) is weights
        assert set(weights.arrays) == set(setup[0].tensors)


ROOT = Path(__file__).resolve().parent.parent
# FilterSession with the pinned desk checkpoint over the first 200 frames of
# the configs/filter_desk.json drive: every 25th pose from frame 24, (x, y, phi)
DESK_FILTER_POSES = {
    24: (9.615359943303252, 0.08943878780039197, 0.04112283299615273),
    49: (19.644276913213734, 0.6781855943298623, 0.07821928200957508),
    74: (29.527627458656497, 1.513601375357138, 0.10108070626360698),
    99: (39.51127446961657, 2.6582139997425975, 0.14344417111855187),
    124: (49.412216621889094, 4.084720497474402, 0.17178649901913728),
    149: (59.266710128752194, 5.842641376264357, 0.20102828695146516),
    174: (69.04256988600177, 7.929175416092924, 0.23910357463604265),
    199: (78.62966055261279, 10.353193671144151, 0.2723168628697232),
}


class TestPinnedFilter:
    def test_poses_match_recorded_values(self):
        plan = experiment.parse_config(json.loads((ROOT / "configs" / "filter_desk.json").read_text()))
        poses, lmap = experiment.drive_map(plan)
        frames = experiment.drive_frames(poses, lmap, plan.drive, plan.sim, *plan.gps_noise, plan.seed + 3)[:200]
        params = load_checkpoint(str(ROOT / "perfbench" / "desk_checkpoint.json"))
        session = FilterSession(params, lmap, frames[0].gps_pose, plan.ekf, experiment.FOV_RADIUS)
        got = {}
        for i in range(1, len(frames)):
            pose = session.step(frames[i].measurements, frames[i].t - frames[i - 1].t)
            if i in DESK_FILTER_POSES:
                got[i] = pose.as_array()
        np.testing.assert_allclose([got[i] for i in DESK_FILTER_POSES], list(DESK_FILTER_POSES.values()),
                                   rtol=0, atol=1e-12)
