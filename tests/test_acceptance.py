"""Acceptance gate: every criterion at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one summary line
per criterion. The desk-scale training used by criteria 4 and 7 runs once
and is shared; expect a few minutes of wall-clock time.
"""

import json
import math
import os
import time
from pathlib import Path

import numpy as np
import pytest

from attnloc import attention_net as net
from attnloc import autodiff as ad
from attnloc import experiment, simulator, training
from attnloc.autodiff import Tensor
from attnloc.baselines import icp
from attnloc.dataset_io import Scene, load_checkpoint, load_scenes, save_checkpoint, save_scenes
from attnloc.geometry import Pose, PoseOffset
from attnloc.inference import EkfConfig, EkfState, ekf_predict, ekf_update
from attnloc.map_store import save_map
from attnloc.simulator import SimConfig, degrade, generate_scene, generate_trajectory, sample_landmarks, scene_rng
from autodiff_helpers import check_gradient, concat, exp, mean, sub
from baselines_helpers import ekf_gps_baseline
from geometry_helpers import invert_offset, perturb_points
from map_store_helpers import read_map
from metrics_helpers import rmse

GPS_SIGMA_POS = 1.0
GPS_SIGMA_ROT = math.radians(4.0)

DESK_CFG = {
    "mode": "gps",
    "seed": 0,
    "net": {"d_m": 64, "heads": 4, "k": 8},
    "sim": {"distribution": "mixture"},
    "train": {"epochs": 30, "batch_size": 16, "learning_rate": 1e-3},
    "gps_noise": {"sigma_pos": 1.0, "sigma_phi_deg": 4.0},
    "eval": {"n_train_scenes": 2000, "n_eval_scenes": 200},
    "ekf": {"r_pos_var": 0.09, "r_phi_deg": 1.5},
}


def _announce(criterion, passed, detail):
    print(f"\nACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, detail


@pytest.fixture(scope="module")
def desk_model():
    """Criterion 4 training run, shared with criterion 7."""
    cfg = DESK_CFG
    scfg = experiment.sim_config(cfg)
    t0 = time.perf_counter()
    train_scenes = experiment.generate_scene_set(scfg, GPS_SIGMA_POS, GPS_SIGMA_ROT, 2000, seed=0)
    eval_scenes = experiment.generate_scene_set(scfg, GPS_SIGMA_POS, GPS_SIGMA_ROT, 200, seed=1)
    params = net.init_params(experiment.net_config(cfg))
    pool = [(sc.measurements, sc.landmarks) for sc in train_scenes]
    params, history = training.train(params, experiment.train_config(cfg), pool)
    seconds = time.perf_counter() - t0
    return {"params": params, "eval_scenes": eval_scenes, "history": history,
            "train_seconds": seconds, "cfg": cfg}


@pytest.mark.acceptance
class TestAcceptance:
    def test_criterion_1_gradient_suite(self):
        t0 = time.perf_counter()
        rng = np.random.default_rng(0)
        worst = 0.0

        def fd(build, params, h=1e-5):
            nonlocal worst
            worst = max(worst, check_gradient(build, params, h=h))

        # every primitive, randomized small shapes
        a = Tensor(rng.normal(size=(4, 6)))
        b = Tensor(rng.normal(size=(4, 6)))
        bias = Tensor(rng.normal(size=(1, 6)))
        c = Tensor(rng.normal(size=(6, 3)))
        w = Tensor(rng.normal(size=(4, 3)))
        g = Tensor(rng.normal(size=(1, 6)))
        beta = Tensor(rng.normal(size=(1, 6)))
        q = Tensor(rng.normal(size=(3, 5)))
        keys = Tensor(rng.normal(size=(6, 5)))
        vals = Tensor(rng.normal(size=(6, 5)))
        fd(lambda: ((a @ c) * w).sum(), [a, c])
        fd(lambda: ((a + b) * sub(a, b)).sum(), [a, b])
        fd(lambda: mean(ad.linear(a, Tensor(np.eye(6)), bias)), [a, bias])
        fd(lambda: ((a * b) * 1.7).sum(), [a, b])
        fd(lambda: ad.relu(a).sum(), [a])
        fd(lambda: exp(a * 0.1).sum(), [a])
        fd(lambda: (a.T @ b).sum(), [a, b])
        fd(lambda: mean(concat([a, b], axis=0)), [a, b])
        fd(lambda: mean(concat([a, b], axis=1)), [a, b])
        fd(lambda: (ad.softmax_rows(a) * b).sum(), [a])
        fd(lambda: (ad.layer_norm(a, g, beta) * b).sum(), [a, g, beta])
        fd(lambda: (ad.max_pool_rows(a) * bias).sum(), [a])
        fd(lambda: (ad.attention(q, keys, vals, 5) * q).sum(), [q, keys, vals])
        fd(lambda: (ad.attention(q, keys, vals, 1, group=2) * q).sum(), [q, keys, vals])
        # its own generator, so the draws above and below stay as they were
        lin_bias = Tensor(np.random.default_rng(10).normal(size=(1, 3)))
        fd(lambda: (ad.linear(a, c, lin_bias) * w).sum(), [a, c, lin_bias])
        loss_rng = np.random.default_rng(11)
        pred, target = Tensor(loss_rng.normal(size=(4, 3))), loss_rng.normal(size=(4, 3))
        s_tran, s_rot = Tensor(loss_rng.normal(scale=0.5)), Tensor(loss_rng.normal(scale=0.5))
        fd(lambda: ad.homoscedastic_loss(pred, target, s_tran, s_rot)[0], [pred, s_tran, s_rot])
        head_rng = np.random.default_rng(12)
        blocks, rows, stacked_w = (Tensor(head_rng.normal(size=s)) for s in ((3, 6), (6, 4), (9, 4)))
        fd(lambda: (ad.per_head_matmul(blocks, rows, 3) * stacked_w).sum(), [blocks, rows])
        shared_k, shared_v = Tensor(head_rng.normal(size=(6, 1))), Tensor(head_rng.normal(size=(6, 1)))
        fd(lambda: (ad.attention(q, shared_k, shared_v, 5, group=2) * q).sum(), [q, shared_k, shared_v])

        # the full network at nu=3, mu=5, d_m=16, h=2
        cfg = net.NetConfig(d_m=16, heads=2, k=3, seed=1)
        params = net.init_params(cfg)
        m = rng.uniform(-20, 20, size=(3, 2))
        lm = rng.uniform(-20, 20, size=(5, 2))
        label = PoseOffset(0.3, -0.2, 0.05)
        fd(lambda: training.multitask_loss_graph(net.forward([(m, lm)], params), [label], params)[0],
           [t for _, t in params.items()])
        elapsed = time.perf_counter() - t0
        _announce(1, worst < 1e-4 and elapsed < 60.0,
                  f"worst FD rel err {worst:.2e} (< 1e-4), runtime {elapsed:.1f}s (< 60s)")

    def test_criterion_2_permutation_invariance(self):
        params = net.init_params(net.NetConfig(d_m=64, heads=4, k=8, seed=2))
        worst = 0.0
        for i in range(200):
            rng = np.random.default_rng(1000 + i)
            nu, mu = int(rng.integers(1, 25)), int(rng.integers(1, 30))
            m = rng.uniform(-100, 100, size=(nu, 2))
            lm = rng.uniform(-100, 100, size=(mu, 2))
            base = net.predict_offset(m, lm, params).as_array()
            shuf = net.predict_offset(m[rng.permutation(nu)], lm[rng.permutation(mu)], params).as_array()
            worst = max(worst, float(np.abs(base - shuf).max()))
        _announce(2, worst < 1e-9, f"200 scenes, worst |delta| {worst:.2e} (< 1e-9)")

    def test_criterion_3_simulator_statistics(self):
        # Gaussian moments over 1e5 draws
        cfg = SimConfig(distribution="gaussian", nu_min=1, nu_max=1)
        rng = np.random.default_rng(3)
        pts = np.vstack([sample_landmarks(cfg, rng) for _ in range(100_000)])
        se = np.sqrt(np.array([100.0, 15.0]) / pts.shape[0])
        mean_ok = np.all(np.abs(pts.mean(axis=0) - [20.0, 0.0]) < 3 * se)
        var = pts.var(axis=0)
        var_ok = abs(var[0] - 100.0) / 100.0 < 0.05 and abs(var[1] - 15.0) / 15.0 < 0.05

        # Poisson rates
        rates_ok = True
        clutter_cfg = SimConfig(lambda_clutter=2.0, lambda_miss=0.0, sigma_noise=0.0)
        one = np.array([[1.0, 1.0]])
        counts = np.array([degrade(one, clutter_cfg, rng).shape[0] - 1 for _ in range(10_000)])
        rates_ok &= abs(counts.mean() - 2.0) < 3 * math.sqrt(2.0 / counts.size)
        miss_cfg = SimConfig(lambda_clutter=0.0, lambda_miss=1.0, sigma_noise=0.0)
        block = np.random.default_rng(4).uniform(-10, 10, size=(30, 2))
        missed = np.array([30 - degrade(block, miss_cfg, rng).shape[0] for _ in range(10_000)])
        rates_ok &= abs(missed.mean() - 1.0) < 3 * math.sqrt(1.0 / missed.size)

        # no degradation: measurements equal landmarks exactly
        clean_cfg = SimConfig(lambda_clutter=0.0, lambda_miss=0.0, sigma_noise=0.0)
        clean_ok = np.array_equal(*generate_scene(clean_cfg, scene_rng(5, 0)))

        _announce(3, mean_ok and var_ok and rates_ok and clean_ok,
                  f"gaussian mean/var ok={bool(mean_ok and var_ok)}, poisson rates ok={bool(rates_ok)}, "
                  f"zero-rate identity ok={clean_ok}")

    def test_criterion_4_desk_scale_training(self, desk_model):
        params = desk_model["params"]
        t0 = time.perf_counter()
        preds, gts, latency = experiment.evaluate_gps(params, desk_model["eval_scenes"], None, experiment.FOV_RADIUS)
        total_seconds = desk_model["train_seconds"] + (time.perf_counter() - t0)
        r = rmse(preds, gts)
        errors = np.array([[p.x - g.x, p.y - g.y] for p, g in zip(preds, gts)])
        pos_rmse = float(np.sqrt((errors**2).sum(axis=1).mean()))
        baseline = GPS_SIGMA_POS / math.sqrt(3.0)  # uniform noise, zero correction
        baseline_rot = math.degrees(GPS_SIGMA_ROT) / math.sqrt(3.0)
        ok = (r[0] < 0.5 and r[1] < 0.5 and pos_rmse < 0.5 and r[2] < 2.0
              and total_seconds < 1800.0)
        _announce(4, ok,
                  f"RMSE x {r[0]:.3f} m, y {r[1]:.3f} m, |pos| {pos_rmse:.3f} m (< 0.5 m; "
                  f"zero-correction baseline {baseline:.3f} m/component), heading {r[2]:.3f} deg "
                  f"(< 2 deg; baseline {baseline_rot:.3f} deg), "
                  f"runtime {total_seconds / 60:.1f} min (< 30 min), latency {latency.mean_ms:.1f} ms")

    def test_criterion_5_icp_baseline(self):
        worst_t, worst_r, worst_iters = 0.0, 0.0, 0
        monotone = True
        for seed in range(20):
            rng = np.random.default_rng(200 + seed)
            m = rng.uniform(-25, 25, size=(18, 2))
            applied = PoseOffset(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5),
                                 math.radians(rng.uniform(-5, 5)))
            expect = invert_offset(applied)
            result = icp(m, perturb_points(m, applied))
            worst_t = max(worst_t, abs(result.offset.dx - expect.dx), abs(result.offset.dy - expect.dy))
            worst_r = max(worst_r, math.degrees(abs(result.offset.dphi - expect.dphi)))
            worst_iters = max(worst_iters, result.iterations)
            monotone &= all(b <= a + 1e-12 for a, b in zip(result.residuals, result.residuals[1:]))
        ok = worst_t < 1e-3 and worst_r < 0.01 and worst_iters <= 5 and monotone
        _announce(5, ok,
                  f"worst recovery error {worst_t:.2e} m / {worst_r:.2e} deg "
                  f"(< 1e-3 m / 0.01 deg), max iterations {worst_iters} (<= 5), monotone={monotone}")

    def test_criterion_6_ekf_ctrv(self):
        cfg = EkfConfig()
        rng = np.random.default_rng(6)
        state = EkfState(mean=np.array([0.0, 0.0, 0.0, 5.0, 0.1]), cov=np.eye(5))
        worst_asym = 0.0
        pd_ok = True
        for _ in range(10_000):
            state = ekf_predict(state, cfg, dt=float(rng.uniform(0.01, 0.5)))
            z = Pose(state.mean[0] + rng.normal(), state.mean[1] + rng.normal(),
                     state.mean[2] + rng.normal(scale=0.1))
            state = ekf_update(state, z, cfg)
            worst_asym = max(worst_asym, float(np.abs(state.cov - state.cov.T).max()))
            pd_ok &= bool(np.all(np.linalg.eigvalsh(state.cov) > 0))

        # 100-step drive with noisy pose measurements
        gt = generate_trajectory(5.0, 0.03, dt=0.1, steps=100)
        noise = np.random.default_rng(7).normal(scale=1.0, size=(len(gt), 3))
        noisy = [Pose(p.x + n[0], p.y + n[1], p.phi + 0.05 * n[2]) for p, n in zip(gt, noise)]
        smoothed = ekf_gps_baseline(noisy, dt=0.1)

        def pos_rmse(est):
            e = np.array([[a.x - b.x, a.y - b.y] for a, b in zip(est, gt)])
            return float(np.sqrt((e**2).sum(axis=1).mean()))

        filt, raw = pos_rmse(smoothed), pos_rmse(noisy)
        ok = worst_asym <= 1e-9 and pd_ok and filt <= raw
        _announce(6, ok,
                  f"1e4 cycles: asymmetry {worst_asym:.2e} (<= 1e-9), PD={pd_ok}; "
                  f"drive: filtered {filt:.3f} m <= raw {raw:.3f} m")

    def test_criterion_7_filter_end_to_end(self, desk_model):
        cfg = desk_model["cfg"]
        scfg = experiment.sim_config(cfg)
        dcfg = experiment.drive_config(cfg)  # 120 s of segments = 2 minutes
        poses = experiment.drive_trajectory(dcfg)
        assert (len(poses) - 1) * dcfg.dt == pytest.approx(120.0)
        lmap = experiment.build_drive_map(poses, dcfg, scfg, np.random.default_rng((0, 2)))
        frames = experiment.drive_frames(poses, lmap, dcfg, scfg, GPS_SIGMA_POS, GPS_SIGMA_ROT, seed=3)
        params = desk_model["params"]
        f_preds, f_gts, _ = experiment.evaluate_filter(params, lmap, frames,
                                                       experiment.ekf_config(cfg), experiment.FOV_RADIUS)
        g_preds, g_gts, _ = experiment.evaluate_gps(params, frames, lmap, experiment.FOV_RADIUS)

        def pos_rmse(preds, gts):
            e = np.array([[a.x - b.x, a.y - b.y] for a, b in zip(preds, gts)])
            return float(np.sqrt((e**2).sum(axis=1).mean()))

        filt = pos_rmse(f_preds, f_gts)
        gps = pos_rmse(g_preds, g_gts)
        _announce(7, filt < gps,
                  f"{len(frames)} frames: filtered position RMSE {filt:.3f} m < "
                  f"GPS-based {gps:.3f} m")

    def test_criterion_8_determinism(self, tmp_path):
        cfg = {
            "mode": "gps", "seed": 42,
            "net": {"d_m": 16, "heads": 2, "k": 4},
            "sim": {"nu_min": 6, "nu_max": 10},
            "train": {"epochs": 2, "batch_size": 8, "learning_rate": 1e-3},
            "gps_noise": {"sigma_pos": 1.0, "sigma_phi_deg": 4.0},
            "eval": {"n_train_scenes": 24, "n_eval_scenes": 10},
        }
        out1, out2 = str(tmp_path / "r1"), str(tmp_path / "r2")
        experiment.run_experiment(dict(cfg), out1)
        experiment.run_experiment(dict(cfg), out2)
        same = True
        for name in ("report.json", "checkpoint.json", "trace.csv", "scenes.jsonl"):
            a = Path(out1, name).read_bytes()
            b = Path(out2, name).read_bytes()
            same &= a == b
        _announce(8, same, "seeded pipeline twice: report, checkpoint, trace, scenes byte-identical")

    def test_criterion_9_format_round_trips(self, tmp_path):
        # scenes
        rng = np.random.default_rng(9)
        scenes = [Scene(t=float(i), gt_pose=Pose(*rng.normal(size=3)),
                        gps_pose=Pose(*rng.normal(size=3)),
                        measurements=rng.uniform(-50, 50, size=(int(rng.integers(1, 8)), 2)),
                        landmarks=rng.uniform(-50, 50, size=(int(rng.integers(1, 8)), 2)))
                  for i in range(10)]
        spath = str(tmp_path / "scenes.jsonl")
        save_scenes(scenes, spath)
        loaded = load_scenes(spath)
        scenes_ok = all(
            a.t == b.t and a.gt_pose == b.gt_pose and a.gps_pose == b.gps_pose
            and np.array_equal(a.measurements, b.measurements)
            and np.array_equal(a.landmarks, b.landmarks)
            for a, b in zip(scenes, loaded)
        )
        # maps
        lmap = rng.uniform(0, 1e6, size=(100, 2))
        mpath = str(tmp_path / "map.csv")
        save_map(lmap, mpath)
        ids, again = read_map(mpath)
        maps_ok = ids == list(range(100)) and np.array_equal(lmap, again)
        # checkpoints
        params = net.init_params(net.NetConfig(d_m=16, heads=2, k=3, seed=10))
        cpath = str(tmp_path / "ckpt.json")
        save_checkpoint(params, cpath)
        reloaded = load_checkpoint(cpath)
        ckpt_ok = all(np.array_equal(t.data, reloaded[name].data) for name, t in params.items())
        _announce(9, scenes_ok and maps_ok and ckpt_ok,
                  f"scenes exact={scenes_ok}, maps exact={maps_ok}, checkpoints exact={ckpt_ok}")
