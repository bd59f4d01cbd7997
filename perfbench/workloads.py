"""The three benchmark workloads: set-up, one round of work, output checks.

Each workload is a closed loop with one caller: the next training sample,
correction or filter frame starts when the previous one returns. A round
is the workload's fixed unit of work (one training run, one pass over the
scenes, one drive); a run repeats whole rounds as long as they fit in its
time, so every round does the same operations on the same inputs. Between
operations, outside the timed intervals, the run's speed probe takes its
readings (speed.SpeedProbe.tick).
"""

from __future__ import annotations

import hashlib
import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

from attnloc import attention_net as net
from attnloc import dataset_io, experiment, inference, simulator, training
from attnloc.autodiff import Tensor

import env
from spans import Target
from speed import SpeedProbe

SIGMA_POS = 1.0
SIGMA_ROT = math.radians(4.0)
FOV_RADIUS = 60.0
# the zero-correction position error of +-SIGMA_POS uniform GPS noise per axis
GPS_NOISE_POS_RMSE = math.sqrt(2.0 / 3.0) * SIGMA_POS

CHECKPOINT = env.BENCH_DIR / "desk_checkpoint.json"
CHECKPOINT_SHA256 = "34c21833721387f5da8a1d8945c15b13cf6ca3452b6bf634b1c04c1a91e677a8"

# the drive and filter tuning of configs/filter_desk.json, fixed here so the
# benchmark's inputs do not follow edits to that file
FILTER_DESK = {
    "seed": 0,
    "drive": {"v": 8.0, "dt": 0.05,
              "segments": [[20.0, 1.5], [20.0, -1.5], [20.0, 1.5], [20.0, -1.5], [20.0, 1.5], [20.0, -1.5]]},
    "ekf": {"sigma_accel": 0.5, "sigma_yaw_accel": 0.1, "r_pos_var": 0.09, "r_phi_deg": 1.5},
}


class CheckFailed(AssertionError):
    """A workload's outputs failed a correctness check."""


def require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


@dataclass
class Measured:
    """What the rounds of one run measured.

    Timings are (start, seconds) pairs of raw wall-clock time; `probe`
    scales each to the reference speed when the figures are made.
    """

    probe: SpeedProbe
    ops: int = 0  # operations attempted: samples, corrections or filter steps
    rounds: int = 0
    work_units: int = 0  # units behind throughput_per_s
    work: list[tuple[float, float]] = field(default_factory=list)  # the time those units took
    latencies: list[tuple[float, float]] = field(default_factory=list)
    rmse: list[float] = field(default_factory=list)  # one per round
    setups: list[tuple[float, float]] = field(default_factory=list)  # one per set-up
    per_layer_ops: dict[str, int] = field(default_factory=dict)  # denominators of per-op layer metrics

    def add_per(self, layer: str, n: int) -> None:
        self.per_layer_ops[layer] = self.per_layer_ops.get(layer, 0) + n


def pos_rmse(preds, gts) -> float:
    e = np.array([[p.x - g.x, p.y - g.y] for p, g in zip(preds, gts)])
    return float(np.sqrt((e ** 2).sum(axis=1).mean()))


def _fresh_copy(params: net.ModelParams) -> net.ModelParams:
    return net.ModelParams(params.config, {k: Tensor(t.data.copy()) for k, t in params.items()})


class Workload:
    name = ""
    latency_what = ""
    throughput_what = ""
    op_root = ""  # traced layer of one operation, for Tensors per operation
    width = 64  # d_m, which sizes the speed probe's kernel

    def setup(self, seed: int):
        raise NotImplementedError

    def run_round(self, state, m: Measured) -> None:
        raise NotImplementedError

    def check(self, state, m: Measured) -> None:
        raise NotImplementedError


class TrainD64(Workload):
    """Desk-width training from scratch, then held-out GPS-mode evaluation."""

    name = "train-d64"
    latency_what = "optimizer step (16 samples)"
    throughput_what = "training samples/s"
    op_root = "training.train"
    n_pool = 2000
    n_heldout = 1000
    epochs = 3
    batch = 16
    # A few epochs are far from converged, and the held-out error then swings
    # with the training seed (0.33-0.75 m over seeds 1-20 after 2 epochs).
    # So the pool, init and offset draws are fixed, and --seed draws the
    # held-out scenes.
    recipe_seed = 0

    def setup(self, seed: int):
        scfg = simulator.SimConfig(distribution="mixture", seed=self.recipe_seed)
        pool = experiment.generate_scene_set(scfg, SIGMA_POS, SIGMA_ROT, self.n_pool, self.recipe_seed)
        heldout = experiment.generate_scene_set(scfg, SIGMA_POS, SIGMA_ROT, self.n_heldout, seed + 1)
        params = net.init_params(net.NetConfig(d_m=64, heads=4, k=8, seed=self.recipe_seed))
        tcfg = training.TrainConfig(sigma_pos=SIGMA_POS, sigma_rot=SIGMA_ROT, epochs=self.epochs,
                                    batch_size=self.batch, learning_rate=1e-3, seed=self.recipe_seed)
        return {"pool": [(sc.measurements, sc.landmarks) for sc in pool], "heldout": heldout,
                "params": params, "tcfg": tcfg, "histories": [], "adam_steps": []}

    def run_round(self, state, m: Measured) -> None:
        params = _fresh_copy(state["params"])
        steps: list[tuple[float, float]] = []
        adam_step = training.adam_step
        resumed = [0.0]  # when the current optimizer step began

        def timed_adam_step(*args, **kwargs):
            adam_step(*args, **kwargs)
            t = time.perf_counter()
            steps.append((resumed[0], t - resumed[0]))
            m.probe.tick()
            resumed[0] = time.perf_counter()

        # train() looks adam_step up in its module on every step
        training.adam_step = timed_adam_step
        try:
            resumed[0] = time.perf_counter()
            _, history = training.train(params, state["tcfg"], state["pool"])
            t1 = time.perf_counter()
        finally:
            training.adam_step = adam_step
        m.probe.tick()
        samples = self.epochs * len(state["pool"])
        preds, gts, _ = experiment.evaluate_gps(params, state["heldout"], None, FOV_RADIUS)
        m.ops += samples
        m.work_units += samples
        # training time is every optimizer step and the tail after the last one
        m.work.extend([*steps, (resumed[0], t1 - resumed[0])])
        m.latencies.extend(steps)
        m.rmse.append(pos_rmse(preds, gts))
        m.add_per("training.train", samples)
        m.add_per("experiment.evaluate_gps", len(state["heldout"]))
        m.add_per("rounds", 1)
        state["histories"].append(history)
        state["adam_steps"].append(len(steps))

    def check(self, state, m: Measured) -> None:
        per_epoch = math.ceil(len(state["pool"]) / self.batch)
        for history, steps in zip(state["histories"], state["adam_steps"]):
            losses = [h.loss for h in history]
            require(len(losses) == self.epochs and all(math.isfinite(x) for x in losses),
                    f"epoch losses not all finite: {losses}")
            require(losses[-1] < losses[0], f"last epoch loss {losses[-1]} not below first {losses[0]}")
            require(steps == self.epochs * per_epoch,
                    f"{steps} Adam steps, expected {self.epochs} x {per_epoch}")
        require(m.rmse[0] < GPS_NOISE_POS_RMSE,
                f"held-out position RMSE {m.rmse[0]:.4f} m not below the uncorrected {GPS_NOISE_POS_RMSE:.4f} m")


class GpsD256(Workload):
    """Paper-width single-shot corrections, one call at a time and in bulk."""

    name = "gps-d256"
    latency_what = "gps_inference call"
    throughput_what = "evaluate_gps scenes/s"
    op_root = "inference.gps_inference"
    width = 256
    n_scenes = 1000
    n_permuted = 16
    bulk_chunk = 20  # scenes per evaluate_gps call, with a speed probe between calls

    def setup(self, seed: int):
        scfg = simulator.SimConfig(distribution="mixture", seed=seed)
        scenes = experiment.generate_scene_set(scfg, SIGMA_POS, SIGMA_ROT, self.n_scenes, seed)
        maps = [experiment.scene_map(sc) for sc in scenes]
        # latency does not depend on the weight values, so fixed untrained weights do the work
        params = net.init_params(net.NetConfig(d_m=256, heads=4, k=8, seed=0))
        return {"scenes": scenes, "maps": maps, "params": params, "seed": seed}

    def run_round(self, state, m: Measured) -> None:
        params, scenes = state["params"], state["scenes"]
        single = []
        for sc, lmap in zip(scenes, state["maps"]):
            t0 = time.perf_counter()
            single.append(inference.gps_inference(params, lmap, sc.measurements, sc.gps_pose, FOV_RADIUS))
            m.latencies.append((t0, time.perf_counter() - t0))
            m.probe.tick()
        bulk, gts = [], []
        for i in range(0, len(scenes), self.bulk_chunk):
            t0 = time.perf_counter()
            preds, truths, _ = experiment.evaluate_gps(params, scenes[i:i + self.bulk_chunk], None, FOV_RADIUS)
            m.work.append((t0, time.perf_counter() - t0))
            m.probe.tick()
            bulk.extend(preds)
            gts.extend(truths)
        m.work_units += len(scenes)
        m.ops += 2 * len(scenes)
        m.rmse.append(pos_rmse(bulk, gts))
        m.add_per("experiment.evaluate_gps", len(scenes))
        m.add_per("rounds", 1)
        # only the last round's poses are kept, so memory does not grow with rounds
        state["single"], state["bulk"] = single, bulk

    def check(self, state, m: Measured) -> None:
        for a, b in zip(state["single"], state["bulk"]):
            require(all(math.isfinite(v) for v in (a.x, a.y, a.phi)), f"non-finite pose {a}")
            diff = max(abs(a.x - b.x), abs(a.y - b.y), abs(a.phi - b.phi))
            require(diff <= 1e-12, f"evaluate_gps differs from the single call by {diff:.3g}")
        rng = np.random.default_rng((state["seed"], 7))
        worst = 0.0
        for sc, base in zip(state["scenes"][:self.n_permuted], state["single"]):
            meas = sc.measurements[rng.permutation(sc.measurements.shape[0])]
            lm = sc.landmarks[rng.permutation(sc.landmarks.shape[0])]
            lmap = experiment.scene_map(dataset_io.Scene(sc.t, sc.gt_pose, sc.gps_pose, meas, lm))
            p = inference.gps_inference(state["params"], lmap, meas, sc.gps_pose, FOV_RADIUS)
            worst = max(worst, abs(p.x - base.x), abs(p.y - base.y), abs(p.phi - base.phi))
        require(worst < 1e-9, f"shuffling inputs moved the corrected pose by {worst:.3g}")


class FilterD64(Workload):
    """The trained desk model inside the CTRV EKF, one frame at a time over a 2-minute drive."""

    name = "filter-d64"
    latency_what = "FilterSession.step"
    throughput_what = "filter steps/s"
    op_root = "inference.filter_step"

    def setup(self, seed: int):
        with open(CHECKPOINT, "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
        require(digest == CHECKPOINT_SHA256, f"{CHECKPOINT.name} sha256 {digest} != {CHECKPOINT_SHA256}")
        # called through its module so a traced run sees it
        params = dataset_io.load_checkpoint(str(CHECKPOINT))
        scfg = simulator.SimConfig(distribution="mixture", seed=seed)
        dcfg = experiment.drive_config(FILTER_DESK)
        poses = experiment.drive_trajectory(dcfg)
        # the map is the drive's own (seed 0, 229 landmarks); --seed draws the
        # sensor frames and GPS fixes along it
        lmap = experiment.build_drive_map(poses, dcfg, scfg, np.random.default_rng((FILTER_DESK["seed"], 2)))
        frames = experiment.drive_frames(poses, lmap, dcfg, scfg, SIGMA_POS, SIGMA_ROT, seed + 3)
        return {"params": params, "lmap": lmap, "frames": frames,
                "ekf": experiment.ekf_config(FILTER_DESK)}

    def run_round(self, state, m: Measured) -> None:
        frames = state["frames"]
        session = inference.FilterSession(state["params"], state["lmap"], frames[0].gps_pose,
                                          state["ekf"], FOV_RADIUS)
        preds = [session.state.pose()]
        for prev, sc in zip(frames, frames[1:]):
            t0 = time.perf_counter()
            preds.append(session.step(sc.measurements, sc.t - prev.t))
            m.latencies.append((t0, time.perf_counter() - t0))
            m.probe.tick()
        m.work.extend(m.latencies[-(len(frames) - 1):])
        m.work_units += len(frames) - 1
        m.ops += len(frames) - 1
        m.rmse.append(pos_rmse(preds, [sc.gt_pose for sc in frames]))
        m.add_per("rounds", 1)
        state["estimates"] = preds  # the last round's only

    def check(self, state, m: Measured) -> None:
        frames = state["frames"]
        raw = pos_rmse([sc.gps_pose for sc in frames], [sc.gt_pose for sc in frames])
        preds, filt = state["estimates"], m.rmse[-1]
        require(len(preds) == len(frames), f"{len(preds)} estimates for {len(frames)} frames")
        require(all(math.isfinite(v) for p in preds for v in (p.x, p.y, p.phi)), "non-finite estimate")
        require(filt < raw, f"filtered position RMSE {filt:.4f} m not below raw GPS {raw:.4f} m")


WORKLOADS = {w.name: w for w in (TrainD64(), GpsD256(), FilterD64())}


def _rows(result, _args) -> int:
    return int(np.asarray(result).shape[0])


def _file_bytes(_result, args) -> int:
    return os.path.getsize(args[0])


TARGETS = [
    Target("attention_net.forward", "attention_net", "forward"),
    Target("attention_net.knn_group", "attention_net", "knn_group"),
    Target("attention_net.local_attention", "attention_net", "local_attention"),
    Target("attention_net.mha_block", "attention_net", "mha_block"),
    Target("autodiff.backward", "autodiff", "Tensor.backward"),
    Target("training.train", "training", "train"),
    Target("training.make_training_sample", "training", "make_training_sample"),
    Target("training.multitask_loss_graph", "training", "multitask_loss_graph"),
    Target("training.adam_step", "training", "adam_step"),
    Target("map_store.query_fov", "map_store", "query_fov", count=_rows),
    Target("map_store.index_build", "map_store", "LandmarkMap.__init__"),
    Target("inference.ekf_predict", "inference", "ekf_predict"),
    Target("inference.ekf_update", "inference", "ekf_update"),
    Target("inference.filter_step", "inference", "FilterSession.step"),
    Target("inference.gps_inference", "inference", "gps_inference"),
    Target("experiment.evaluate_gps", "experiment", "evaluate_gps"),
    Target("simulator.generate_scene", "simulator", "generate_scene"),
    Target("experiment.build_drive_map", "experiment", "build_drive_map"),
    Target("experiment.drive_frames", "experiment", "drive_frames"),
    Target("dataset_io.load_checkpoint", "dataset_io", "load_checkpoint", count=_file_bytes),
]
