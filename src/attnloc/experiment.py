"""Experiment orchestration: simulate, train, infer, evaluate, report.

A single JSON config document drives every stage. Angles cross this
boundary in degrees; everything below it runs in radians. All artifacts
land under the output directory: scenes.jsonl, checkpoint.json, trace.csv,
report.json, timing.json and optionally trace.svg.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import time
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from . import attention_net as net
from . import simulator, training
from .baselines import icp
from .dataset_io import Scene, _atomic_write, check_numbers, from_dict, save_checkpoint, save_scenes
from .geometry import (ORIGIN, Pose, check_finite, check_int, check_number, offset_pose, rotation, utm_to_vehicle,
                       wrap_angle)
from .inference import EkfConfig, FilterSession, localize
from .map_store import save_map
from .metrics import EvalReport, LatencyStats
from .training import TrainConfig, sample_offset

MODES = ("gps", "filter", "icp")


class StageError(RuntimeError):
    """An experiment stage failed; .stage names it, and the message is the cause's."""

    def __init__(self, stage: str, cause: BaseException):
        super().__init__(str(cause))
        self.stage = stage


class ConfigError(ValueError):
    """The experiment config document failed validation."""


def _section(cfg: dict, name: str, keys) -> dict:
    """cfg[name], an object whose keys are all among keys; {} when absent."""
    value = cfg.get(name, {})
    if not isinstance(value, dict):
        raise TypeError("must be an object")
    unknown = sorted(set(value) - set(keys))
    if unknown:
        raise ValueError(f"unknown key {unknown[0]!r}")
    return value


def _dataclass_section(cls, cfg: dict, name: str, **top):
    """Section name as a cls: absent keys take cls's defaults; top sets the top-level fields."""
    s = _section(cfg, name, [f.name for f in dataclasses.fields(cls) if f.name not in top])
    return from_dict(cls, {**s, **top}, **dataclasses.asdict(cls()))


def _seed(cfg: dict) -> int:
    return check_int("seed", cfg.get("seed", 0), 0)


def net_config(cfg: dict) -> net.NetConfig:
    """The net section: absent keys take the NetConfig defaults; the top-level seed."""
    return _dataclass_section(net.NetConfig, cfg, "net", seed=_seed(cfg))


def sim_config(cfg: dict) -> simulator.SimConfig:
    return _dataclass_section(simulator.SimConfig, cfg, "sim", seed=_seed(cfg))


def gps_noise(cfg: dict) -> tuple[float, float]:
    """(sigma_pos m, sigma_rot rad) GPS noise bounds; absent keys take TrainConfig's offset bounds."""
    s = _section(cfg, "gps_noise", ("sigma_pos", "sigma_phi_deg"))
    sigma_pos = check_number("sigma_pos", s.get("sigma_pos", TrainConfig.sigma_pos))
    if "sigma_phi_deg" not in s:
        return sigma_pos, TrainConfig.sigma_rot
    return sigma_pos, math.radians(check_number("sigma_phi_deg", s["sigma_phi_deg"]))


def train_config(cfg: dict) -> TrainConfig:
    """The train section: offset bounds default to the GPS noise; sigma_rot_deg in degrees."""
    s = dict(_section(cfg, "train", ("sigma_pos", "sigma_rot_deg", "epochs", "batch_size", "learning_rate",
                                     "mix_ratio", "samples_per_epoch")))
    sigma_pos, sigma_rot = gps_noise(cfg)
    if "sigma_rot_deg" in s:
        sigma_rot = math.radians(check_number("sigma_rot_deg", s.pop("sigma_rot_deg")))
    return TrainConfig(**{"sigma_pos": sigma_pos, "sigma_rot": sigma_rot, **s, "seed": _seed(cfg)})


@dataclass(frozen=True)
class EvalConfig:
    """Training and evaluation set sizes."""

    n_train_scenes: int = 2000
    n_eval_scenes: int = 200

    def __post_init__(self) -> None:
        check_int("n_train_scenes", self.n_train_scenes, 1)
        check_int("n_eval_scenes", self.n_eval_scenes, 1)


def ekf_config(cfg: dict) -> EkfConfig:
    """The ekf section: r_pos_var (m^2) and r_phi_deg (deg) set r_diag; absent keys keep EkfConfig's values."""
    s = dict(_section(cfg, "ekf", ("sigma_accel", "sigma_yaw_accel", "r_pos_var", "r_phi_deg")))
    r_pos = s.pop("r_pos_var", EkfConfig.r_diag[0])
    r_phi = math.radians(s.pop("r_phi_deg")) ** 2 if "r_phi_deg" in s else EkfConfig.r_diag[2]
    return EkfConfig(**s, r_diag=(r_pos, r_pos, r_phi))


@dataclass(frozen=True)
class DriveConfig:
    """Synthetic drive: CTRV segments plus roadside landmark placement.

    The frame period keeps the per-frame motion (v * dt plus filter error)
    inside the offset range the network was trained on.
    """

    v: float = 8.0
    dt: float = 0.05
    segments: tuple = ((20.0, 1.5), (20.0, -1.5), (20.0, 1.5), (20.0, -1.5), (20.0, 1.5), (20.0, -1.5))
    # one cluster of 1 + Poisson(cluster_rate) landmarks every cluster_spacing_m of path
    cluster_spacing_m: ClassVar[float] = 12.0
    cluster_rate: ClassVar[float] = 2.0
    # the sensor sees landmarks up to sensor_range_m ahead and sensor_half_width_m to either side
    sensor_range_m: ClassVar[float] = 40.0
    sensor_half_width_m: ClassVar[float] = 20.0

    def __post_init__(self) -> None:
        check_number("dt", self.dt, positive=True)
        check_number("v", self.v)
        if not self.segments or not all(len(seg) == 2 for seg in self.segments):
            raise ValueError("segments must be (duration > 0, omega) pairs")
        for duration, omega in self.segments:
            check_number("segment duration", duration, positive=True)
            check_finite("segment turn rate", omega)


def drive_config(cfg: dict) -> DriveConfig:
    return _dataclass_section(DriveConfig, cfg, "drive")


@dataclass(frozen=True)
class Plan:
    """A whole config document, parsed and checked: what every stage reads."""

    seed: int
    net: net.NetConfig
    sim: simulator.SimConfig
    gps_noise: tuple[float, float]
    train: TrainConfig
    eval: EvalConfig
    drive: DriveConfig
    ekf: EkfConfig
    mode: str = "gps"
    plot_svg: bool = False

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ConfigError(f"mode: must be one of {MODES}, got {self.mode!r}")
        if not isinstance(self.plot_svg, bool):
            raise ConfigError(f"plot_svg: must be true or false, got {self.plot_svg!r}")


# the reader of each section; one that also reads another key (the seed, the
# GPS noise) comes after it, so that an error names the key with the bad value
_READERS = {"seed": _seed, "net": net_config, "sim": sim_config, "gps_noise": gps_noise, "train": train_config,
            "eval": lambda cfg: _dataclass_section(EvalConfig, cfg, "eval"), "drive": drive_config,
            "ekf": ekf_config}


def parse_config(cfg: dict) -> Plan:
    """Parse and check the whole config document; ConfigError("<key>: ...") names the bad top-level key."""
    unknown = sorted(set(cfg) - {f.name for f in dataclasses.fields(Plan)})
    if unknown:
        raise ConfigError(f"{unknown[0]}: unknown top-level key")
    try:
        check_numbers({name: value for name, value in cfg.items() if name != "plot_svg"})  # Plan checks plot_svg
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    parsed = {k: cfg[k] for k in ("mode", "plot_svg") if k in cfg}
    for name, read in _READERS.items():
        try:
            parsed[name] = read(cfg)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{name}: {exc}") from exc
    return Plan(**parsed)


# -- scene generation ---------------------------------------------------------


def training_scenes(plan: Plan) -> list[Scene]:
    """The configured training set: eval.n_train_scenes synthetic scenes drawn from the config seed."""
    return generate_scene_set(plan.sim, *plan.gps_noise, plan.eval.n_train_scenes, plan.seed)


def generate_scene_set(sim_cfg: simulator.SimConfig, sigma_pos: float, sigma_rot: float,
                       n: int, seed: int) -> list[Scene]:
    """Self-contained synthetic scenes at the origin with noisy GPS poses."""
    scenes = []
    for i in range(n):
        rng = simulator.scene_rng(seed, i)
        meas, lm = simulator.generate_scene(sim_cfg, rng)
        gps = sample_offset(sigma_pos, sigma_rot, rng)
        scenes.append(Scene(t=float(i), gt_pose=ORIGIN, gps_pose=gps, measurements=meas, landmarks=lm))
    return scenes


def drive_trajectory(d: DriveConfig) -> list[Pose]:
    """Chain CTRV segments from the origin; per segment (duration_s, omega_deg_per_s)."""
    poses = [ORIGIN]
    for duration, omega_deg in d.segments:
        steps = int(round(duration / d.dt))
        poses += simulator.generate_trajectory(d.v, math.radians(omega_deg), d.dt, steps, poses[-1])[1:]
    return poses


def build_drive_map(poses: list[Pose], d: DriveConfig, sim_cfg: simulator.SimConfig,
                    rng: np.random.Generator) -> np.ndarray:
    """Drop landmark clusters from the scene model every cluster_spacing_m of path."""
    pts: list[np.ndarray] = []
    dist = 0.0
    next_drop = 0.0
    prev = poses[0]
    for pose in poses:
        dist += math.hypot(pose.x - prev.x, pose.y - prev.y)
        prev = pose
        if dist >= next_drop:
            n_pts = 1 + int(rng.poisson(d.cluster_rate))
            local = simulator.sample_landmarks(sim_cfg, rng, n_pts)
            pts.append(np.asarray([[pose.x, pose.y]]) + local @ rotation(pose.phi).T)
            next_drop += d.cluster_spacing_m
    return np.vstack(pts)


def _visible(lmap: np.ndarray, pose: Pose, d: DriveConfig) -> np.ndarray:
    """Map landmarks inside the forward sensor box of a pose, in the vehicle frame."""
    local = utm_to_vehicle(lmap, pose)
    return local[(local[:, 0] >= 0.0) & (local[:, 0] <= d.sensor_range_m)
                 & (np.abs(local[:, 1]) <= d.sensor_half_width_m)]


def drive_frames(poses: list[Pose], lmap: np.ndarray, d: DriveConfig,
                 sim_cfg: simulator.SimConfig, sigma_pos: float, sigma_rot: float,
                 seed: int) -> list[Scene]:
    """Per-step sensor frames: forward-looking detections, degraded, with noisy GPS."""
    frames = []
    for i, pose in enumerate(poses):
        rng = simulator.scene_rng(seed, i)
        visible = _visible(lmap, pose, d)
        if visible.shape[0] < 3:
            continue
        meas = simulator.degrade(visible, sim_cfg, rng)
        gps = offset_pose(pose, sample_offset(sigma_pos, sigma_rot, rng))
        frames.append(Scene(t=i * d.dt, gt_pose=pose, gps_pose=gps, measurements=meas, landmarks=None))
    return frames


def map_backed_scenes(lmap: np.ndarray, poses: list[Pose], d: DriveConfig,
                      sim_cfg: simulator.SimConfig, n: int, seed: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Training pool drawn from a map along a trajectory: (measurements, landmarks)."""
    rng = np.random.default_rng((seed, 1))
    out: list[tuple[np.ndarray, np.ndarray]] = []
    guard = 0
    while len(out) < n and guard < 20 * n:
        guard += 1
        pose = poses[int(rng.integers(len(poses)))]
        visible = _visible(lmap, pose, d)
        if visible.shape[0] < 3:
            continue
        out.append((simulator.degrade(visible, sim_cfg, rng), visible))
    if len(out) < n:
        raise ValueError("map too sparse to draw the requested map-backed training pool")
    return out


# -- inference over scenes -----------------------------------------------------


def scene_map(scene: Scene) -> np.ndarray:
    if scene.landmarks is None:
        raise ValueError("scene has no landmarks; evaluate against a map instead")
    return scene.landmarks


def _localize_timed(scenes: list[Scene], lmap: np.ndarray | None, regress, fov_radius: float,
                    per_call: int) -> tuple[list[Pose], list[Pose], LatencyStats]:
    """Localize the scenes per_call at a time, one localize call each: (estimates, true poses, latencies).

    Each scene's latency is an equal share of its call's time. The queries
    (each scene's map, or lmap) are built outside the timing.
    """
    preds, times = [], []
    for lo in range(0, len(scenes), per_call):
        chunk = scenes[lo:lo + per_call]
        queries = [(scene_map(sc) if lmap is None else lmap, sc.measurements, sc.gps_pose) for sc in chunk]
        t0 = time.perf_counter()
        preds += localize(queries, regress, fov_radius)
        times += [(time.perf_counter() - t0) / len(chunk)] * len(chunk)
    return preds, [sc.gt_pose for sc in scenes], LatencyStats.from_seconds(times)


def evaluate_gps(params: net.ModelParams, scenes: list[Scene], lmap: np.ndarray | None,
                 fov_radius: float) -> tuple[list[Pose], list[Pose], LatencyStats]:
    """GPS-based inference per scene against the (N, 2) map lmap, or each scene's own landmarks when it is None.

    Scenes run net.SCENES_PER_FORWARD at a time, each with its own FoV query
    and frame, through one stacked forward on the weights params keeps
    (net.inference_weights); poses equal per-scene gps_inference up to
    rounding, and each scene's latency is an equal share of its forward's.
    """
    weights = net.inference_weights(params)
    return _localize_timed(scenes, lmap, lambda pairs: net.predict_offsets(pairs, weights), fov_radius,
                           net.SCENES_PER_FORWARD)


def evaluate_icp(scenes: list[Scene], fov_radius: float) -> tuple[list[Pose], list[Pose], LatencyStats]:
    """ICP in place of the network, same localization step, timed per scene."""
    return _localize_timed(scenes, None, lambda pairs: [icp(m, lm).offset for m, lm in pairs], fov_radius, 1)


def evaluate_filter(params: net.ModelParams, lmap: np.ndarray, frames: list[Scene],
                    ekf_cfg: EkfConfig, fov_radius: float) -> tuple[list[Pose], list[Pose], LatencyStats]:
    """EKF-smoothed inference over a drive; initialized from the first GPS pose."""
    if not frames:
        raise ValueError("no drive frames to evaluate")
    session = FilterSession(params, lmap, frames[0].gps_pose, ekf_cfg, fov_radius)
    preds, times = [session.state.pose()], []
    for prev, sc in zip(frames, frames[1:]):
        t0 = time.perf_counter()
        preds.append(session.step(sc.measurements, sc.t - prev.t))
        times.append(time.perf_counter() - t0)
    return preds, [sc.gt_pose for sc in frames], LatencyStats.from_seconds(times)


# -- artifacts -----------------------------------------------------------------


def trace_rows(preds: list[Pose], gts: list[Pose], ts: list[float]) -> list[tuple[float, float, float, float]]:
    return [
        (t, p.x - g.x, p.y - g.y, math.degrees(wrap_angle(p.phi - g.phi)))
        for t, p, g in zip(ts, preds, gts)
    ]


def write_trace(path: str, rows: list[tuple[float, float, float, float]]) -> None:
    lines = ["t,ex,ey,ephi"]
    lines += [f"{t!r},{ex!r},{ey!r},{ephi!r}" for t, ex, ey, ephi in rows]
    _atomic_write(path, "\n".join(lines) + "\n")


def read_trace(path: str) -> np.ndarray:
    """Trace rows back as (t, ex, ey, ephi_deg) float columns; each row must be four finite numbers."""
    with open(path, encoding="utf-8") as fh:
        lines = [(n, ln) for n, ln in enumerate(fh.read().splitlines(), start=1) if ln]
    if not lines or lines[0][1] != "t,ex,ey,ephi":
        raise ValueError(f"{path}: not a trace CSV")
    rows = []
    for n, ln in lines[1:]:
        try:
            row = [float(v) for v in ln.split(",")]
            if len(row) != 4 or not all(map(math.isfinite, row)):
                raise ValueError(f"a trace row must be four finite numbers, got {ln!r}")
        except ValueError as exc:
            raise ValueError(f"{path}:{n}: {exc}") from exc
        rows.append(row)
    return np.asarray(rows, dtype=np.float64).reshape(-1, 4)


def write_json(path: str, doc: dict) -> None:
    _atomic_write(path, json.dumps(doc, sort_keys=True, separators=(",", ":"), allow_nan=False) + "\n")


def write_trace_svg(path: str, rows: list[tuple[float, float, float, float]]) -> None:
    """Minimal deterministic SVG: one error trace polyline per pose component."""
    arr = np.asarray(rows, dtype=np.float64)
    width, height, pad = 900.0, 180.0, 30.0
    panels = []
    labels = ("ex [m]", "ey [m]", "ephi [deg]")
    t = arr[:, 0]
    t_span = (t.max() - t.min()) or 1.0
    for j, label in enumerate(labels):
        v = arr[:, j + 1]
        lo, hi = float(v.min()), float(v.max())
        span = (hi - lo) or 1.0
        y0 = j * (height + pad)
        xs = pad + (t - t.min()) / t_span * (width - 2 * pad)
        ys = y0 + pad + (hi - v) / span * (height - 2 * pad)
        pts = " ".join(f"{x:.2f},{y:.2f}" for x, y in zip(xs, ys))
        panels.append(
            f'<text x="{pad}" y="{y0 + pad - 8:.2f}" font-size="12">{label} '
            f'(min {lo:.3f}, max {hi:.3f})</text>'
            f'<polyline fill="none" stroke="black" stroke-width="1" points="{pts}"/>'
        )
    total_h = 3 * (height + pad)
    svg = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" height="{total_h:.0f}">'
        + "".join(panels)
        + "</svg>"
    )
    _atomic_write(path, svg + "\n")


# -- the experiment driver -----------------------------------------------------


def drive_map(plan: Plan) -> tuple[list[Pose], np.ndarray]:
    """The configured drive's trajectory and its landmark map."""
    poses = drive_trajectory(plan.drive)
    return poses, build_drive_map(poses, plan.drive, plan.sim, np.random.default_rng((plan.seed, 2)))


def training_pools(plan: Plan, scenes: list[Scene], drive: tuple[list[Pose], np.ndarray] | None = None):
    """(synthetic, map-backed) pools: the scenes with landmarks; with train.mix_ratio > 0, draws along the drive."""
    pool = [(sc.measurements, sc.landmarks) for sc in scenes if sc.landmarks is not None]
    if plan.train.mix_ratio == 0:
        return pool, []
    poses, lmap = drive or drive_map(plan)
    return pool, map_backed_scenes(lmap, poses, plan.drive, plan.sim,
                                   max(1, int(plan.train.mix_ratio * len(pool))), plan.seed + 4)


def train_stage(plan: Plan, out_dir: str, pool: list[tuple[np.ndarray, np.ndarray]],
                map_pool: list[tuple[np.ndarray, np.ndarray]] = (), progress=None) -> tuple[net.ModelParams, dict]:
    """Train a fresh network on the scene pools; write checkpoint.json and loss_history.csv.

    Returns the trained parameters and the training's wall-clock,
    {"seconds", "samples_per_s"}. Any failure while training raises
    StageError("train").
    """
    try:
        t0 = time.perf_counter()
        params, history = training.train(net.init_params(plan.net), plan.train, pool, map_pool, progress=progress)
        seconds = time.perf_counter() - t0
        save_checkpoint(params, os.path.join(out_dir, "checkpoint.json"))
        _write_history(os.path.join(out_dir, "loss_history.csv"), history)
    except Exception as exc:
        raise StageError("train", exc) from exc
    samples = plan.train.epochs * (plan.train.samples_per_epoch or len(pool) + len(map_pool))
    return params, {"seconds": seconds, "samples_per_s": samples / seconds}


FOV_RADIUS = 60.0  # m: the map query radius around the prior pose of every localization step


def run_experiment(cfg: dict, out_dir: str, checkpoint: net.ModelParams | None = None) -> dict:
    """Parse the config document, execute its pipeline and write all artifacts under out_dir.

    Returns the report document. A bad config raises ConfigError before
    anything is written; any stage failure raises StageError naming the
    stage.
    """
    plan = parse_config(cfg)
    os.makedirs(out_dir, exist_ok=True)
    trains = plan.mode != "icp" and checkpoint is None
    try:
        drive = drive_map(plan) if plan.mode == "filter" or (trains and plan.train.mix_ratio > 0) else None
        if plan.mode == "filter":
            poses, lmap = drive
            frames = drive_frames(poses, lmap, plan.drive, plan.sim, *plan.gps_noise, plan.seed + 3)
            save_map(lmap, os.path.join(out_dir, "map.csv"))
        else:
            eval_scenes = generate_scene_set(plan.sim, *plan.gps_noise, plan.eval.n_eval_scenes, plan.seed + 1)
        if trains:
            train_scenes = training_scenes(plan)
            save_scenes(train_scenes, os.path.join(out_dir, "scenes.jsonl"))
            pool, map_pool = training_pools(plan, train_scenes, drive)
    except Exception as exc:
        raise StageError("simulate", exc) from exc

    params, train_timing = train_stage(plan, out_dir, pool, map_pool) if trains else (checkpoint, None)

    try:
        if plan.mode == "filter":
            preds, gts, latency = evaluate_filter(params, lmap, frames, plan.ekf, FOV_RADIUS)
            ts = [sc.t for sc in frames]
            g_preds, g_gts, _ = evaluate_gps(params, frames, lmap, FOV_RADIUS)
            gps_rows = trace_rows(g_preds, g_gts, ts)
            write_trace(os.path.join(out_dir, "trace_gps.csv"), gps_rows)
            extra = {"gps_baseline": EvalReport.from_error_rows(np.asarray(gps_rows)[:, 1:]).metrics_dict()}
        else:
            preds, gts, latency = (evaluate_gps(params, eval_scenes, None, FOV_RADIUS) if plan.mode == "gps"
                                   else evaluate_icp(eval_scenes, FOV_RADIUS))
            ts = [sc.t for sc in eval_scenes]
            extra = {}
        rows = trace_rows(preds, gts, ts)
        write_trace(os.path.join(out_dir, "trace.csv"), rows)
        if plan.plot_svg:
            write_trace_svg(os.path.join(out_dir, "trace.svg"), rows)
    except Exception as exc:
        raise StageError("infer", exc) from exc

    try:
        report = EvalReport.from_error_rows(np.asarray(rows)[:, 1:])
        doc = {"mode": plan.mode, "seed": plan.seed, **report.metrics_dict(), **extra}
        write_json(os.path.join(out_dir, "report.json"), doc)
        timing = {"latency_ms": {k.removesuffix("_ms"): v for k, v in dataclasses.asdict(latency).items()}}
        write_json(os.path.join(out_dir, "timing.json"), timing | ({"train": train_timing} if trains else {}))
    except Exception as exc:
        raise StageError("eval", exc) from exc
    return doc


def _write_history(path: str, history) -> None:
    lines = ["epoch,loss,loss_tran,loss_rot"]
    # float() first: numpy 2 reprs an np.float64 as "np.float64(...)"
    lines += [f"{i},{float(h.loss)!r},{float(h.loss_tran)!r},{float(h.loss_rot)!r}" for i, h in enumerate(history)]
    _atomic_write(path, "\n".join(lines) + "\n")
