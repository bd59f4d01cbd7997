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

import numpy as np

from . import attention_net as net
from . import simulator, training
from .baselines import icp
from .dataset_io import Scene, _atomic_write, save_checkpoint, save_scenes
from .geometry import Pose, correct_pose, offset_pose, rotation, utm_to_vehicle, wrap_angle
from .inference import EkfConfig, FilterSession, gps_inference
from .map_store import DEFAULT_FOV_RADIUS, LandmarkMap, query_fov, save_map
from .metrics import EvalReport, LatencyStats
from .training import TrainConfig, sample_offset

MODES = ("gps", "filter", "icp")


class StageError(RuntimeError):
    """An experiment stage failed; .stage names it."""

    def __init__(self, stage: str, cause: BaseException):
        super().__init__(f"{stage}: {cause}")
        self.stage = stage


class ConfigError(ValueError):
    """The experiment config document failed validation."""


def _section(cfg: dict, name: str) -> dict:
    value = cfg.get(name, {})
    if not isinstance(value, dict):
        raise ConfigError(f"config section {name!r} must be an object")
    return value


def net_config(cfg: dict) -> net.NetConfig:
    """NetConfig from the net section: absent keys take the NetConfig defaults but d_m 64; the top-level seed."""
    s = _section(cfg, "net")
    try:
        return net.NetConfig.from_dict({**s, "seed": int(cfg.get("seed", 0))},
                                       **dataclasses.asdict(net.NetConfig(d_m=64)))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"net: {exc}") from exc


def sim_config(cfg: dict) -> simulator.SimConfig:
    s = dict(_section(cfg, "sim"))
    for key in ("sigma", "sigma1", "sigma2"):
        if key in s:
            s[key] = tuple(tuple(row) for row in s[key])
    for key in ("mu", "mu1", "mu2", "clutter_lo", "clutter_hi"):
        if key in s:
            s[key] = tuple(s[key])
    try:
        return simulator.SimConfig(seed=int(cfg.get("seed", 0)), **s)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"sim: {exc}") from exc


def train_config(cfg: dict) -> TrainConfig:
    s = _section(cfg, "train")
    noise = _section(cfg, "gps_noise")
    try:
        return TrainConfig(
            sigma_pos=s.get("sigma_pos", noise.get("sigma_pos", 1.0)),
            sigma_rot=math.radians(s.get("sigma_rot_deg", noise.get("sigma_phi_deg", 4.0))),
            epochs=s.get("epochs", 30),
            batch_size=s.get("batch_size", 16),
            learning_rate=s.get("learning_rate", 1e-3),
            mix_ratio=s.get("mix_ratio", 0.0),
            samples_per_epoch=s.get("samples_per_epoch"),
            seed=int(cfg.get("seed", 0)),
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"train: {exc}") from exc


def ekf_config(cfg: dict) -> EkfConfig:
    s = _section(cfg, "ekf")
    try:
        return EkfConfig(
            sigma_accel=s.get("sigma_accel", 0.5),
            sigma_yaw_accel=s.get("sigma_yaw_accel", 0.1),
            r_diag=(
                s.get("r_pos_var", 0.25),
                s.get("r_pos_var", 0.25),
                math.radians(s.get("r_phi_deg", 2.0)) ** 2,
            ),
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"ekf: {exc}") from exc


def gps_noise(cfg: dict) -> tuple[float, float]:
    s = _section(cfg, "gps_noise")
    return float(s.get("sigma_pos", 1.0)), math.radians(float(s.get("sigma_phi_deg", 4.0)))


# -- scene generation ---------------------------------------------------------


def training_scenes(cfg: dict) -> list[Scene]:
    """The configured training set: eval.n_train_scenes synthetic scenes drawn from the config seed."""
    sigma_pos, sigma_rot = gps_noise(cfg)
    n = int(_section(cfg, "eval").get("n_train_scenes", 2000))
    return generate_scene_set(sim_config(cfg), sigma_pos, sigma_rot, n, int(cfg.get("seed", 0)))


def generate_scene_set(sim_cfg: simulator.SimConfig, sigma_pos: float, sigma_rot: float,
                       n: int, seed: int) -> list[Scene]:
    """Self-contained synthetic scenes at the origin with noisy GPS poses."""
    origin = Pose(0.0, 0.0, 0.0)
    scenes = []
    for i in range(n):
        rng = simulator.scene_rng(seed, i)
        sc = simulator.generate_scene(sim_cfg, rng)
        gps = offset_pose(origin, sample_offset(sigma_pos, sigma_rot, rng))
        scenes.append(Scene(t=float(i), gt_pose=origin, gps_pose=gps,
                            measurements=sc.measurements, landmarks=sc.landmarks))
    return scenes


@dataclass
class DriveConfig:
    """Synthetic drive: CTRV segments plus roadside landmark placement.

    The frame period keeps the per-frame motion (v * dt plus filter error)
    inside the offset range the network was trained on.
    """

    v: float = 8.0
    dt: float = 0.05
    segments: tuple = ((20.0, 1.5), (20.0, -1.5), (20.0, 1.5), (20.0, -1.5), (20.0, 1.5), (20.0, -1.5))
    cluster_spacing_m: float = 12.0
    cluster_rate: float = 2.0
    sensor_range_m: float = 40.0
    sensor_half_width_m: float = 20.0


def drive_config(cfg: dict) -> DriveConfig:
    s = _section(cfg, "drive")
    kwargs = {k: s[k] for k in ("v", "dt", "cluster_spacing_m", "cluster_rate",
                                "sensor_range_m", "sensor_half_width_m") if k in s}
    if "segments" in s:
        kwargs["segments"] = tuple(tuple(seg) for seg in s["segments"])
    return DriveConfig(**kwargs)


def drive_trajectory(d: DriveConfig, start: Pose = Pose(0.0, 0.0, 0.0)) -> list[Pose]:
    """Chain CTRV segments; per segment (duration_s, omega_deg_per_s)."""
    poses = [start]
    for duration, omega_deg in d.segments:
        steps = int(round(duration / d.dt))
        poses += simulator.generate_trajectory(d.v, math.radians(omega_deg), d.dt, steps, poses[-1])[1:]
    return poses


def build_drive_map(poses: list[Pose], d: DriveConfig, sim_cfg: simulator.SimConfig,
                    rng: np.random.Generator) -> LandmarkMap:
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
            take = dataclasses.replace(sim_cfg, nu_min=n_pts, nu_max=n_pts, lambda_clutter=0.0,
                                       lambda_miss=0.0, sigma_noise=0.0)
            local = simulator.sample_landmarks(take, rng)
            pts.append(np.asarray([[pose.x, pose.y]]) + local @ rotation(pose.phi).T)
            next_drop += d.cluster_spacing_m
    allpts = np.vstack(pts)
    return LandmarkMap(np.arange(allpts.shape[0]), allpts)


def _visible(lmap: LandmarkMap, pose: Pose, d: DriveConfig) -> np.ndarray:
    """Map landmarks inside the forward sensor box of a pose, in the vehicle frame."""
    local = utm_to_vehicle(lmap.points, pose)
    return local[(local[:, 0] >= 0.0) & (local[:, 0] <= d.sensor_range_m)
                 & (np.abs(local[:, 1]) <= d.sensor_half_width_m)]


def drive_frames(poses: list[Pose], lmap: LandmarkMap, d: DriveConfig,
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


def map_backed_scenes(lmap: LandmarkMap, poses: list[Pose], d: DriveConfig,
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


def scene_map(scene: Scene) -> LandmarkMap:
    if scene.landmarks is None:
        raise ValueError("scene has no landmarks; evaluate against a map instead")
    return LandmarkMap(np.arange(scene.landmarks.shape[0]), scene.landmarks)


def evaluate_gps(params: net.ModelParams, scenes: list[Scene], lmap: LandmarkMap | None,
                 fov_radius: float) -> tuple[list[Pose], list[Pose], LatencyStats]:
    """GPS-based inference per scene; scenes carry their own map when lmap is None."""
    preds, gts, times = [], [], []
    for sc in scenes:
        m = lmap if lmap is not None else scene_map(sc)
        t0 = time.perf_counter()
        preds.append(gps_inference(params, m, sc.measurements, sc.gps_pose, fov_radius))
        times.append(time.perf_counter() - t0)
        gts.append(sc.gt_pose)
    return preds, gts, LatencyStats.from_seconds(times)


def evaluate_icp(scenes: list[Scene], fov_radius: float) -> tuple[list[Pose], list[Pose], LatencyStats]:
    """ICP in place of the network, same correction chain."""
    preds, gts, times = [], [], []
    for sc in scenes:
        m = scene_map(sc)
        t0 = time.perf_counter()
        fov = _fov_points(m, sc.gps_pose, fov_radius)
        result = icp(sc.measurements, utm_to_vehicle(fov, sc.gps_pose))
        preds.append(correct_pose(sc.gps_pose, result.offset))
        times.append(time.perf_counter() - t0)
        gts.append(sc.gt_pose)
    return preds, gts, LatencyStats.from_seconds(times)


def _fov_points(lmap: LandmarkMap, pose: Pose, radius: float) -> np.ndarray:
    pts = query_fov(lmap, pose, radius)
    if pts.shape[0] == 0:
        raise ValueError("no landmarks in field of view")
    return pts


def evaluate_filter(params: net.ModelParams, lmap: LandmarkMap, frames: list[Scene],
                    ekf_cfg: EkfConfig, fov_radius: float) -> tuple[list[Pose], list[Pose], LatencyStats]:
    """EKF-smoothed inference over a drive; initialized from the first GPS pose."""
    if not frames:
        raise ValueError("no drive frames to evaluate")
    session = FilterSession(params, lmap, frames[0].gps_pose, ekf_cfg, fov_radius)
    preds = [session.state.pose()]
    gts = [frames[0].gt_pose]
    times = []
    prev_t = frames[0].t
    for sc in frames[1:]:
        t0 = time.perf_counter()
        preds.append(session.step(sc.measurements, sc.t - prev_t))
        times.append(time.perf_counter() - t0)
        gts.append(sc.gt_pose)
        prev_t = sc.t
    return preds, gts, LatencyStats.from_seconds(times)


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
    """Trace rows back as (t, ex, ey, ephi_deg) float columns."""
    with open(path, encoding="utf-8") as fh:
        lines = [ln for ln in fh.read().splitlines() if ln]
    if not lines or lines[0] != "t,ex,ey,ephi":
        raise ValueError(f"{path}: not a trace CSV")
    return np.asarray([[float(v) for v in ln.split(",")] for ln in lines[1:]], dtype=np.float64)


def write_json(path: str, doc: dict) -> None:
    _atomic_write(path, json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n")


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


def train_stage(cfg: dict, out_dir: str, pool: list[tuple[np.ndarray, np.ndarray]],
                map_pool: list[tuple[np.ndarray, np.ndarray]] = (), progress=None) -> net.ModelParams:
    """Train a fresh network on the scene pools; write checkpoint.json and loss_history.csv.

    A bad net or train section raises ConfigError; any failure while
    training raises StageError("train").
    """
    net_cfg, tcfg = net_config(cfg), train_config(cfg)
    try:
        params, history = training.train(net.init_params(net_cfg), tcfg, pool, map_pool, progress=progress)
        save_checkpoint(params, os.path.join(out_dir, "checkpoint.json"))
        _write_history(os.path.join(out_dir, "loss_history.csv"), history)
    except Exception as exc:
        raise StageError("train", exc) from exc
    return params


def run_experiment(cfg: dict, out_dir: str, checkpoint: net.ModelParams | None = None,
                   progress=None) -> dict:
    """Execute the configured pipeline and write all artifacts under out_dir.

    Returns the report document. Any stage failure raises StageError naming
    the stage.
    """
    mode = cfg.get("mode", "gps")
    if mode not in MODES:
        raise ConfigError(f"mode must be one of {MODES}, got {mode!r}")
    os.makedirs(out_dir, exist_ok=True)
    seed = int(cfg.get("seed", 0))
    sigma_pos, sigma_rot = gps_noise(cfg)
    evl = _section(cfg, "eval")
    fov_radius = float(evl.get("fov_radius", DEFAULT_FOV_RADIUS))
    n_eval = int(evl.get("n_eval_scenes", 200))
    scfg = sim_config(cfg)

    tcfg = train_config(cfg) if mode != "icp" else None
    trains = tcfg is not None and checkpoint is None
    needs_drive = mode == "filter" or (trains and tcfg.mix_ratio > 0)
    try:
        train_scenes = training_scenes(cfg) if trains else []
        eval_scenes = generate_scene_set(scfg, sigma_pos, sigma_rot, n_eval, seed + 1)
        if needs_drive:
            dcfg = drive_config(cfg)
            poses = drive_trajectory(dcfg)
            lmap = build_drive_map(poses, dcfg, scfg, np.random.default_rng((seed, 2)))
        if mode == "filter":
            frames = drive_frames(poses, lmap, dcfg, scfg, sigma_pos, sigma_rot, seed + 3)
            save_map(lmap, os.path.join(out_dir, "map.csv"))
        if train_scenes:
            save_scenes(train_scenes, os.path.join(out_dir, "scenes.jsonl"))
        map_pool = []
        if trains and tcfg.mix_ratio > 0:
            map_pool = map_backed_scenes(lmap, poses, dcfg, scfg,
                                         max(1, int(tcfg.mix_ratio * len(train_scenes))), seed + 4)
    except Exception as exc:
        raise StageError("simulate", exc) from exc

    params = checkpoint
    if trains:
        params = train_stage(cfg, out_dir, [(sc.measurements, sc.landmarks) for sc in train_scenes],
                             map_pool, progress)

    try:
        if mode == "gps":
            preds, gts, latency = evaluate_gps(params, eval_scenes, None, fov_radius)
            ts = [sc.t for sc in eval_scenes]
            extra = {}
        elif mode == "icp":
            preds, gts, latency = evaluate_icp(eval_scenes, fov_radius)
            ts = [sc.t for sc in eval_scenes]
            extra = {}
        else:
            preds, gts, latency = evaluate_filter(params, lmap, frames, ekf_config(cfg), fov_radius)
            ts = [sc.t for sc in frames]
            g_preds, g_gts, _ = evaluate_gps(params, frames, lmap, fov_radius)
            gps_rows = trace_rows(g_preds, g_gts, ts)
            write_trace(os.path.join(out_dir, "trace_gps.csv"), gps_rows)
            extra = {"gps_baseline": EvalReport.from_error_rows(np.asarray(gps_rows)[:, 1:]).metrics_dict()}
        rows = trace_rows(preds, gts, ts)
        write_trace(os.path.join(out_dir, "trace.csv"), rows)
        if cfg.get("plot_svg"):
            write_trace_svg(os.path.join(out_dir, "trace.svg"), rows)
    except Exception as exc:
        raise StageError("infer", exc) from exc

    try:
        report = EvalReport.from_error_rows(read_trace(os.path.join(out_dir, "trace.csv"))[:, 1:])
        doc = {"mode": mode, "seed": seed, **report.metrics_dict(), **extra}
        write_json(os.path.join(out_dir, "report.json"), doc)
        write_json(os.path.join(out_dir, "timing.json"),
                   {"latency_ms": {"mean": latency.mean_ms, "min": latency.min_ms, "max": latency.max_ms}})
    except Exception as exc:
        raise StageError("eval", exc) from exc
    return doc


def _write_history(path: str, history) -> None:
    lines = ["epoch,loss,loss_tran,loss_rot"]
    # float() first: numpy 2 reprs an np.float64 as "np.float64(...)"
    lines += [f"{i},{float(h.loss)!r},{float(h.loss_tran)!r},{float(h.loss_rot)!r}" for i, h in enumerate(history)]
    _atomic_write(path, "\n".join(lines) + "\n")
