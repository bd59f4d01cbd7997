"""File formats: scene JSONL, checkpoint JSON, config dataclasses, atomic writes.

All round trips are value-exact for 64-bit floats; json uses the shortest
round-trip decimal encoding. Writers go through a temp file plus rename so
readers never observe partial files.
"""

from __future__ import annotations

import dataclasses
import json
import os
import tempfile
from dataclasses import dataclass

import numpy as np

from . import attention_net as net
from .geometry import Pose

# 2: fused (d, d) q/k/v projections per block. 1: per-head (d, d/h) arrays,
# still loaded by concatenating them in head order.
CHECKPOINT_VERSION = 2


class SceneFormatError(ValueError):
    """Raised when a scene file does not parse."""


class CheckpointFormatError(ValueError):
    """Raised when a checkpoint file fails validation."""


@dataclass
class Scene:
    """One recorded frame: poses plus vehicle-frame measurements.

    landmarks is None for map-backed scenes (a drive map supplies them) and,
    for self-contained synthetic scenes, the (N, 2) array that is their map.
    """

    t: float
    gt_pose: Pose
    gps_pose: Pose
    measurements: np.ndarray
    landmarks: np.ndarray | None = None


def _atomic_write(path: str, text: str) -> None:
    """Write text via a temp file plus rename; line ends are written as given."""
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)), suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _tuples(value):
    return tuple(_tuples(v) for v in value) if isinstance(value, list) else value


def from_dict(cls, doc: dict, **defaults):
    """The config dataclass `cls` a JSON object describes, the inverse of dataclasses.asdict.

    A field missing from doc takes its value from defaults. A key that is
    not a field, or a field in neither, raises ValueError. JSON lists become
    tuples, nested lists nested tuples.
    """
    names = [f.name for f in dataclasses.fields(cls)]
    unknown = sorted(set(doc) - set(names))
    if unknown:
        raise ValueError(f"unknown key {unknown[0]!r}")
    kw = {**defaults, **doc}
    missing = [n for n in names if n not in kw]
    if missing:
        raise ValueError(f"missing field {missing[0]!r}")
    return cls(**{n: _tuples(kw[n]) for n in names})


def _pose_list(p: Pose) -> list[float]:
    return [p.x, p.y, p.phi]


def _points_list(points: np.ndarray) -> list[list[float]]:
    return [[float(x), float(y)] for x, y in np.asarray(points, dtype=np.float64).reshape(-1, 2)]


def save_scenes(scenes: list[Scene], path: str) -> None:
    """Write scenes as JSON Lines, one scene per line."""
    lines = []
    for s in scenes:
        rec = {
            "t": float(s.t),
            "gt_pose": _pose_list(s.gt_pose),
            "gps_pose": _pose_list(s.gps_pose),
            "measurements": _points_list(s.measurements),
        }
        if s.landmarks is not None:
            rec["landmarks"] = _points_list(s.landmarks)
        lines.append(json.dumps(rec, sort_keys=True, separators=(",", ":")))
    _atomic_write(path, "\n".join(lines) + ("\n" if lines else ""))


def _require(rec: dict, key: str, lineno: int, path: str):
    if key not in rec:
        raise SceneFormatError(f"{path}:{lineno}: missing field {key!r}")
    return rec[key]


def load_scenes(path: str) -> list[Scene]:
    """Parse a JSONL scene file; unknown extra fields are ignored."""
    scenes: list[Scene] = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise SceneFormatError(f"{path}:{lineno}: {exc}") from exc
            if not isinstance(rec, dict):
                raise SceneFormatError(f"{path}:{lineno}: scene record must be an object")
            try:
                t = _require(rec, "t", lineno, path)
                if isinstance(t, bool) or not isinstance(t, (int, float)) or not np.isfinite(t):
                    raise ValueError(f"t must be a finite number, got {t!r}")
                gt = Pose(*_require(rec, "gt_pose", lineno, path))
                gps = Pose(*_require(rec, "gps_pose", lineno, path))
                meas = np.asarray(_require(rec, "measurements", lineno, path), dtype=np.float64).reshape(-1, 2)
                lm = rec.get("landmarks")
                landmarks = None if lm is None else np.asarray(lm, dtype=np.float64).reshape(-1, 2)
                if not all(np.isfinite(a).all() for a in (meas, landmarks) if a is not None):
                    raise ValueError("point coordinates must be finite")
            except SceneFormatError:
                raise
            except (TypeError, ValueError) as exc:
                raise SceneFormatError(f"{path}:{lineno}: {exc}") from exc
            scenes.append(Scene(t=float(t), gt_pose=gt, gps_pose=gps, measurements=meas, landmarks=landmarks))
    return scenes


def save_checkpoint(params: net.ModelParams, path: str) -> None:
    """Write the full model (config plus named arrays) to one JSON document."""
    doc = {
        "format_version": CHECKPOINT_VERSION,
        "config": dataclasses.asdict(params.config),
        "arrays": {
            name: {"shape": list(t.data.shape), "data": t.data.reshape(-1).tolist()}
            for name, t in sorted(params.items())
        },
    }
    _atomic_write(path, json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n")


def load_checkpoint(path: str) -> net.ModelParams:
    """Load and validate a checkpoint; every array shape is checked against the config."""
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise CheckpointFormatError(f"{path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise CheckpointFormatError(f"{path}: checkpoint must be a JSON object")
    version = doc.get("format_version")
    if type(version) is not int or version not in (1, CHECKPOINT_VERSION):
        raise CheckpointFormatError(f"{path}: unsupported format_version {version!r}")
    raw_cfg = doc.get("config")
    if not isinstance(raw_cfg, dict):
        raise CheckpointFormatError(f"{path}: missing config")
    try:
        cfg = from_dict(net.NetConfig, raw_cfg, block_hidden=None, neighbor_features="offsets", seed=0)
    except (TypeError, ValueError) as exc:
        raise CheckpointFormatError(f"{path}: invalid config: {exc}") from exc
    arrays = doc.get("arrays")
    if not isinstance(arrays, dict):
        raise CheckpointFormatError(f"{path}: missing arrays")

    def array(name: str, shape: tuple[int, int]) -> np.ndarray:
        if name not in arrays:
            raise CheckpointFormatError(f"{path}: missing array {name!r}")
        try:
            got = tuple(arrays[name]["shape"])
            data = np.asarray(arrays[name]["data"], dtype=np.float64)
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointFormatError(f"{path}: array {name!r} needs numeric shape and data: {exc!r}") from exc
        if got != shape:
            raise CheckpointFormatError(f"{path}: array {name!r} has shape {got}, expected {shape}")
        if data.size != shape[0] * shape[1]:
            raise CheckpointFormatError(f"{path}: array {name!r} has {data.size} values, expected {shape[0] * shape[1]}")
        if not np.isfinite(data).all():
            raise CheckpointFormatError(f"{path}: array {name!r} has a non-finite value")
        return data.reshape(shape)

    loaded = {}
    for name, (r, c) in net.param_shapes(cfg).items():
        if version == 1 and name.rpartition(".")[2] in ("q", "k", "v"):
            # format 1 keeps head i of a fused projection as its own (d, d/h) array `{name}{i}`
            heads = [array(f"{name}{i}", (r, c // cfg.heads)) for i in range(cfg.heads)]
            loaded[name] = np.concatenate(heads, axis=1)
        else:
            loaded[name] = array(name, (r, c))
    return net.ModelParams(cfg, {name: net.Tensor(arr) for name, arr in loaded.items()})
