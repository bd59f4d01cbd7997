"""File formats: scene JSONL, checkpoint JSON, config dataclasses, atomic writes.

All round trips are value-exact for 64-bit floats; json uses the shortest
round-trip decimal encoding. Writers go through a temp file plus rename so
readers never observe partial files.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import sys
import tempfile
from dataclasses import dataclass

import numpy as np

from . import attention_net as net
from .geometry import Pose

# 2: fused (d, d) q/k/v projections per block. 1: per-head (d, d/h) arrays,
# still loaded by concatenating them in head order.
CHECKPOINT_VERSION = 2
# config entries both formats hold, each at the one value the network supports:
# written as is, and loaded only when absent or equal
FIXED_CONFIG = {"block_hidden": None, "neighbor_features": "offsets"}


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


def check_numbers(value, where: str = "") -> None:
    """Raise ValueError on a boolean, a non-finite number or an array entry that is neither a number nor an array.

    NaN, the infinities and integers beyond the float64 range are non-finite.
    A flat array of floats takes a C-level pass: a checkpoint holds 10^5 values.
    """
    if isinstance(value, dict):
        for key, v in value.items():
            check_numbers(v, f"{where}{key}: ")
    elif isinstance(value, (list, tuple)):
        if set(map(type, value)) == {float} and all(map(math.isfinite, value)):
            return
        for v in value:
            if not isinstance(v, (int, float, list, tuple)):
                raise ValueError(f"{where}must be a number or an array, got {json.dumps(v)}")
            check_numbers(v, where)
    elif isinstance(value, bool) or (isinstance(value, (int, float)) and not abs(value) <= sys.float_info.max):
        raise ValueError(f"{where}must be a finite number, got {json.dumps(value)}")


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
    """Parse a JSONL scene file; unknown extra fields are ignored, the others follow check_numbers."""
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
                keys = ("t", "gt_pose", "gps_pose", "measurements", "landmarks")
                t, gt, gps, meas = (_require(rec, key, lineno, path) for key in keys[:4])
                lm = rec.get("landmarks")  # null is absent
                check_numbers({key: [v] for key, v in zip(keys, (t, gt, gps, meas, [] if lm is None else lm))})
                scene = Scene(float(t), Pose(*gt), Pose(*gps), np.asarray(meas, dtype=np.float64).reshape(-1, 2),
                              None if lm is None else np.asarray(lm, dtype=np.float64).reshape(-1, 2))
            except SceneFormatError:
                raise
            except (TypeError, ValueError) as exc:
                raise SceneFormatError(f"{path}:{lineno}: {exc}") from exc
            scenes.append(scene)
    return scenes


def save_checkpoint(params: net.ModelParams, path: str) -> None:
    """Write the full model (config plus named arrays) to one JSON document."""
    doc = {
        "format_version": CHECKPOINT_VERSION,
        "config": {**dataclasses.asdict(params.config), **FIXED_CONFIG},
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
        check_numbers(raw_cfg)
        for key, value in FIXED_CONFIG.items():
            if raw_cfg.pop(key, value) != value:
                raise ValueError(f"{key!r} must be {json.dumps(value)} or absent")
        cfg = from_dict(net.NetConfig, raw_cfg, seed=0)
    except (TypeError, ValueError) as exc:
        raise CheckpointFormatError(f"{path}: invalid config: {exc}") from exc
    arrays = doc.get("arrays")
    if not isinstance(arrays, dict):
        raise CheckpointFormatError(f"{path}: missing arrays")

    def array(name: str, shape: tuple[int, int]) -> np.ndarray:
        if name not in arrays:
            raise CheckpointFormatError(f"{path}: missing array {name!r}")
        try:
            raw = arrays[name]["data"]
            got, data = tuple(arrays[name]["shape"]), np.asarray(raw, dtype=np.float64)
            finite = np.isfinite(data).all()
            check_numbers([got, raw] if finite else got)  # a non-finite value is reported below, by name
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise CheckpointFormatError(f"{path}: array {name!r} needs numeric shape and data: {exc!r}") from exc
        if not finite:
            raise CheckpointFormatError(f"{path}: array {name!r} has a non-finite value")
        if got != shape:
            raise CheckpointFormatError(f"{path}: array {name!r} has shape {got}, expected {shape}")
        if data.size != shape[0] * shape[1]:
            raise CheckpointFormatError(f"{path}: array {name!r} has {data.size} values, expected {shape[0] * shape[1]}")
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
