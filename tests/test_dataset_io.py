import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest

from attnloc import attention_net as net
from attnloc.dataset_io import (
    FIXED_CONFIG,
    CheckpointFormatError,
    Scene,
    SceneFormatError,
    from_dict,
    load_checkpoint,
    load_scenes,
    save_checkpoint,
    save_scenes,
)
from attnloc.geometry import Pose
from attnloc.simulator import SimConfig


def _scenes():
    rng = np.random.default_rng(0)
    return [
        Scene(t=0.0, gt_pose=Pose(0, 0, 0), gps_pose=Pose(0.1, -0.2, 0.01),
              measurements=rng.uniform(-30, 30, size=(5, 2)),
              landmarks=rng.uniform(-30, 30, size=(7, 2))),
        Scene(t=1.5, gt_pose=Pose(412345.125, 5432101.0625, math.pi),
              gps_pose=Pose(412344.5, 5432100.5, -3.1),
              measurements=np.array([[1.0 / 3.0, math.pi * 100]]),
              landmarks=None),
        Scene(t=2.0, gt_pose=Pose(1, 2, 0.5), gps_pose=Pose(1, 2, 0.5),
              measurements=np.zeros((0, 2)), landmarks=np.array([[5.0, 5.0]])),
    ]


class TestSceneRoundTrip:
    def test_value_exact(self, tmp_path):
        path = str(tmp_path / "scenes.jsonl")
        scenes = _scenes()
        save_scenes(scenes, path)
        loaded = load_scenes(path)
        assert len(loaded) == len(scenes)
        for a, b in zip(scenes, loaded):
            assert a.t == b.t
            assert a.gt_pose == b.gt_pose
            assert a.gps_pose == b.gps_pose
            np.testing.assert_array_equal(a.measurements, b.measurements)
            if a.landmarks is None:
                assert b.landmarks is None
            else:
                np.testing.assert_array_equal(a.landmarks, b.landmarks)

    def test_empty_measurements_pass_io_layer(self, tmp_path):
        path = str(tmp_path / "scenes.jsonl")
        save_scenes([_scenes()[2]], path)
        assert load_scenes(path)[0].measurements.shape == (0, 2)

    def test_unknown_fields_ignored(self, tmp_path):
        path = tmp_path / "extra.jsonl"
        rec = {"t": 0.5, "gt_pose": [1, 2, 0.1], "gps_pose": [1, 2, 0.1],
               "measurements": [[1.0, 2.0]], "future_field": {"nested": True}}
        path.write_text(json.dumps(rec) + "\n", encoding="utf-8")
        scenes = load_scenes(str(path))
        assert scenes[0].t == 0.5

    def test_malformed_line_reports_number(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        good = json.dumps({"t": 0.0, "gt_pose": [0, 0, 0], "gps_pose": [0, 0, 0], "measurements": []})
        path.write_text(good + "\n{not json\n", encoding="utf-8")
        with pytest.raises(SceneFormatError, match=":2:"):
            load_scenes(str(path))

    @pytest.mark.parametrize("field, value", [
        ("t", None), ("t", "soon"), ("t", float("nan")), ("t", float("inf")), ("t", True), ("gt_pose", 5),
        pytest.param("measurements", [[1.0, float("nan")]], id="measurements-NaN"),
        pytest.param("landmarks", [[0.0, 1.0], [float("inf"), 2.0]], id="landmarks-Infinity"),
        # a boolean or a text is no number, though numpy would convert it
        pytest.param("measurements", [[True, False]], id="measurements-booleans"),
        pytest.param("measurements", [["1.5", "2"]], id="measurements-texts"),
        pytest.param("gt_pose", [True, 0, 0], id="gt_pose-boolean"),
        pytest.param("landmarks", [[0.0, None]], id="landmarks-null"),
        pytest.param("t", [0.5], id="t-array"),
        pytest.param("gps_pose", {"x": 0, "y": 0, "phi": 0}, id="gps_pose-object"),
        pytest.param("measurements", [[10**400, 0.0]], id="measurements-integer-beyond-float64"),
        # points are (x, y) pairs: rows of three, or a flat list, are not re-cut into pairs
        pytest.param("measurements", [[1, 2, 3], [4, 5, 6]], id="measurements-rows-of-three"),
        pytest.param("measurements", [1, 2, 3, 4], id="measurements-flat"),
        pytest.param("landmarks", [[0.0, 1.0, 2.0, 3.0]], id="landmarks-row-of-four"),
    ])
    def test_bad_field_value_reports_line(self, tmp_path, field, value):
        path = tmp_path / "badvalue.jsonl"
        good = {"t": 0.0, "gt_pose": [0, 0, 0], "gps_pose": [0, 0, 0], "measurements": []}
        path.write_text(json.dumps(good) + "\n" + json.dumps(dict(good, **{field: value})) + "\n",
                        encoding="utf-8")
        with pytest.raises(SceneFormatError, match="badvalue.jsonl:2:"):
            load_scenes(str(path))

    def test_missing_field_named(self, tmp_path):
        path = tmp_path / "missing.jsonl"
        path.write_text(json.dumps({"t": 0.0, "gt_pose": [0, 0, 0], "measurements": []}) + "\n",
                        encoding="utf-8")
        with pytest.raises(SceneFormatError, match="gps_pose"):
            load_scenes(str(path))


class TestCheckpointRoundTrip:
    def test_bit_identical_forward(self, tmp_path):
        cfg = net.NetConfig(d_m=16, heads=2, k=3, seed=9)
        params = net.init_params(cfg)
        path = str(tmp_path / "ckpt.json")
        save_checkpoint(params, path)
        loaded = load_checkpoint(path)
        assert loaded.config == cfg
        rng = np.random.default_rng(1)
        m = rng.uniform(-20, 20, size=(4, 2))
        lm = rng.uniform(-20, 20, size=(6, 2))
        a = net.forward([(m, lm)], params).data
        b = net.forward([(m, lm)], loaded).data
        np.testing.assert_array_equal(a, b)

    def test_format_1_per_head_arrays_load_fused(self, tmp_path):
        cfg = net.NetConfig(d_m=8, heads=2, k=2, seed=3)
        params = net.init_params(cfg)
        arrays = {}
        for name, t in params.items():
            block, _, leaf = name.rpartition(".")
            if block in ("local", "global") and leaf in ("q", "k", "v"):
                for i in range(cfg.heads):  # head i owns columns 4i ... 4i+3
                    arrays[f"{name}{i}"] = t.data[:, 4 * i : 4 * i + 4]
            else:
                arrays[name] = t.data
        doc = {
            "format_version": 1,
            "config": {"d_m": 8, "heads": 2, "k": 2, "rff_hidden": 64, "head_hidden": [128, 64],
                       "block_hidden": None, "neighbor_features": "offsets", "seed": 3},
            "arrays": {name: {"shape": list(a.shape), "data": a.reshape(-1).tolist()} for name, a in arrays.items()},
        }
        path = tmp_path / "v1.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        loaded = load_checkpoint(str(path))
        assert loaded.config == cfg
        assert sorted(loaded.tensors) == sorted(params.tensors)
        for name, t in params.items():
            np.testing.assert_array_equal(loaded[name].data, t.data)
        rng = np.random.default_rng(2)
        m = rng.uniform(-20, 20, size=(4, 2))
        lm = rng.uniform(-20, 20, size=(6, 2))
        np.testing.assert_array_equal(net.forward([(m, lm)], loaded).data, net.forward([(m, lm)], params).data)

    def test_truncated_file_rejected(self, tmp_path):
        cfg = net.NetConfig(d_m=8, heads=2, k=2, seed=0)
        path = str(tmp_path / "trunc.json")
        save_checkpoint(net.init_params(cfg), path)
        raw = Path(path).read_text(encoding="utf-8")
        Path(path).write_text(raw[: len(raw) // 2], encoding="utf-8")
        with pytest.raises(CheckpointFormatError):
            load_checkpoint(path)

    @pytest.mark.parametrize("version", [3, True, 2.0])
    def test_version_mismatch_rejected(self, tmp_path, version):
        path = tmp_path / "v3.json"
        path.write_text(json.dumps({"format_version": version, "config": {}, "arrays": {}}), encoding="utf-8")
        with pytest.raises(CheckpointFormatError, match="format_version"):
            load_checkpoint(str(path))

    def test_invalid_head_count_rejected(self, tmp_path):
        cfg = net.NetConfig(d_m=8, heads=2, k=2, seed=0)
        path = str(tmp_path / "badcfg.json")
        save_checkpoint(net.init_params(cfg), path)
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
        doc["config"]["heads"] = 3  # does not divide d_m = 8
        Path(path).write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(CheckpointFormatError, match="invalid config"):
            load_checkpoint(path)

    def test_shape_mismatch_names_array(self, tmp_path):
        cfg = net.NetConfig(d_m=8, heads=2, k=2, seed=0)
        path = str(tmp_path / "badshape.json")
        save_checkpoint(net.init_params(cfg), path)
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
        doc["arrays"]["embed_m.w0"]["shape"] = [3, 64]
        Path(path).write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(CheckpointFormatError, match="embed_m.w0"):
            load_checkpoint(path)

    @pytest.mark.parametrize("corrupt", [
        lambda doc: [1, 2],
        lambda doc: dict(doc, arrays=dict(doc["arrays"], **{"embed_m.w0": 5})),
        lambda doc: dict(doc, arrays=dict(doc["arrays"], **{"embed_m.w0": [1.0, 2.0]})),
        lambda doc: dict(doc, arrays=dict(doc["arrays"], **{"embed_m.w0": {"shape": [2, 64]}})),
        lambda doc: dict(doc, arrays=dict(doc["arrays"], **{"embed_m.w0": {"shape": 7, "data": []}})),
        lambda doc: dict(doc, arrays=dict(doc["arrays"], **{"s_tran": {"shape": [1, 1], "data": ["x"]}})),
        lambda doc: dict(doc, arrays=dict(doc["arrays"], **{"s_tran": {"shape": [1, 1], "data": [True]}})),
        lambda doc: dict(doc, arrays=dict(doc["arrays"], **{"s_tran": {"shape": [1, 1], "data": ["0.5"]}})),
        lambda doc: dict(doc, arrays=dict(doc["arrays"], **{"s_tran": {"shape": [True, True], "data": [0.5]}})),
        lambda doc: dict(doc, arrays=dict(doc["arrays"], **{"s_tran": {"shape": [1, 1], "data": [10**400]}})),
    ], ids=["top-level-list", "entry-number", "entry-list", "entry-without-data", "shape-number", "data-text",
            "data-boolean", "data-number-text", "shape-booleans", "data-integer-beyond-float64"])
    def test_malformed_document_rejected(self, tmp_path, corrupt):
        path = tmp_path / "malformed.json"
        save_checkpoint(net.init_params(net.NetConfig(d_m=8, heads=2, k=2, seed=0)), str(path))
        path.write_text(json.dumps(corrupt(json.loads(path.read_text(encoding="utf-8")))), encoding="utf-8")
        with pytest.raises(CheckpointFormatError, match="malformed.json"):
            load_checkpoint(str(path))

    @pytest.mark.parametrize("key", ["d_m", "heads", "k", "rff_hidden", "head_hidden"])
    def test_config_field_required(self, tmp_path, key):
        # a config without heads must never load with the default of 4
        path = tmp_path / "nofield.json"
        save_checkpoint(net.init_params(net.NetConfig(d_m=8, heads=2, k=2, seed=0)), str(path))
        doc = json.loads(path.read_text(encoding="utf-8"))
        del doc["config"][key]
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(CheckpointFormatError, match=f"missing field '{key}'"):
            load_checkpoint(str(path))

    @pytest.mark.parametrize("key,value", [("k", True), ("heads", True), ("seed", math.nan), ("seed", -1),
                                           ("seed", 1.5), ("seed", True)])
    def test_config_value_rules_name_the_file(self, tmp_path, key, value):
        # a boolean is no width, and the seed is an integer >= 0, as in a config document
        path = tmp_path / "badvalue.json"
        save_checkpoint(net.init_params(net.NetConfig(d_m=8, heads=2, k=2, seed=0)), str(path))
        doc = json.loads(path.read_text(encoding="utf-8"))
        doc["config"][key] = value
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(CheckpointFormatError, match="badvalue.json: invalid config"):
            load_checkpoint(str(path))

    def test_config_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "extra.json"
        save_checkpoint(net.init_params(net.NetConfig(d_m=8, heads=2, k=2, seed=0)), str(path))
        doc = json.loads(path.read_text(encoding="utf-8"))
        doc["config"]["dropout"] = 0.1
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(CheckpointFormatError, match="unknown key 'dropout'"):
            load_checkpoint(str(path))

    def test_config_written_as_asdict(self, tmp_path):
        # the format holds the FIXED_CONFIG entries, each at its one value
        cfg = net.NetConfig(d_m=8, heads=2, k=2, head_hidden=(5, 3), seed=4)
        path = tmp_path / "cfg.json"
        save_checkpoint(net.init_params(cfg), str(path))
        written = json.loads(path.read_text(encoding="utf-8"))["config"]
        assert written == {"d_m": 8, "heads": 2, "k": 2, "rff_hidden": 64, "head_hidden": [5, 3],
                           "block_hidden": None, "neighbor_features": "offsets", "seed": 4}
        assert load_checkpoint(str(path)).config == cfg

    @pytest.mark.parametrize("key,value", [("neighbor_features", "distance"), ("block_hidden", 32)])
    def test_fixed_config_entry_other_value_rejected(self, tmp_path, key, value):
        # a distance-only embedding or another block width needs arrays this network does not have
        path = tmp_path / "fixed.json"
        save_checkpoint(net.init_params(net.NetConfig(d_m=8, heads=2, k=2, seed=0)), str(path))
        doc = json.loads(path.read_text(encoding="utf-8"))
        doc["config"][key] = value
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(CheckpointFormatError, match=f"fixed.json: invalid config: '{key}'"):
            load_checkpoint(str(path))

    def test_fixed_config_entries_may_be_absent(self, tmp_path):
        cfg = net.NetConfig(d_m=8, heads=2, k=2, seed=0)
        path = tmp_path / "absent.json"
        save_checkpoint(net.init_params(cfg), str(path))
        doc = json.loads(path.read_text(encoding="utf-8"))
        for key in FIXED_CONFIG:
            del doc["config"][key]
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert load_checkpoint(str(path)).config == cfg

    def test_missing_array_rejected(self, tmp_path):
        cfg = net.NetConfig(d_m=8, heads=2, k=2, seed=0)
        path = str(tmp_path / "missing_arr.json")
        save_checkpoint(net.init_params(cfg), path)
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
        del doc["arrays"]["s_tran"]
        Path(path).write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(CheckpointFormatError, match="s_tran"):
            load_checkpoint(path)


    @pytest.mark.parametrize("version,name", [(2, "local.q"), (2, "s_rot"), (1, "global.v1"), (1, "head.w2")])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=["nan", "inf"])
    def test_non_finite_value_names_file_and_array(self, tmp_path, version, name, value):
        path = tmp_path / "nonfinite.json"
        save_checkpoint(net.init_params(net.NetConfig(d_m=8, heads=2, k=2, seed=0)), str(path))
        doc = json.loads(path.read_text(encoding="utf-8"))
        if version == 1:  # head i of each fused q/k/v projection, columns 4i ... 4i+3, as its own array
            doc["format_version"] = 1
            for fused in [n for n in doc["arrays"] if n.rpartition(".")[2] in ("q", "k", "v")]:
                arr = np.reshape(doc["arrays"].pop(fused)["data"], (8, 8))
                for i in range(2):
                    doc["arrays"][f"{fused}{i}"] = {"shape": [8, 4], "data": arr[:, 4 * i:4 * i + 4].ravel().tolist()}
            path.write_text(json.dumps(doc), encoding="utf-8")
            load_checkpoint(str(path))
        doc["arrays"][name]["data"][-1] = value
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(CheckpointFormatError, match=rf"nonfinite\.json: array '{name}' has a non-finite value"):
            load_checkpoint(str(path))

class TestFromDict:
    def test_nested_lists_become_tuples(self):
        cfg = from_dict(SimConfig, {"mu1": [1.0, 2.0], "sigma1": [[2.0, 0.0], [0.0, 3.0]]},
                        **dataclasses.asdict(SimConfig()))
        assert cfg.mu1 == (1.0, 2.0)
        assert cfg.sigma1 == ((2.0, 0.0), (0.0, 3.0))
        assert cfg == SimConfig(mu1=(1.0, 2.0), sigma1=((2.0, 0.0), (0.0, 3.0)))

    def test_defaults_fill_absent_fields_only(self):
        assert from_dict(SimConfig, {"nu_max": 9}, **dataclasses.asdict(SimConfig(nu_max=30, seed=4))) \
            == SimConfig(nu_max=9, seed=4)
