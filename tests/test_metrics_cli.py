import dataclasses
import json
import math
import os
import re
from pathlib import Path

import numpy as np
import pytest

from attnloc import attention_net as net
from attnloc import cli, experiment
from attnloc.dataset_io import load_checkpoint
from attnloc.experiment import ConfigError, run_experiment
from attnloc.geometry import Pose
from attnloc.inference import EkfConfig
from attnloc.metrics import EvalReport, LatencyStats
from attnloc.simulator import SimConfig
from attnloc.training import TrainConfig
from metrics_helpers import max_error, rmse

TINY_CFG = {
    "mode": "gps",
    "seed": 0,
    "net": {"d_m": 16, "heads": 2, "k": 4},
    "sim": {"nu_min": 6, "nu_max": 10, "lambda_clutter": 1.0, "lambda_miss": 0.5, "sigma_noise": 0.05},
    "train": {"epochs": 2, "batch_size": 8, "learning_rate": 1e-3},
    "gps_noise": {"sigma_pos": 1.0, "sigma_phi_deg": 4.0},
    "eval": {"n_train_scenes": 24, "n_eval_scenes": 8},
}
# the integer keys: their errors name the key
COUNT_KEYS = ("n_train_scenes", "n_eval_scenes", "d_m", "heads", "k", "rff_hidden", "head_hidden", "epochs",
              "batch_size", "samples_per_epoch", "nu_min", "nu_max", "seed")
FILTER_CFG = dict(TINY_CFG, mode="filter", drive={"v": 8.0, "dt": 0.1, "segments": [[6.0, 1.0], [6.0, -1.0]]})
CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def _with(cfg: dict, key: str, value) -> dict:
    """A deep copy of cfg with the dotted key set to value."""
    out = json.loads(json.dumps(cfg))
    *sections, leaf = key.split(".")
    node = out
    for name in sections:
        node = node.setdefault(name, {})
    node[leaf] = value
    return out


class TestRmse:
    def test_perfect_predictions(self):
        poses = [Pose(1, 2, 0.3), Pose(-1, 0, 1.0)]
        assert rmse(poses, poses) == (0.0, 0.0, 0.0)

    def test_constant_offset(self):
        gts = [Pose(i, 0, 0) for i in range(5)]
        preds = [Pose(i + 1.0, 0, 0) for i in range(5)]
        assert rmse(preds, gts)[0] == pytest.approx(1.0)

    def test_three_four_errors(self):
        gts = [Pose(0, 0, 0), Pose(0, 0, 0)]
        preds = [Pose(3, 0, 0), Pose(4, 0, 0)]
        assert rmse(preds, gts)[0] == pytest.approx(math.sqrt(12.5), abs=1e-4)

    def test_heading_wrapped_and_in_degrees(self):
        gts = [Pose(0, 0, math.pi - 0.01)]
        preds = [Pose(0, 0, -math.pi + 0.01)]
        assert rmse(preds, gts)[2] == pytest.approx(math.degrees(0.02))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            rmse([Pose(0, 0, 0)], [])


class TestLatencyStats:
    def test_percentiles(self):
        stats = LatencyStats.from_seconds([i / 1000 for i in range(100, 0, -1)])  # 100 ... 1 ms
        assert (stats.min_ms, stats.p50_ms, stats.p95_ms, stats.max_ms, stats.mean_ms) == pytest.approx(
            (1.0, 50.5, 95.05, 100.0, 50.5))

    def test_no_timings(self):
        assert LatencyStats.from_seconds([]) == LatencyStats()

    def test_timing_json_schema(self, tmp_path):
        # a run that trains adds its training wall-clock; icp mode and a supplied checkpoint do not train
        run_experiment(dict(TINY_CFG, mode="icp"), str(tmp_path / "icp"))
        run_experiment(TINY_CFG, str(tmp_path / "gps"))
        trained = load_checkpoint(str(tmp_path / "gps" / "checkpoint.json"))
        run_experiment(TINY_CFG, str(tmp_path / "ckpt"), checkpoint=trained)
        for run, keys in (("icp", ["latency_ms"]), ("gps", ["latency_ms", "train"]), ("ckpt", ["latency_ms"])):
            doc = json.loads((tmp_path / run / "timing.json").read_text(encoding="utf-8"))
            assert list(doc) == keys and sorted(doc["latency_ms"]) == ["max", "mean", "min", "p50", "p95"]
            lat = doc["latency_ms"]
            assert 0 < lat["min"] <= lat["p50"] <= lat["p95"] <= lat["max"]
            assert lat["min"] <= lat["mean"] <= lat["max"]
        train = json.loads((tmp_path / "gps/timing.json").read_text(encoding="utf-8"))["train"]
        assert sorted(train) == ["samples_per_s", "seconds"] and train["seconds"] > 0
        # 2 epochs over the 24 training scenes
        assert train["samples_per_s"] * train["seconds"] == pytest.approx(2 * 24)


class TestMaxError:
    def test_zero(self):
        poses = [Pose(1, 1, 0.1)]
        assert max_error(poses, poses) == (0.0, 0.0, 0.0)

    def test_constant(self):
        gts = [Pose(0, 0, 0)] * 3
        preds = [Pose(2.0, -0.5, 0)] * 3
        m = max_error(preds, gts)
        assert m[0] == pytest.approx(2.0)
        assert m[1] == pytest.approx(0.5)

    def test_three_four(self):
        gts = [Pose(0, 0, 0), Pose(0, 0, 0)]
        preds = [Pose(3, 0, 0), Pose(-4, 0, 0)]
        assert max_error(preds, gts)[0] == pytest.approx(4.0)


class TestEvalReport:
    def test_recompute_from_rows(self):
        rows = np.array([[1.0, 0.0, 2.0], [-1.0, 0.0, -2.0]])
        rep = EvalReport.from_error_rows(rows)
        assert rep.rmse_x_m == pytest.approx(1.0)
        assert rep.rmse_phi_deg == pytest.approx(2.0)
        assert rep.max_y_m == 0.0
        assert rep.n == 2


class TestRunExperiment:
    def test_gps_mode_artifacts_and_determinism(self, tmp_path):
        out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
        r1 = run_experiment(dict(TINY_CFG), out1)
        r2 = run_experiment(dict(TINY_CFG), out2)
        assert r1 == r2
        for name in ("report.json", "trace.csv", "checkpoint.json", "scenes.jsonl", "loss_history.csv"):
            a = Path(out1, name).read_bytes()
            b = Path(out2, name).read_bytes()
            assert a == b, f"{name} differs between identical runs"

    def test_loss_history_holds_the_epoch_losses(self, tmp_path):
        out = str(tmp_path / "run")
        os.makedirs(out)
        stats = []
        plan = experiment.parse_config(dict(TINY_CFG))
        pool, map_pool = experiment.training_pools(plan, experiment.training_scenes(plan))
        experiment.train_stage(plan, out, pool, map_pool, progress=lambda epoch, s: stats.append(s))
        with open(os.path.join(out, "loss_history.csv"), encoding="utf-8") as fh:
            header, *rows = [line.split(",") for line in fh.read().splitlines()]
        assert header == ["epoch", "loss", "loss_tran", "loss_rot"]
        assert len(rows) == len(stats) == TINY_CFG["train"]["epochs"]
        for i, (row, s) in enumerate(zip(rows, stats)):
            assert int(row[0]) == i
            assert [float(cell) for cell in row[1:]] == [s.loss, s.loss_tran, s.loss_rot]

    def test_report_recomputable_from_trace(self, tmp_path):
        out = str(tmp_path / "run")
        report = run_experiment(dict(TINY_CFG), out)
        rows = experiment.read_trace(os.path.join(out, "trace.csv"))
        again = EvalReport.from_error_rows(rows[:, 1:]).metrics_dict()
        for key, value in again.items():
            assert report[key] == value

    def test_icp_mode(self, tmp_path):
        cfg = dict(TINY_CFG)
        cfg["mode"] = "icp"
        cfg["sim"] = dict(cfg["sim"], lambda_clutter=0.0, lambda_miss=0.0, sigma_noise=0.01)
        report = run_experiment(cfg, str(tmp_path / "icp"))
        assert report["rmse_x_m"] < 0.5

    def test_bad_mode_rejected(self, tmp_path):
        cfg = dict(TINY_CFG)
        cfg["mode"] = "teleport"
        with pytest.raises(ConfigError):
            run_experiment(cfg, str(tmp_path / "x"))

    def test_empty_document_is_the_default_plan(self):
        plan = experiment.parse_config({})
        assert (plan.mode, plan.seed, plan.plot_svg) == ("gps", 0, False)
        assert plan.net == net.NetConfig(d_m=64)
        assert plan.train == TrainConfig() and plan.train.learning_rate == 1e-3
        assert plan.gps_noise == (plan.train.sigma_pos, plan.train.sigma_rot)
        assert plan.eval == experiment.EvalConfig()
        assert plan.drive == experiment.DriveConfig()
        assert plan.ekf == EkfConfig()

    def test_shipped_configs_parse(self):
        paths = sorted(CONFIGS.glob("*.json"))
        assert paths
        for path in paths:
            doc = json.loads(path.read_text(encoding="utf-8"))
            plan = experiment.parse_config(doc)
            assert (plan.mode, plan.seed) == (doc["mode"], doc["seed"]), path.name

    def test_readme_config_block_is_every_key_at_its_default(self):
        readme = (CONFIGS.parent / "README.md").read_text(encoding="utf-8")
        block = readme.split("Every accepted key, with its default:", 1)[1].split("```json", 1)[1].split("```", 1)[0]
        doc = json.loads(block)
        assert experiment.parse_config(doc) == experiment.parse_config({})
        for name, cls in (("net", net.NetConfig), ("sim", SimConfig), ("eval", experiment.EvalConfig),
                          ("drive", experiment.DriveConfig)):
            assert set(doc[name]) == {f.name for f in dataclasses.fields(cls)} - {"seed"}, name

    @pytest.mark.parametrize("build", [lambda: net.NetConfig(k=True), lambda: TrainConfig(batch_size=True),
                                       lambda: experiment.EvalConfig(n_eval_scenes=True),
                                       lambda: SimConfig(nu_min=True)],
                             ids=["NetConfig-k", "TrainConfig-batch_size", "EvalConfig-n_eval_scenes",
                                  "SimConfig-nu_min"])
    def test_count_rejects_a_boolean(self, build):
        with pytest.raises(ValueError, match="must be an integer >= 1, got True"):
            build()

    def test_paper_noise_rows_accepted(self):
        # table rows a) - c): sigma in {2, 1, 0.5} m and {10, 4, 2} deg
        for sp, sphi in ((2.0, 10.0), (1.0, 4.0), (0.5, 2.0)):
            cfg = dict(TINY_CFG)
            cfg["gps_noise"] = {"sigma_pos": sp, "sigma_phi_deg": sphi}
            got = experiment.gps_noise(cfg)
            assert got == (sp, math.radians(sphi))

    def test_mix_ratio_rows_accepted(self):
        for mix in (0.0, 0.05, 0.5):
            cfg = dict(TINY_CFG)
            cfg["train"] = dict(cfg["train"], mix_ratio=mix)
            assert experiment.train_config(cfg).mix_ratio == mix

    def test_mixed_training_pool(self, tmp_path):
        cfg = dict(TINY_CFG)
        cfg["train"] = dict(cfg["train"], mix_ratio=0.5)
        cfg["drive"] = {"v": 8.0, "dt": 0.1, "segments": [[8.0, 1.0], [8.0, -1.0]]}
        report = run_experiment(cfg, str(tmp_path / "mix"))
        assert report["n"] == 8

    def test_filter_mode_reports_gps_baseline(self, tmp_path):
        cfg = dict(TINY_CFG)
        cfg["mode"] = "filter"
        cfg["drive"] = {"v": 8.0, "dt": 0.1, "segments": [[6.0, 1.0], [6.0, -1.0]]}
        out = str(tmp_path / "filt")
        report = run_experiment(cfg, out)
        assert "gps_baseline" in report
        assert os.path.exists(os.path.join(out, "trace_gps.csv"))
        assert report["n"] == report["gps_baseline"]["n"]

    def test_svg_plot_written(self, tmp_path):
        cfg = dict(TINY_CFG)
        cfg["plot_svg"] = True
        out = str(tmp_path / "svg")
        run_experiment(cfg, out)
        svg = Path(out, "trace.svg").read_text(encoding="utf-8")
        assert svg.startswith("<svg") and "polyline" in svg


class TestCli:
    def _write_cfg(self, tmp_path, cfg=TINY_CFG):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        return str(path)

    def test_simulate_then_eval_round(self, tmp_path, capsys):
        cfg = self._write_cfg(tmp_path)
        out = str(tmp_path / "out")
        assert cli.main(["simulate", "--config", cfg, "--out", out]) == 0
        assert os.path.exists(os.path.join(out, "scenes.jsonl"))

    def test_infer_gps_and_eval_recompute(self, tmp_path, capsys):
        cfg = self._write_cfg(tmp_path)
        out = str(tmp_path / "run")
        assert cli.main(["infer", "--mode", "gps", "--config", cfg, "--out", out]) == 0
        report = json.loads(Path(out, "report.json").read_text(encoding="utf-8"))
        out2 = str(tmp_path / "eval")
        assert cli.main(["eval", "--trace", os.path.join(out, "trace.csv"), "--out", out2]) == 0
        recomputed = json.loads(Path(out2, "report.json").read_text(encoding="utf-8"))
        for key, value in recomputed.items():
            assert report[key] == value

    def test_train_with_checkpoint_reuse(self, tmp_path, capsys):
        cfg = self._write_cfg(tmp_path)
        out = str(tmp_path / "train")
        assert cli.main(["train", "--config", cfg, "--out", out]) == 0
        ckpt = os.path.join(out, "checkpoint.json")
        assert os.path.exists(ckpt)
        out2 = str(tmp_path / "reuse")
        assert cli.main(["infer", "--mode", "gps", "--config", cfg, "--out", out2,
                         "--checkpoint", ckpt]) == 0

    def test_infer_with_checkpoint_skips_training_scenes(self, tmp_path, capsys):
        cfg = self._write_cfg(tmp_path)
        out = str(tmp_path / "trained")
        assert cli.main(["infer", "--mode", "gps", "--config", cfg, "--out", out]) == 0
        out2 = str(tmp_path / "reuse")
        assert cli.main(["infer", "--mode", "gps", "--config", cfg, "--out", out2,
                         "--checkpoint", os.path.join(out, "checkpoint.json")]) == 0
        assert os.path.exists(os.path.join(out, "scenes.jsonl"))
        assert not os.path.exists(os.path.join(out2, "scenes.jsonl"))
        a = Path(out, "report.json").read_bytes()
        b = Path(out2, "report.json").read_bytes()
        assert a == b

    def test_bad_config_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        code = cli.main(["simulate", "--config", str(bad), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "error:config:" in capsys.readouterr().err

    def test_failing_stage_exit_code(self, tmp_path, capsys):
        cfg = dict(TINY_CFG)
        cfg["sim"] = {"nu_min": 3, "nu_max": 2}  # invalid bounds
        code = cli.main(["infer", "--mode", "gps", "--config", self._write_cfg(tmp_path, cfg),
                         "--out", str(tmp_path / "o")])
        assert code == 2
        assert "error:config:" in capsys.readouterr().err

    def _last_err_line(self, capsys):
        return capsys.readouterr().err.strip().splitlines()[-1]

    def test_malformed_checkpoint_is_io_error(self, tmp_path, capsys):
        ckpt = tmp_path / "ckpt.json"
        ckpt.write_text("[1, 2]", encoding="utf-8")
        code = cli.main(["infer", "--mode", "gps", "--config", self._write_cfg(tmp_path),
                         "--out", str(tmp_path / "o"), "--checkpoint", str(ckpt)])
        assert code == 1
        assert self._last_err_line(capsys).startswith("error:io:")

    def test_divergent_training_is_train_error(self, tmp_path, capsys, recwarn):
        cfg = dict(TINY_CFG, train={"epochs": 2, "batch_size": 1, "learning_rate": 1e3},
                   eval={"n_train_scenes": 20, "n_eval_scenes": 4})
        code = cli.main(["train", "--config", self._write_cfg(tmp_path, cfg), "--out", str(tmp_path / "o")])
        assert code == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:train:")
        assert not err[0].startswith("error:train: train:")
        assert "loss is not finite at epoch" in err[0]
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    # (command, dotted key, bad value); the error names the key's top-level section
    BAD_VALUES = [
        *[(["infer", "--mode", "filter"], key, value) for key, value in (
            ("drive.speed", 8.0), ("train.lr", 1e-2), ("eval.n_evals", 4), ("modee", "gps"),
            ("drive.v", "fast"), ("drive.dt", 0), ("eval.n_train_scenes", "many"),
            ("gps_noise.sigma_pos", "x"), ("seed", "a"), ("ekf.sigma_accel", -1), ("eval.fov_radius", 0),
            ("eval.n_eval_scenes", 0), ("eval.n_eval_scenes", 4.5), ("net.heads", 3), ("net.k", 0), ("net.seed", 1),
            ("sim.seed", 1), ("sim.mu1", [1.0]), ("net.d_m", 16.0), ("train.epochs", 1.5), ("net.rff_hidden", 0),
            ("net.head_hidden", [0]), ("train.batch_size", 2.5), ("train.samples_per_epoch", -3),
            ("sim.nu_max", 10.5), ("train.learning_rate", math.nan), ("gps_noise.sigma_pos", math.inf),
            ("drive.dt", math.inf), ("drive.v", math.nan), ("ekf.r_pos_var", math.inf),
            ("eval.fov_radius", math.inf), ("sim.sigma_noise", math.nan), ("sim.mu1", [20.0, -math.inf]),
            ("train.epochs", True), ("net.k", True), ("seed", True), ("plot_svg", 1),
            ("net.block_hidden", 32), ("net.neighbor_features", "distance"), ("sim.mu1", ["20", "-2"]),
            ("sim.clutter_lo", ["-10", "-20"]), ("sim.mu", [None, 0]),
            # integers beyond the float64 range
            ("gps_noise.sigma_pos", 10**400), ("sim.mu1", [10**400, 0]),
            # a number in a string is not a number, and "nan" would sample zero noise
            ("gps_noise.sigma_pos", "1.0"), ("gps_noise.sigma_pos", "nan"), ("gps_noise.sigma_pos", "Infinity"),
            ("gps_noise.sigma_pos", "inf"), ("gps_noise.sigma_phi_deg", "nan"), ("train.sigma_pos", "nan"),
            ("train.sigma_rot_deg", "4.0"),
            # the drive's sensor model and the map query radius are constants
            ("eval.fov_radius", 60.0), ("drive.cluster_spacing_m", 12.0), ("drive.cluster_rate", 2.0),
            ("drive.sensor_range_m", 40.0), ("drive.sensor_half_width_m", 20.0))],
        (["simulate"], "sim.sigma_noise", math.nan),
        (["simulate"], "seed", -1),
        (["infer", "--mode", "icp"], "seed", -1),
        (["simulate", "--seed", "-1"], "seed", 0),
        (["infer", "--mode", "icp", "--seed", "-1"], "seed", 0),
        (["simulate"], "ekf.sigma_accel", -1),
        (["simulate"], "ekf.sigma_yaw_accel", 0),
        (["train"], "train.lr", 1e-2),
    ]

    # an id keeps its first 48 characters: 10**400 has 401 digits; a string
    # value is quoted, so "inf" and math.inf get different ids
    @pytest.mark.parametrize("command,key,value", BAD_VALUES,
                             ids=[f"{c[0]}-{k}-{repr(v) if isinstance(v, str) else v}"[:48] for c, k, v in BAD_VALUES])
    def test_bad_value_is_config_error_before_any_artifact(self, tmp_path, capsys, command, key, value):
        out = tmp_path / "o"
        cfg = self._write_cfg(tmp_path, _with(FILTER_CFG, key, value))
        assert cli.main([*command, "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith(f"error:config: {key.split('.')[0]}:")
        leaf = key.rpartition(".")[2]
        if key.startswith(("gps_noise.", "train.sigma", "ekf.sigma")) or leaf in COUNT_KEYS:  # bounds and counts name it
            assert re.search(rf"\b{leaf}\b", err[0])
        assert not out.exists() or not any(out.iterdir())

    def test_train_draws_the_map_backed_pool(self, tmp_path, capsys):
        cfg = self._write_cfg(tmp_path, _with(FILTER_CFG, "train.mix_ratio", 0.5))
        assert cli.main(["train", "--config", cfg, "--out", str(tmp_path / "train")]) == 0
        assert cli.main(["infer", "--mode", "filter", "--config", cfg, "--out", str(tmp_path / "infer")]) == 0
        for name in ("checkpoint.json", "loss_history.csv"):
            assert (tmp_path / "train" / name).read_bytes() == (tmp_path / "infer" / name).read_bytes()

    @pytest.mark.parametrize("command", [["train"], ["infer", "--mode", "gps"]])
    @pytest.mark.parametrize("net_section", [{"d_m": 16, "heads": 3, "k": 4}, {"d_m": 16, "heads": 2, "dm": 8}],
                             ids=["heads-not-dividing", "unknown-key"])
    def test_bad_net_section_is_config_error(self, tmp_path, capsys, command, net_section):
        cfg = self._write_cfg(tmp_path, dict(TINY_CFG, net=net_section))
        assert cli.main([*command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert self._last_err_line(capsys).startswith("error:config: net:")

    def test_icp_matches_run_experiment(self, tmp_path, capsys):
        out = str(tmp_path / "cli")
        cfg = self._write_cfg(tmp_path, dict(TINY_CFG, mode="icp"))
        assert cli.main(["infer", "--config", cfg, "--out", out]) == 0
        run_experiment(dict(TINY_CFG, mode="icp"), str(tmp_path / "api"))
        for name in ("report.json", "trace.csv"):
            assert (tmp_path / "cli" / name).read_bytes() == (tmp_path / "api" / name).read_bytes()

    @pytest.mark.parametrize("doc_mode,ran", [("gps", "icp"), ("icp", "gps")])
    def test_mode_flag_overrides_the_config_mode(self, tmp_path, capsys, doc_mode, ran):
        cfg = self._write_cfg(tmp_path, dict(TINY_CFG, mode=doc_mode))
        out = tmp_path / "o"
        assert cli.main(["infer", "--config", cfg, "--out", str(out), "--mode", ran]) == 0
        assert json.loads((out / "report.json").read_text(encoding="utf-8"))["mode"] == ran
        assert (out / "checkpoint.json").exists() == (ran != "icp")

    @pytest.mark.parametrize("row", ["0.0,nan,0.1,0.2", "0.0,0.1,inf,0.2", "0.0,0.1,0.2", "0.0,0.1,0.2,0.3,0.4",
                                     "0.0,0.1,x,0.2"], ids=["nan", "inf", "three-columns", "five-columns", "text"])
    def test_eval_rejects_a_bad_trace_row(self, tmp_path, capsys, row):
        trace = tmp_path / "trace.csv"
        trace.write_text(f"t,ex,ey,ephi\n0.0,0.1,0.1,0.5\n{row}\n", encoding="utf-8")
        out = tmp_path / "o"
        assert cli.main(["eval", "--trace", str(trace), "--out", str(out)]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith(f"error:io: {trace}:3:")
        assert not (out / "report.json").exists()

    def test_eval_of_a_trace_without_rows_is_io_error(self, tmp_path, capsys):
        trace = tmp_path / "trace.csv"
        trace.write_text("t,ex,ey,ephi\n", encoding="utf-8")
        assert cli.main(["eval", "--trace", str(trace), "--out", str(tmp_path / "o")]) == 1
        assert self._last_err_line(capsys).startswith("error:io:")

    def test_json_artifacts_refuse_non_finite_numbers(self, tmp_path):
        path = tmp_path / "report.json"
        for value in (math.nan, math.inf):
            with pytest.raises(ValueError):
                experiment.write_json(str(path), {"rmse_x_m": value})
        assert not list(tmp_path.iterdir())

    def test_seed_override(self, tmp_path):
        cfg = self._write_cfg(tmp_path)
        out1 = str(tmp_path / "s1")
        out2 = str(tmp_path / "s2")
        cli.main(["simulate", "--config", cfg, "--seed", "123", "--out", out1])
        cli.main(["simulate", "--config", cfg, "--seed", "123", "--out", out2])
        a = Path(out1, "scenes.jsonl").read_bytes()
        b = Path(out2, "scenes.jsonl").read_bytes()
        assert a == b
