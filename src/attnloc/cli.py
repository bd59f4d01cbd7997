"""Command-line entry points for batch experiments.

Subcommands: simulate, train, infer, eval. Every artifact is written
under --out. On failure the process exits nonzero after printing one
machine-parseable line `error:<category>: <message>` to stderr.

BLAS runs one thread unless the environment chose a count: at these widths
more threads only add CPU and keep training's helper off (training._helper_pays).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

from . import experiment  # after the defaults: it loads numpy
from .dataset_io import load_checkpoint, load_scenes, save_scenes
from .experiment import ConfigError, StageError, run_experiment
from .metrics import EvalReport


def _load_config(path: str, **overrides) -> dict:
    """The config document at path, with each override that is not None set at the top level."""
    try:
        with open(path, encoding="utf-8") as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    cfg.update((key, value) for key, value in overrides.items() if value is not None)
    return cfg


def _cmd_simulate(args) -> int:
    plan = experiment.parse_config(_load_config(args.config, seed=args.seed))
    os.makedirs(args.out, exist_ok=True)
    scenes = experiment.training_scenes(plan)
    save_scenes(scenes, os.path.join(args.out, "scenes.jsonl"))
    print(f"wrote {len(scenes)} scenes to {args.out}/scenes.jsonl")
    return 0


def _cmd_train(args) -> int:
    plan = experiment.parse_config(_load_config(args.config, seed=args.seed))
    scenes = load_scenes(args.scenes) if args.scenes else experiment.training_scenes(plan)
    pool, map_pool = experiment.training_pools(plan, scenes)
    if not pool:
        raise ConfigError("training scenes carry no landmarks")

    def progress(epoch, stats):
        print(f"epoch {epoch}: loss {stats.loss:.4f} (tran {stats.loss_tran:.4f}, rot {stats.loss_rot:.6f})")

    os.makedirs(args.out, exist_ok=True)
    params, _ = experiment.train_stage(plan, args.out, pool, map_pool, progress=progress if args.verbose else None)
    print(f"trained {params.param_count()} parameters; checkpoint at {args.out}/checkpoint.json")
    return 0


def _cmd_infer(args) -> int:
    """Run the experiment in the config's mode, or in --mode when it is given."""
    cfg = _load_config(args.config, seed=args.seed, mode=args.mode)
    checkpoint = load_checkpoint(args.checkpoint) if args.checkpoint else None
    report = run_experiment(cfg, args.out, checkpoint=checkpoint)
    print(json.dumps(report, sort_keys=True))
    return 0


def _cmd_eval(args) -> int:
    os.makedirs(args.out, exist_ok=True)
    rows = experiment.read_trace(args.trace)
    report = EvalReport.from_error_rows(rows[:, 1:])
    doc = report.metrics_dict()
    experiment.write_json(os.path.join(args.out, "report.json"), doc)
    print(json.dumps(doc, sort_keys=True))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="attnloc", description="Landmark localization experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="experiment config JSON")
        p.add_argument("--seed", type=int, default=None, help="override config seed")
        p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("simulate", help="generate synthetic scenes")
    common(p)
    p.set_defaults(fn=_cmd_simulate)

    p = sub.add_parser("train", help="train the offset regressor")
    common(p)
    p.add_argument("--scenes", default=None, help="existing scenes.jsonl to train on")
    p.add_argument("--verbose", action="store_true", help="print per-epoch loss")
    p.set_defaults(fn=_cmd_train)

    p = sub.add_parser("infer", help="run an inference experiment")
    common(p)
    p.add_argument("--mode", choices=experiment.MODES, default=None, help="override config mode")
    p.add_argument("--checkpoint", default=None, help="reuse a trained checkpoint")
    p.set_defaults(fn=_cmd_infer)

    p = sub.add_parser("eval", help="recompute a report from a trace CSV")
    p.add_argument("--trace", required=True, help="trace.csv from a previous run")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(fn=_cmd_eval)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"error:config: {exc}", file=sys.stderr)
        return 2
    except StageError as exc:
        print(f"error:{exc.stage}: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError) as exc:
        print(f"error:io: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
