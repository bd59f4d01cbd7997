"""Retrain the desk checkpoint that the filter-d64 workload loads.

The model is the acceptance suite's desk model: d_m=64, 4 heads, k=8,
seed 0, trained on 2000 synthetic mixture scenes for 30 epochs (batch 16,
lr 1e-3, +-1 m / +-4 deg offsets). It takes about five minutes on one core.

    python3 perfbench/train_checkpoint.py [--out perfbench/desk_checkpoint.json]

The benchmark checks the committed file against CHECKPOINT_SHA256 in
workloads.py; a retrained file that hashes differently must replace both.
"""

from __future__ import annotations

import argparse
import hashlib
import math
import sys
import time

import env

DESK_CFG = {
    "seed": 0,
    "net": {"d_m": 64, "heads": 4, "k": 8},
    "sim": {"distribution": "mixture"},
    "train": {"epochs": 30, "batch_size": 16, "learning_rate": 1e-3},
    "gps_noise": {"sigma_pos": 1.0, "sigma_phi_deg": 4.0},
}
N_SCENES = 2000


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default=str(env.BENCH_DIR / "desk_checkpoint.json"))
    args = ap.parse_args(argv)
    env.import_attnloc()
    from attnloc import attention_net as net
    from attnloc import experiment, training
    from attnloc.dataset_io import save_checkpoint

    t0 = time.perf_counter()
    scenes = experiment.generate_scene_set(experiment.sim_config(DESK_CFG), 1.0, math.radians(4.0),
                                           N_SCENES, seed=DESK_CFG["seed"])
    params = net.init_params(experiment.net_config(DESK_CFG))
    training.train(params, experiment.train_config(DESK_CFG),
                   [(sc.measurements, sc.landmarks) for sc in scenes],
                   progress=lambda e, s: print(f"epoch {e}: loss {s.loss:.6f}", file=sys.stderr))
    save_checkpoint(params, args.out)
    with open(args.out, "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    print(f"{args.out}: sha256 {digest}, trained in {time.perf_counter() - t0:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
