"""attnloc benchmark: one workload per process, end-to-end or per-layer figures.

    python3 perfbench/run.py --workload {train-d64,gps-d256,filter-d64} \
        --seed N --seconds S --trace {0,1}

The workload's inputs are generated from --seed; attnloc only receives
them. Set-up runs SETUPS times (the median is setup_s), then as many whole
rounds of the workload as fit in S seconds (at least one), and the outputs
are checked. Every timing is reported at the reference speed of
speed.SpeedProbe, whose kernel runs between operations; the raw wall-clock
figures go in the record line. With --trace 0 the last stdout line holds
the end-to-end metrics.
With --trace 1 every set-up and round runs once untraced and once traced,
in turn, within the same S seconds; the last line holds the per-layer
metrics of the traced side plus the tracing overhead on each end-to-end
timing. The line before it is a JSON record of the environment, sample
counts and absent layers. A failed check prints the result with
"correct": false and exits 1.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import resource
import statistics
import sys
import time

import env

SETUPS = 5
MS, S = 1e6, 1e9  # ns per unit


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description="attnloc benchmark")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def measure(workload, seed: int, seconds: float, tracer=None):
    """SETUPS timed set-ups, then as many whole rounds as fit in `seconds` (at least one).

    With a tracer, every set-up and round runs twice in turn, untraced and
    traced, so both sides see the same machine conditions. Speed probes
    bracket each set-up; the rounds take theirs between operations. Returns
    the states and Measured of each side, untraced first.
    """
    from speed import SETUP_PROBES, SpeedProbe
    from workloads import Measured

    sides = [contextlib.nullcontext()] + ([tracer] if tracer is not None else [])
    wraps = [None] + ([lambda fn: tracer.wrap("bench.speed_probe", fn)] if tracer is not None else [])
    measured = [Measured(SpeedProbe(workload.width, wrap)) for wrap in wraps]
    states = [None for _ in sides]
    for _ in range(SETUPS):
        for i, (side, m) in enumerate(zip(sides, measured)):
            states[i] = None
            gc.collect()
            with side:
                for _ in range(SETUP_PROBES):
                    m.probe.probe()
                t0 = time.perf_counter()
                states[i] = workload.setup(seed)
                m.setups.append((t0, time.perf_counter() - t0))
                for _ in range(SETUP_PROBES):
                    m.probe.probe()
    start = time.perf_counter()
    rounds = 0
    while True:
        for side, state, m in zip(sides, states, measured):
            with side:
                workload.run_round(state, m)
            m.rounds += 1
        rounds += 1
        # rounds are the same work, so stop when one more would overrun
        if (time.perf_counter() - start) * (rounds + 1) / rounds > seconds:
            break
    return states, measured


def end_to_end(m, adjust=True) -> dict:
    """The end-to-end figures; adjust=False gives the raw wall-clock ones."""
    from spans import percentile

    at = m.probe.adjust if adjust else (lambda _start, seconds: seconds)
    lat_ms = [at(t, d) * 1e3 for t, d in m.latencies]
    return {
        "setup_s": (statistics.median(at(t, d) for t, d in m.setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "throughput_per_s": (m.work_units / sum(at(t, d) for t, d in m.work), "1/s"),
        "latency_p50_ms": (percentile(lat_ms, 50), "ms"),
        "latency_p95_ms": (percentile(lat_ms, 95), "ms"),
        "pos_rmse_m": (m.rmse[0], "m"),
    }


class Layers:
    """Per-layer figures from a traced run; a layer never called reads 0."""

    def __init__(self, stats, counters, m):
        self.stats, self.counters, self.m = stats, counters, m

    def per_call(self, layer: str, unit_ns: float, self_time: bool = False) -> float:
        s = self.stats.get(layer)
        if s is None:
            return 0.0
        return (s.self_ns if self_time else s.total_ns) / s.calls / unit_ns

    def self_per_op(self, layer: str, unit_ns: float) -> float:
        s, n = self.stats.get(layer), self.m.per_layer_ops.get(layer)
        return s.self_ns / n / unit_ns if s is not None and n else 0.0

    def calls_per_round(self, layer: str) -> float:
        s = self.stats.get(layer)
        return s.calls / self.m.per_layer_ops["rounds"] if s is not None else 0.0

    def count_per_call(self, layer: str) -> float:
        s = self.stats.get(layer)
        return self.counters.get(layer, 0) / s.calls if s is not None else 0.0

    def tensors_per_op(self, root: str) -> float:
        s = self.stats.get(root)
        if s is None:
            return 0.0
        return s.tensors / self.m.per_layer_ops.get(root, s.calls)


# name -> (unit, figure); times are per call unless the name says self/op
PER_LAYER = {
    "attention_net.forward.ms": ("ms", lambda L, w: L.per_call("attention_net.forward", MS)),
    "attention_net.knn_group.ms": ("ms", lambda L, w: L.per_call("attention_net.knn_group", MS)),
    "attention_net.local_attention.self_ms":
        ("ms", lambda L, w: L.per_call("attention_net.local_attention", MS, self_time=True)),
    "attention_net.global_block.ms": ("ms", lambda L, w: L.per_call("attention_net.mha_block", MS)),
    "attention_net.pool_head.self_ms": ("ms", lambda L, w: L.per_call("attention_net.forward", MS, self_time=True)),
    "autodiff.backward.ms": ("ms", lambda L, w: L.per_call("autodiff.backward", MS)),
    "autodiff.tensors_per_op": ("count", lambda L, w: L.tensors_per_op(w.op_root)),
    "training.sample_prep.ms": ("ms", lambda L, w: L.per_call("training.make_training_sample", MS)),
    "training.loss.ms": ("ms", lambda L, w: L.per_call("training.multitask_loss_graph", MS)),
    "training.adam_step.ms": ("ms", lambda L, w: L.per_call("training.adam_step", MS)),
    "training.adam_steps": ("count", lambda L, w: L.calls_per_round("training.adam_step")),
    "training.loop.self_ms": ("ms", lambda L, w: L.self_per_op("training.train", MS)),
    "map_store.query_fov.ms": ("ms", lambda L, w: L.per_call("map_store.query_fov", MS)),
    "map_store.query_fov.landmarks": ("count", lambda L, w: L.count_per_call("map_store.query_fov")),
    "map_store.index_build.ms": ("ms", lambda L, w: L.per_call("map_store.index_build", MS)),
    "inference.ekf_predict.ms": ("ms", lambda L, w: L.per_call("inference.ekf_predict", MS)),
    "inference.ekf_update.ms": ("ms", lambda L, w: L.per_call("inference.ekf_update", MS)),
    "inference.filter_step.self_ms":
        ("ms", lambda L, w: L.per_call("inference.filter_step", MS, self_time=True)),
    "inference.gps_inference.self_ms":
        ("ms", lambda L, w: L.per_call("inference.gps_inference", MS, self_time=True)),
    "experiment.evaluate_gps.self_ms": ("ms", lambda L, w: L.self_per_op("experiment.evaluate_gps", MS)),
    "simulator.generate_scene.ms": ("ms", lambda L, w: L.per_call("simulator.generate_scene", MS)),
    "experiment.build_drive_map.s": ("s", lambda L, w: L.per_call("experiment.build_drive_map", S)),
    "experiment.drive_frames.s": ("s", lambda L, w: L.per_call("experiment.drive_frames", S)),
    "dataset_io.load_checkpoint.s": ("s", lambda L, w: L.per_call("dataset_io.load_checkpoint", S)),
    "dataset_io.checkpoint_bytes": ("bytes", lambda L, w: L.count_per_call("dataset_io.load_checkpoint")),
}

# end-to-end timings whose tracing overhead the traced run reports; True = higher is better
OVERHEAD_OF = {"setup_s": False, "throughput_per_s": True, "latency_p50_ms": False, "latency_p95_ms": False}


def overhead_pct(untraced: float, traced: float, higher_better: bool) -> float:
    """How much worse the traced figure is, in percent of the untraced one."""
    return 100.0 * ((untraced / traced if higher_better else traced / untraced) - 1.0)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        print("error: --seed must be >= 0 and --seconds > 0", file=sys.stderr)
        return 2
    try:
        env.import_attnloc()
    except (env.MissingProgram, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import workloads
    from spans import Tracer

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    detail = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "latency_of": workload.latency_what, "throughput_of": workload.throughput_what}

    def checked(state, m) -> bool:
        try:
            workloads.require(all(r == m.rmse[0] for r in m.rmse),
                              f"rounds on identical inputs gave different RMSE: {m.rmse}")
            workload.check(state, m)
        except workloads.CheckFailed as exc:
            print(f"check failed: {exc}", file=sys.stderr)
            return False
        return True

    tracer = Tracer(workloads.TARGETS) if args.trace else None
    try:
        states, measured = measure(workload, args.seed, args.seconds, tracer)
    except workloads.CheckFailed as exc:  # inputs refused at set-up
        print(f"check failed: {exc}", file=sys.stderr)
        return 1
    correct = all([checked(state, m) for state, m in zip(states, measured)])
    m = measured[-1]
    metrics = end_to_end(m)
    if tracer is not None:
        untraced = end_to_end(measured[0])
        layers = Layers(tracer.stats(), tracer.counters, m)
        per_layer = {name: (fig(layers, workload), unit) for name, (unit, fig) in PER_LAYER.items()}
        for name, higher_better in OVERHEAD_OF.items():
            per_layer[f"trace_overhead.{name}.pct"] = (
                overhead_pct(untraced[name][0], metrics[name][0], higher_better), "%")
        detail.update(absent_layers=tracer.absent, spans=len(tracer.spans),
                      untraced={k: v for k, (v, _) in untraced.items()},
                      traced={k: v for k, (v, _) in metrics.items()})
        metrics = per_layer
    detail.update(rounds=m.rounds, latency_samples=len(m.latencies), work_units=m.work_units,
                  rmse_per_round=m.rmse, setup_times_s=[d for _, d in m.setups],
                  wall_clock={k: v for k, (v, _) in end_to_end(m, adjust=False).items()},
                  slowdown=m.probe.slowdown(), environment=env.environment())
    print(json.dumps(detail))
    print(json.dumps({
        "correct": correct,
        "attempted": sum(x.ops for x in measured),
        "failed": 0,  # an operation that raises ends the run instead
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
