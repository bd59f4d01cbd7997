"""Repeat the benchmark over seeds and report each metric's median, quartiles and spread.

    python3 perfbench/spread.py --workload gps-d256 --seeds 1-10 [--seconds 20] [--trace 0]
        [--out runs.json]

Runs `perfbench/run.py` once per seed, one run at a time, and prints for
every metric the median, the quartiles (statistics.quantiles, n=4) and the
spread: (Q3 - Q1) / median. With --trace 0 it does the same for the raw
wall-clock figures of the record line, for comparison with the figures at
reference speed. --out keeps every run's result line.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def summarize(results: list[dict], key: str = "metrics") -> dict:
    out = {}
    for name in results[0][key]:
        values = [r[key][name]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
        out[name] = {"median": med, "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / med if med else float("nan"),
                     "unit": results[0][key][name]["unit"]}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", default="20")
    ap.add_argument("--trace", default="0")
    ap.add_argument("--out")
    args = ap.parse_args(argv)
    results = []
    for seed in seed_list(args.seeds):
        proc = subprocess.run([sys.executable, str(RUN), "--workload", args.workload, "--seed", str(seed),
                               "--seconds", args.seconds, "--trace", args.trace],
                              capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return 1
        record, line = proc.stdout.strip().splitlines()[-2:]
        result = json.loads(line)
        result["seed"] = seed
        wall = json.loads(record).get("wall_clock")
        if wall is not None:
            result["wall_clock"] = {k: {"value": v, "unit": result["metrics"][k]["unit"]} for k, v in wall.items()}
        results.append(result)
        print(f"seed {seed}: attempted {result['attempted']} failed {result['failed']} "
              + " ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()), flush=True)
    summary = summarize(results)
    for name, s in summary.items():
        print(f"{name:40s} median {s['median']:.5g} {s['unit']}  q1 {s['q1']:.5g}  q3 {s['q3']:.5g}"
              f"  spread {100 * s['spread']:.2f}%")
    if "wall_clock" in results[0]:
        summary = {"reference_speed": summary, "wall_clock": summarize(results, "wall_clock")}
        for name, s in summary["wall_clock"].items():
            print(f"wall clock {name:29s} median {s['median']:.5g} {s['unit']}  q1 {s['q1']:.5g}"
                  f"  q3 {s['q3']:.5g}  spread {100 * s['spread']:.2f}%")
    if args.out:
        Path(args.out).write_text(json.dumps({"workload": args.workload, "runs": results, "summary": summary},
                                             indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
