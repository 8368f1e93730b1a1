#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload far_sdp --workload verify_cli \
        --seeds 1-10 [--seconds S] [--out FILE]

Runs `run.py --trace 0` once per seed and workload, one run at a time,
and prints for each metric the median and the interquartile range as a
share of the median (quartiles as statistics.quantiles(values, n=4)
gives them), beside a third of the metric's bound from BENCHMARK.json,
then the same for the timings read by wall clock, without the probe
adjustment.
--out writes every value, each run's environment and the summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent


def seed_list(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def spread(values: list) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--out", default=None)
    args = ap.parse_args()

    report = {"seconds": args.seconds, "workloads": {}}
    for name in args.workload:
        runs = []
        for seed in seed_list(args.seeds):
            cmd = [sys.executable, str(BENCH / "run.py"), "--workload", name,
                   "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"]
            proc = subprocess.run(cmd, capture_output=True, text=True, cwd=BENCH.parent)
            if proc.returncode != 0:
                print(proc.stdout + proc.stderr, file=sys.stderr)
                return 1
            last = json.loads(proc.stdout.strip().splitlines()[-1])
            record = json.loads((BENCH / "_out" / f"{name}-seed{seed}-trace0.json").read_text())
            runs.append({"seed": seed, "environment": record["environment"],
                         "wall_clock": record["wall_clock"], **last})
            vals = {k: round(v["value"], 6) for k, v in last["metrics"].items()}
            print(f"{name} seed {seed}: correct={last['correct']} "
                  f"failed={last['failed']}/{last['attempted']} {vals}", flush=True)
        summary = {}
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            summary[m["name"]] = {
                "median": statistics.median(values),
                "iqr_share": spread(values),
                "bound": m["bound"],
            }
            print(f"  {m['name']:12s} median {statistics.median(values):12.6g}  "
                  f"spread {spread(values):.4f}  (bound/3 {m['bound'] / 3:.4f})")
        # the same runs' timings without the probe adjustment, for comparison
        for k in runs[0]["wall_clock"]:
            values = [r["wall_clock"][k] for r in runs]
            summary[f"wall_clock.{k}"] = {
                "median": statistics.median(values), "iqr_share": spread(values),
            }
            print(f"  wall clock {k:12s} median {statistics.median(values):12.6g}  "
                  f"spread {spread(values):.4f}")
        report["workloads"][name] = {"summary": summary, "runs": runs}
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
