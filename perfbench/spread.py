"""Run-to-run spread of the end-to-end metrics over several seeds.

Usage (from the root of a checkout)::

    python3 perfbench/spread.py --workload lfs-mixed --seeds 0-9

Runs ``perfbench/run.py`` once per seed, one run at a time, and prints
for every metric the median, the quartiles (``statistics.quantiles``
with ``n=4``) and the interquartile spread as a share of the median,
next to the metric's bound from ``BENCHMARK.json``.  ``--json`` writes
the same summary as JSON.  Comparing two commits means running this on
both checkouts, alternating between them, with the same seeds.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    completed = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, check=True, capture_output=True, text=True)
    return json.loads(completed.stdout.strip().splitlines()[-1])


def summarize(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": q2, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / q2 if q2 else float("nan"),
            "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", default="0-9")
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json", help="write the summary here")
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    summary = {}
    for workload in args.workload:
        runs = [run_once(workload, seed, seconds, args.trace)
                for seed in parse_seeds(args.seeds)]
        metrics = {}
        for name in runs[0]["metrics"]:
            metrics[name] = summarize(
                [run["metrics"][name]["value"] for run in runs])
        summary[workload] = {
            "correct": all(run["correct"] for run in runs),
            "attempted": sum(run["attempted"] for run in runs),
            "failed": sum(run["failed"] for run in runs),
            "metrics": metrics,
        }
        print(f"{workload}: correct={summary[workload]['correct']} "
              f"failed {summary[workload]['failed']} of "
              f"{summary[workload]['attempted']}")
        for name, stats in metrics.items():
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s":
                flag = " OK" if stats["spread"] < bound / 3 else (
                    " within bound" if stats["spread"] < bound else
                    " OVER BOUND")
            print(f"  {name:<24} median {stats['median']:<12.6g} "
                  f"spread {stats['spread']:7.2%}"
                  + (f"  bound {bound:.0%}{flag}" if bound else ""))
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(summary, handle, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
