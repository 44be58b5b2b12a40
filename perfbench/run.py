"""Run one benchmark workload and print its metrics.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload array-random --seed 1 \\
        --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off:
host seconds of the timed phase, host milliseconds per client
operation (median and 99th percentile), simulated client MB per
simulated second, peak resident memory and set-up time.  ``--trace 1``
runs the same rounds under cProfile, under ``repro.obs`` span tracing
and under a heap-push counter, and reports the per-layer metrics.

The run replays the seed's rounds for ``--seconds``.  ``host_s`` and
the per-operation times keep each slice's and each operation's
fastest quarter of replays (``harness.best_of``); ``setup_s`` is the
median over the rounds.  All four are then scaled to the reference
host's speed by a calibration chunk timed between rounds
(``harness.host_scale``); the unscaled figures are printed above the
result.

Every line but the last is for people.  The last line is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

* ``attempted`` counts the client operations plus the end-of-round
  checks (array read-back, scrub) of the seed's round; ``failed``
  counts those that raised or returned bytes differing from the
  shadow model.  Every round replays them and must give the same
  counts, so they are reported once per run.  ``failed / attempted``
  is the error rate.
* ``correct`` is false when the measurement itself cannot be trusted:
  rounds of one seed disagree on their simulated results or their
  operation counts, the results differ from the reference recorded
  for the seed (``perfbench/reference.json``), or the profile does not
  account for the profiled host time.  A reference mismatch also counts every
  operation of the run as failed.

The program under test is imported from ``src/`` next to this
directory; without it the benchmark exits with status 2.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
REFERENCE = os.path.join(HERE, "reference.json")

#: Modules a user of the workloads imports; their import is set-up.
IMPORTS = ("repro.server", "repro.raid", "repro.lfs", "repro.ffs",
           "repro.faults", "repro.obs", "repro.analysis.scrub_raid")


def measure_import_s() -> float:
    """Wall time of a fresh interpreter importing the stack."""
    env = dict(os.environ, PYTHONPATH=SRC)
    code = "import " + ", ".join(IMPORTS)
    start = perf_counter()
    subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                   check=True)
    return perf_counter() - start


def percentile(samples: list[float], fraction: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(fraction * len(ordered)))
    return ordered[rank - 1]


def load_reference(workload: str, seed: int):
    try:
        with open(REFERENCE) as handle:
            table = json.load(handle)
    except FileNotFoundError:
        return None
    return table.get(workload, {}).get(str(seed))


class Run:
    """Rounds of one workload and seed, and the checks across them."""

    def __init__(self, workload: str, cls, seed: int):
        self.name = workload
        self.cls = cls
        self.seed = seed
        self.rounds = []
        self.problems: list[str] = []

    def add(self, result, results: dict) -> None:
        """Record a round; ``results`` are its simulated results."""
        self.rounds.append(result)
        if len(self.rounds) == 1:
            self.first = results
            return
        differ = sorted(key for key in self.first
                        if key in results and results[key] != self.first[key])
        first, clock = self.rounds[0].clock, result.clock
        for name in ("attempted", "failed"):
            if getattr(clock, name) != getattr(first, name):
                differ.append(f"ops {name}")
        if differ:
            self.problems.append(
                f"round {len(self.rounds)} disagrees with round 1 "
                f"on {', '.join(differ)}")

    # Every round replays the seed's operations, and add() checks that
    # each gives the same counts, so the run reports them once: they
    # depend on the seed alone, not on how many rounds the host managed.
    @property
    def attempted(self) -> int:
        return self.rounds[0].clock.attempted

    @property
    def failed(self) -> int:
        return self.rounds[0].clock.failed

    def check_reference(self, results: dict) -> bool:
        """Compare with the reference digests recorded for the seed."""
        from harness import digest, split

        reference = load_reference(self.name, self.seed)
        if reference is None:
            print(f"  no reference recorded for seed {self.seed}; "
                  "only round-to-round agreement is checked")
            return True
        sim, spans = split(results)
        mismatched = [name for name, part in (("sim", sim), ("spans", spans))
                      if part and digest(part) != reference[name]]
        if mismatched:
            self.problems.append(
                "simulated results differ from the reference ("
                + ", ".join(mismatched) + "); see perfbench/record.py "
                "--show")
        return not mismatched

    def errors(self) -> list[str]:
        return [e for r in self.rounds for e in r.clock.errors][:3]


def run_plain(run: Run, seconds: float) -> tuple[dict, bool]:
    """End-to-end metrics: {name: (value, unit)}, and the reference check."""
    from harness import (HARD_STOP_S, MIN_ROUNDS, MIN_SAMPLES, best_of,
                         calibrate, host_scale, op_samples, run_round)

    imports, calibration = [], []
    start = perf_counter()
    while True:
        began = perf_counter()
        result = run_round(run.cls, run.seed)
        run.add(result, result.sim)
        # One fresh-interpreter import per round spreads the set-up
        # samples over the whole run.
        imports.append(measure_import_s())
        calibrate(calibration)
        now = perf_counter()
        enough = (len(run.rounds) >= MIN_ROUNDS
                  and op_samples(len(result.clock.samples),
                                 len(run.rounds)) >= MIN_SAMPLES)
        # Start no round that would end after the time budget.
        if (enough and now + (now - began) - start > seconds) \
                or now - start >= HARD_STOP_S:
            break
    reference_ok = run.check_reference(run.first)
    best = best_of(run.rounds)
    if best is None:
        run.problems.append("rounds replayed different numbers of "
                            "operations")
        best = (statistics.median(r.host_s for r in run.rounds),
                [s for r in run.rounds for s in r.clock.samples])
    host_s, samples = best
    import_s = statistics.median(imports)
    setup_s = import_s + statistics.median(r.setup_s for r in run.rounds)
    scale = host_scale(calibration)
    metrics = {
        "host_s": (host_s * scale, "s"),
        "op_host_ms_p50": (percentile(samples, 0.50) * 1e3 * scale, "ms"),
        "op_host_ms_p99": (percentile(samples, 0.99) * 1e3 * scale, "ms"),
        "sim_mb_s": (run.first["sim_mb_s"], "MB/s"),
        "peak_rss_mb": (resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": (setup_s * scale, "s"),
    }
    print(f"{run.name} seed {run.seed}: {len(run.rounds)} rounds of "
          f"{len(result.clock.samples)} timed ops, {len(samples)} "
          f"op_host_ms samples (each op's fastest replays)")
    print(f"  on this host, unscaled: host_s {host_s:.4f} s (round median "
          f"{statistics.median(r.host_s for r in run.rounds):.4f} s), "
          f"setup_s {setup_s:.4f} s (import median of {len(imports)} "
          f"{import_s:.4f} s); host scale {scale:.4f}")
    return metrics, reference_ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"no repro package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2

    run = Run(args.workload, WORKLOADS[args.workload], args.seed)
    if args.trace:
        from traced import run_traced
        metrics, reference_ok = run_traced(run, args.seconds)
    else:
        metrics, reference_ok = run_plain(run, args.seconds)

    attempted, failed = run.attempted, run.failed
    if not reference_ok:
        failed = attempted
    for name, (value, unit) in metrics.items():
        print(f"  {name:<28} {value:>14.6g} {unit}")
    print(f"  {'error_rate':<28} {failed / attempted:>14.6g} fraction "
          f"({failed} of {attempted} ops failed)")
    for problem in run.problems:
        print(f"  PROBLEM: {problem}")
    for error in run.errors():
        print(f"  failed op: {error.strip().splitlines()[-1]}")
    correct = not run.problems
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
