"""Record, or show, the reference simulated results of each seed.

Usage (from the root of a checkout)::

    python3 perfbench/record.py                   # rewrite reference.json
    python3 perfbench/record.py lfs-mixed         # re-record one workload
    python3 perfbench/record.py --show lfs-mixed --seed 3

A run compares its simulated results with the reference recorded for
its workload and seed.  The reference holds two SHA-256 digests per
seed: ``sim`` over the results every run computes (``sim_mb_s``, the
simulated end times and the ``hw.*``, ``raid.*``, ``lfs.*``, ``ffs.*``
and ``faults.*`` counts) and ``spans`` over the results only the traced
run computes (``simtime.*`` and the RAID read and write counts).
Host-side counts (``<pkg>.calls``, ``sim.events``) are not pinned: a
legitimate speed-up may change them.

A change that means to alter simulated behaviour re-records the
reference, and says so; a change that only speeds the simulator up
must leave it as it is.  ``--show`` prints the full results for one
seed, to diff two commits when a digest differs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from harness import digest, split  # noqa: E402
from traced import traced_round  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

REFERENCE = os.path.join(HERE, "reference.json")
#: Seeds with a recorded reference, and the held-out seed on which
#: later claims must also hold (see baseline.json).
SEEDS = range(100)
HELD_OUT_SEED = 7919


def record(workloads) -> dict:
    table = {}
    for name in workloads:
        table[name] = {}
        for seed in list(SEEDS) + [HELD_OUT_SEED]:
            _, results = traced_round(WORKLOADS[name], seed)
            sim, spans = split(results)
            table[name][str(seed)] = {"sim": digest(sim),
                                      "spans": digest(spans)}
        print(f"{name}: {len(table[name])} seeds", file=sys.stderr)
    return table


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("workload", nargs="*",
                        help="re-record only these (default: all)")
    parser.add_argument("--show", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    unknown = sorted(set(args.workload) - set(WORKLOADS))
    if unknown:
        parser.error(f"unknown workload(s) {', '.join(unknown)}; choose "
                     f"from {', '.join(WORKLOADS)}")
    if args.show:
        _, results = traced_round(WORKLOADS[args.show], args.seed)
        print(json.dumps(results, indent=1, sort_keys=True))
        return 0
    table = {}
    if args.workload and os.path.exists(REFERENCE):
        with open(REFERENCE) as handle:
            table = json.load(handle)
    table.update(record(args.workload or WORKLOADS))
    with open(REFERENCE, "w") as handle:
        json.dump(table, handle, indent=0, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
