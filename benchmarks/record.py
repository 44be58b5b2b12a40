"""Record kernel-benchmark numbers, or gate HEAD against a base commit.

Usage::

    python benchmarks/record.py                      # full suite -> BENCH_kernel.json
    python benchmarks/record.py --quick              # CI-sized suite
    python benchmarks/record.py --baseline old.json  # carry old numbers
                                                     # forward as "baseline"
    python benchmarks/record.py --quick --paired origin/main --out paired.json
                                                     # exit 1 when HEAD's kernel
                                                     # is >15% slower than the base

``BENCH_kernel.json`` is history: ``baseline`` (the numbers measured
before the kernel fast path landed, carried forward verbatim so the
perf trajectory stays visible) and ``current`` (the last recording).
``speedup`` maps each benchmark to current/baseline rate.  Absolute
rates depend on the host that recorded them, so nothing gates on them.

``--paired REF`` is the regression gate CI's ``bench-smoke`` job runs.
It checks REF out into a temporary git worktree and starts two worker
interpreters, one importing the base tree's ``src`` and one HEAD's;
both run this checkout's kernel benchmarks
(``bench_kernel.KERNEL_RATES``).  Each pair runs every benchmark once on each side,
back to back, alternating which side goes first, for :data:`PAIRS`
pairs — so a slow stretch of a shared host hits both sides of a pair
alike.  Each benchmark's figure is the median over the pairs of head
rate / base rate; the gate fails when any falls below
``1 - --tolerance``.
"""

from __future__ import annotations

import argparse
import json
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from contextlib import contextmanager
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))
REPO_ROOT = BENCH_DIR.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from bench_kernel import KERNEL_RATES, run_suite  # noqa: E402

#: The rate key reported per benchmark name.
RATE_KEYS = {name: key for name, (_bench, key) in KERNEL_RATES.items()}
RATE_KEYS["parity_throughput"] = "mb_per_s"

#: Base/HEAD pairs the gate runs: enough for a steady median on a
#: shared host at about 7 s of quick-sized benchmarks.
PAIRS = 21

#: One side of the paired gate: runs this checkout's kernel benchmarks
#: against the ``repro`` package under ``argv[1]``, one per name read
#: from stdin, answering each with its rate.
_WORKER = """
import json, os, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import repro, bench_kernel
if not os.path.realpath(repro.__file__).startswith(
        os.path.realpath(sys.argv[1])):
    sys.exit(f"imported {repro.__file__}, not the tree under test")
quick = sys.argv[3] == "quick"
for line in sys.stdin:
    bench, key = bench_kernel.KERNEL_RATES[line.strip()]
    print(json.dumps(bench(quick)[key]), flush=True)
"""


def _rates(results: dict) -> dict:
    out = {}
    for name, key in RATE_KEYS.items():
        if name in results:
            out[name] = results[name][key]
    return out


def measure(quick: bool, experiments: bool = True) -> dict:
    results = run_suite(quick=quick, experiments=experiments)
    return {
        "quick": quick,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "results": results,
    }


@contextmanager
def base_worktree(ref: str):
    """A temporary git worktree of ``ref``; yields its root."""
    tmp = Path(tempfile.mkdtemp(prefix="bench-base-"))
    root = tmp / "base"
    subprocess.run(["git", "-C", str(REPO_ROOT), "worktree", "add",
                    "--detach", str(root), ref],
                   check=True, capture_output=True, text=True)
    try:
        yield root
    finally:
        subprocess.run(["git", "-C", str(REPO_ROOT), "worktree", "remove",
                        "--force", str(root)],
                       check=False, capture_output=True)
        shutil.rmtree(tmp, ignore_errors=True)


class _Worker:
    """A benchmark interpreter bound to one tree's ``src``."""

    def __init__(self, src: Path, quick: bool):
        self.proc = subprocess.Popen(
            [sys.executable, "-c", _WORKER, str(src), str(BENCH_DIR),
             "quick" if quick else "full"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def rate(self, name: str) -> float:
        self.proc.stdin.write(name + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"benchmark worker died running {name}")
        return json.loads(line)

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()


def paired(ref: str, quick: bool, tolerance: float) -> dict:
    """Interleaved base/HEAD kernel rates and the gate's verdict."""
    names = list(KERNEL_RATES)
    rates: dict = {"base": {name: [] for name in names},
                   "head": {name: [] for name in names}}
    with base_worktree(ref) as base_root:
        workers = {"base": _Worker(base_root / "src", quick),
                   "head": _Worker(REPO_ROOT / "src", quick)}
        try:
            for worker in workers.values():  # warm-up, discarded
                for name in names:
                    worker.rate(name)
            for index in range(PAIRS):
                order = ("base", "head") if index % 2 == 0 \
                    else ("head", "base")
                for name in names:
                    for side in order:
                        rates[side][name].append(workers[side].rate(name))
        finally:
            for worker in workers.values():
                worker.close()
    ratios = {name: statistics.median(
                  head / base for head, base in zip(rates["head"][name],
                                                    rates["base"][name]))
              for name in names}
    floor = 1.0 - tolerance
    return {"base": ref, "pairs": PAIRS, "quick": quick,
            "tolerance": tolerance, "rates": rates, "ratio": ratios,
            "ok": all(ratio >= floor for ratio in ratios.values())}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="CI-sized workloads (~seconds, not minutes)")
    parser.add_argument("--no-experiments", action="store_true",
                        help="skip the full-experiment wall-clock timings")
    parser.add_argument("--out", default=None,
                        help="output path (default: repo BENCH_kernel.json "
                             "when recording; none for --paired)")
    parser.add_argument("--baseline", default=None,
                        help="JSON file whose measurements become the "
                             "'baseline' section of the output")
    parser.add_argument("--paired", default=None, metavar="REF",
                        help="gate HEAD against git ref REF instead of "
                             "recording")
    parser.add_argument("--tolerance", type=float, default=0.15,
                        help="allowed fractional slowdown of any kernel "
                             "benchmark's median HEAD/base rate ratio for "
                             "--paired (default 0.15)")
    args = parser.parse_args(argv)

    if args.paired:
        result = paired(args.paired, args.quick, args.tolerance)
        if args.out:
            Path(args.out).write_text(
                json.dumps(result, indent=2, sort_keys=True) + "\n")
        floor = 1.0 - args.tolerance
        for name, ratio in result["ratio"].items():
            status = "ok" if ratio >= floor else "REGRESSION"
            print(f"  {name:<18} : HEAD/base {ratio:.3f} "
                  f"(floor {floor:.2f}): {status}")
        return 0 if result["ok"] else 1

    current = measure(args.quick, experiments=not args.no_experiments)
    document = {"schema": 1, "current": current}

    if args.baseline:
        baseline = json.loads(Path(args.baseline).read_text())
        # Accept either a bare measurement or a prior document.
        if "current" in baseline and "results" in baseline.get("current", {}):
            document["baseline"] = baseline["current"]
        elif "baseline" in baseline:
            document["baseline"] = baseline["baseline"]
        else:
            document["baseline"] = baseline
        base_rates = _rates(document["baseline"]["results"])
        cur_rates = _rates(current["results"])
        document["speedup"] = {
            name: round(cur_rates[name] / base_rates[name], 3)
            for name in cur_rates if base_rates.get(name)
        }
        for exp in ("fig5_quick_wallclock", "fig8_quick_wallclock"):
            base_exp = document["baseline"]["results"].get(exp)
            cur_exp = current["results"].get(exp)
            if base_exp and cur_exp:
                document["speedup"][exp] = round(
                    base_exp["seconds"] / cur_exp["seconds"], 3)

    out_path = Path(args.out or REPO_ROOT / "BENCH_kernel.json")
    out_path.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    print(f"wrote {out_path}")
    for name, rate in _rates(current["results"]).items():
        line = f"  {name:<18} : {rate:14,.1f}"
        if "speedup" in document and name in document["speedup"]:
            line += f"   ({document['speedup'][name]:.2f}x vs baseline)"
        print(line)
    exp = current["results"].get("fig5_quick_wallclock")
    if exp:
        line = f"  {'fig5 quick':<18} : {exp['seconds']:12.2f} s"
        if "speedup" in document and "fig5_quick_wallclock" in document["speedup"]:
            line += (f"   ({document['speedup']['fig5_quick_wallclock']:.2f}x "
                     "vs baseline)")
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
