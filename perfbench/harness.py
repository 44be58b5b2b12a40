"""Rounds, the op wrapper and the simulated per-layer counts.

A *round* builds one workload from its seed (set-up), runs its timed
phase, captures the simulated results and then runs the untimed
end-of-round checks.  A run repeats rounds of the same seed until its
time budget is spent.  Every round of a seed must give bit-identical
simulated results, so every round replays the same operations in the
same order.

The op wrapper cuts each round's timed phase into *slices* at every
operation completion.  Slice ``i`` is the same host work in every
round, so :func:`best_of` can take each slice's (and each operation's)
fastest time over the rounds.  A shared virtual machine runs the same
code up to 1.6 times slower for stretches of about a second; the
fastest replay of each slice is what the program costs when the host
is not in such a stretch, and that is steady from run to run.
"""

from __future__ import annotations

import gc
import hashlib
import heapq
import json
import statistics
import traceback
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from time import perf_counter

from repro.lfs.ondisk import BLOCK_SIZE
from repro.units import MB

#: Samples the percentiles need (see best_of): the 99th percentile
#: needs at least ten samples beyond it.
MIN_SAMPLES = 1000
MIN_ROUNDS = 3
#: Start no new round after this many seconds, whatever the sample
#: count, so a run ends well inside its time limit.
HARD_STOP_S = 120.0


class OpClock:
    """Times and checks every client operation of a round.

    ``op`` wraps one public call (a simulation process) and records the
    host seconds from issue to completion.  An operation fails if it
    raises or if the check that follows it (``verify``) sees the wrong
    bytes.  Host time spent inside ``checking()`` is the benchmark's own
    and is left out of every time the clock records.

    ``marks`` holds the benchmark-free host time at the start of the
    timed phase, at every operation completion and at its end; their
    differences are the round's slices.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.marks: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.check_s = 0.0
        self.errors: list[str] = []
        self._last_kind = ""
        self._last_failed = False
        #: A running profiler to pause while the benchmark checks.
        self.profiler = None

    def now(self) -> float:
        """Host seconds so far, less the benchmark's own checking."""
        return perf_counter() - self.check_s

    def mark(self) -> None:
        self.marks.append(self.now())

    @property
    def host_s(self) -> float:
        return self.marks[-1] - self.marks[0]

    @property
    def slices(self) -> list[float]:
        marks = self.marks
        return [b - a for a, b in zip(marks, marks[1:])]

    def op(self, kind: str, call):
        """Process: run ``call``; returns its value, or None if it raised."""
        self.attempted += 1
        self._last_kind = kind
        start = self.now()
        try:
            value = yield from call
        except Exception:  # counted and reported; the stream goes on
            self._done(start)
            self._fail(f"{kind} raised:\n{traceback.format_exc()}")
            return None
        self._done(start)
        self._last_failed = False
        return value

    def _done(self, start: float) -> None:
        end = self.now()
        self.samples.append(end - start)
        self.marks.append(end)

    def verify(self, ok: bool) -> None:
        """Check the operation that just completed."""
        if not ok and not self._last_failed:
            self._fail(f"{self._last_kind}: output differs from the "
                       "shadow model")

    def record_check(self, kind: str, ok: bool) -> None:
        """A check that is an operation of its own (scrub, read-back)."""
        self.attempted += 1
        self._last_kind = kind
        self._last_failed = False
        self.verify(ok)

    def _fail(self, message: str) -> None:
        self.failed += 1
        self._last_failed = True
        if len(self.errors) < 5:
            self.errors.append(message)

    @contextmanager
    def checking(self):
        if self.profiler is not None:
            self.profiler.disable()
        start = perf_counter()
        try:
            yield
        finally:
            self.check_s += perf_counter() - start
            if self.profiler is not None:
                self.profiler.enable()


# ----------------------------------------------------------------------
# simulated counts, charged to the layers they come from
# ----------------------------------------------------------------------

FAULT_COUNTERS = ("disk_deaths", "transient_errors", "latent_sector_errors",
                  "link_stalls", "stall_seconds", "host_crashes")


def _part_counts(part) -> dict:
    disks = part.disks
    registry = part.sim.metrics.snapshot()

    def raid(name):
        return sum(registry.get(ctrl.name, {}).get(name, {}).get("value", 0)
                   for ctrl in part.controllers)

    counts = {
        "sim_s": part.sim.now,
        "hw.disk_ops": sum(d.reads + d.writes for d in disks),
        "hw.disk_bytes": sum(d.bytes_read + d.bytes_written for d in disks),
        "hw.disk_bytes_written": sum(d.bytes_written for d in disks),
        "hw.busy_s": sum(d.busy.busy_time for d in disks),
        "raid.degraded_reads": raid("degraded_reads"),
        "raid.degraded_writes": raid("degraded_writes"),
        "raid.transient_retries": raid("transient_retries"),
        "raid.rebuilt_rows": raid("rebuilt_rows"),
        "lfs.bytes_written": sum(fs.bytes_written for fs in part.lfs),
        "lfs.bytes_read": sum(fs.bytes_read for fs in part.lfs),
        "lfs.readahead_hits": sum(fs.readahead_hits for fs in part.lfs),
        "lfs.segments_cleaned": sum(fs.segments_cleaned for fs in part.lfs),
        "lfs.fragments_flushed": sum(
            writer.fragments_flushed for writer in
            [fs.writer for fs in part.lfs if fs.writer]
            + part.retired_writers),
    }
    faults = registry.get("faults", {})
    for name in FAULT_COUNTERS:
        counts[f"faults.{name}"] = faults.get(name, {}).get("value", 0)
    return counts


def snapshot(round_) -> list[dict]:
    return [_part_counts(part) for part in round_.parts]


def sim_results(round_, before: list[dict]) -> dict:
    """The round's simulated results over its timed phase.

    Every value is a pure function of the seed; none depends on the
    host.  ``sim_mb_s`` is client megabytes per simulated second.
    """
    after = snapshot(round_)
    total: dict[str, float] = {}
    disk_seconds = 0.0
    lfs_disk_written = 0
    for part, start, end in zip(round_.parts, before, after):
        for key, value in end.items():
            total[key] = total.get(key, 0) + value - start[key]
        disk_seconds += len(part.disks) * (end["sim_s"] - start["sim_s"])
        if part.lfs:
            lfs_disk_written += (end["hw.disk_bytes_written"]
                                 - start["hw.disk_bytes_written"])
    sim_s = total.pop("sim_s")
    lfs_written = total.pop("lfs.bytes_written")
    lfs_read = total.pop("lfs.bytes_read")
    readahead_hits = total.pop("lfs.readahead_hits")
    del total["hw.disk_bytes_written"]
    results = {
        "sim_mb_s": round_.client_bytes / MB / sim_s,
        "sim_s": sim_s,
        "sim_end_s": [part.sim.now for part in round_.parts],
        "client_bytes": round_.client_bytes,
        "hw.disk_ops": total.pop("hw.disk_ops"),
        "hw.disk_mb": total.pop("hw.disk_bytes") / MB,
        "hw.disk_busy_frac": total.pop("hw.busy_s") / disk_seconds,
        "lfs.write_cost": (lfs_disk_written / lfs_written
                           if lfs_written else 0.0),
        "lfs.readahead_hit_frac": (
            min(1.0, readahead_hits * BLOCK_SIZE / lfs_read)
            if lfs_read else 0.0),
        "ffs.disk_ops_per_write": (
            round_.ffs_write_disk_ops / round_.ffs_writes
            if round_.ffs_writes else 0.0),
    }
    results.update(total)
    return results


# ----------------------------------------------------------------------
# rounds
# ----------------------------------------------------------------------

@dataclass
class RoundResult:
    setup_s: float
    host_s: float
    clock: OpClock
    sim: dict


def run_round(workload, seed: int, around_timed=None,
              around_build=None) -> RoundResult:
    """Build ``workload`` from ``seed`` and run its timed phase once.

    ``around_build()`` and ``around_timed(round, clock)`` are optional
    context-manager factories that the traced run uses to attach the
    tracer, the profiler or the event counter.
    """
    gc.collect()
    start = perf_counter()
    with (around_build() if around_build else nullcontext()):
        round_ = workload(seed)
        built = perf_counter()
        clock = OpClock()
        before = snapshot(round_)
        with (around_timed(round_, clock) if around_timed
              else nullcontext()):
            clock.mark()
            round_.timed(clock)
            clock.mark()
    sim = sim_results(round_, before)
    round_.verify(clock)
    return RoundResult(built - start, clock.host_s, clock, sim)


#: Share of a run's replays of each slice and operation that the
#: metrics keep: the fastest ones.
FASTEST_SHARE = 0.25


def fastest(values, share: float = FASTEST_SHARE) -> list[float]:
    """The fastest ``share`` of ``values``, at least one."""
    return sorted(values)[:max(1, int(len(values) * share))]


def best_of(rounds: list[RoundResult]) -> tuple[float, list[float]] | None:
    """(host seconds, per-operation host seconds) of the fastest replays.

    Every slice is taken at the mean of its fastest quarter of replays
    over ``rounds``, which all replay the same operations, and summed.
    Every operation contributes its fastest quarter of replays as
    samples.  None if the rounds disagree on how many there are.
    """
    clocks = [r.clock for r in rounds]
    if len({len(c.marks) for c in clocks}) != 1 \
            or len({len(c.samples) for c in clocks}) != 1:
        return None
    host_s = sum(statistics.fmean(fastest(column))
                 for column in zip(*(c.slices for c in clocks)))
    samples = [s for column in zip(*(c.samples for c in clocks))
               for s in fastest(column)]
    return host_s, samples


# ----------------------------------------------------------------------
# host speed
# ----------------------------------------------------------------------

#: Calibration chunks run after every round.
CALIBRATION_CHUNKS = 40
#: Fastest-quarter mean of one calibration chunk on the host the
#: baseline was measured on (2-vCPU Xeon virtual machine, Python 3.11).
CALIBRATION_REFERENCE_S = 1.1e-3


def calibration_chunk() -> None:
    """A fixed piece of interpreter work, independent of ``repro``."""
    table: dict[int, int] = {}
    for i in range(8000):
        table[i & 1023] = table.get(i & 511, 0) + i


def calibrate(times: list[float], chunks: int = CALIBRATION_CHUNKS) -> None:
    """Time ``chunks`` calibration chunks, appending to ``times``."""
    for _ in range(chunks):
        start = perf_counter()
        calibration_chunk()
        times.append(perf_counter() - start)


def host_scale(times: list[float]) -> float:
    """Factor from this host's seconds to reference-host seconds.

    The same code runs up to 1.5 times slower on a shared virtual
    machine from one minute to the next.  Timing a fixed piece of
    interpreter work between rounds, and scaling every host time by
    how long it took here against on the reference host, takes most of
    that drift out of run-to-run comparisons.
    """
    return CALIBRATION_REFERENCE_S / statistics.fmean(fastest(times))


def op_samples(ops: int, rounds: int) -> int:
    """How many samples best_of() gives for ``rounds`` rounds."""
    return ops * max(1, int(rounds * FASTEST_SHARE))


@contextmanager
def count_events(round_, counter: list):
    """Count heap pushes into this round's simulators.

    The kernel schedules every event through ``heapq.heappush`` (the
    determinism tests hook the same chokepoint), so the count is the
    number of events the timed phase scheduled.
    """
    heaps = {id(part.sim._heap) for part in round_.parts}
    original = heapq.heappush

    def hook(heap, entry):
        if id(heap) in heaps:
            counter[0] += 1
        return original(heap, entry)

    heapq.heappush = hook
    try:
        yield
    finally:
        heapq.heappush = original


# ----------------------------------------------------------------------
# reference digests
# ----------------------------------------------------------------------

#: Results only the traced run computes.
SPAN_KEYS = ("simtime.", "raid.reads", "raid.writes")


def split(results: dict) -> tuple[dict, dict]:
    """(results every run computes, results only the traced run has)."""
    spans = {k: v for k, v in results.items() if k.startswith(SPAN_KEYS)}
    sim = {k: v for k, v in results.items() if k not in spans}
    return sim, spans


def digest(results: dict) -> str:
    """SHA-256 of the results; floats are written with all their digits."""
    text = json.dumps(results, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()
