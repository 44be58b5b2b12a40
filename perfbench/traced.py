"""The traced run: per-layer metrics for one workload and seed.

Rounds are run in cycles of four variants of the same seed:

* ``plain`` — nothing attached; the base for the overheads;
* ``profile`` — cProfile over the timed phase, paused while the
  benchmark checks bytes, grouped by ``repro`` package;
* ``traced`` — ``repro.obs.observe(trace=True)`` from build to the end
  of the timed phase; spans give the simulated self time per layer
  and the RAID read and write counts;
* ``events`` — a heap-push counter over the timed phase.

All four must give the same simulated results.  Host-time figures are
medians over the cycles; counts come from the first cycle.
"""

from __future__ import annotations

import cProfile
import statistics
from contextlib import contextmanager
from time import perf_counter

from harness import HARD_STOP_S, count_events, run_round
from layers import (PACKAGES, SPAN_LAYERS, count_spans, profile_by_package,
                    span_self_seconds)
from repro.obs import observe

#: Cycles the medians need at least, however short ``seconds`` is.
MIN_CYCLES = 2
#: The profile must account for the profiled host time to within this
#: share: the self times of all functions sum to the profiled wall time
#: less the profiler's own bookkeeping.
ACCOUNTING_TOLERANCE = 0.25

#: Simulated counts reported as per-layer metrics, from sim_results().
SIM_COUNTS = (
    ("hw.disk_ops", "count"), ("hw.disk_mb", "MB"),
    ("hw.disk_busy_frac", "fraction"),
    ("raid.degraded_reads", "count"), ("raid.rebuilt_rows", "count"),
    ("raid.transient_retries", "count"),
    ("lfs.write_cost", "ratio"), ("lfs.segments_cleaned", "count"),
    ("lfs.fragments_flushed", "count"),
    ("lfs.readahead_hit_frac", "fraction"),
    ("ffs.disk_ops_per_write", "ratio"),
    ("faults.disk_deaths", "count"), ("faults.transient_errors", "count"),
    ("faults.latent_sector_errors", "count"),
    ("faults.link_stalls", "count"), ("faults.stall_seconds", "s"),
    ("faults.host_crashes", "count"),
)


def traced_results(round_, session, since: list[float]) -> dict:
    """Span-derived simulated results of one traced round.

    ``since`` holds each part's simulated time at the start of the
    timed phase; spans that started earlier belong to set-up.
    """
    results = {f"simtime.{layer}.self_s": 0.0 for layer in SPAN_LAYERS}
    results["raid.reads"] = 0
    results["raid.writes"] = 0
    tracers = {id(tracer.sim): tracer for tracer in session.tracers}
    for part, start in zip(round_.parts, since):
        spans = tracers[id(part.sim)].finished
        for layer, seconds in span_self_seconds(spans, start).items():
            results[f"simtime.{layer}.self_s"] += seconds
        results["raid.reads"] += count_spans(spans, start, "raid.read")
        results["raid.writes"] += count_spans(spans, start, "raid.write")
    return results


def traced_round(cls, seed: int):
    """One round under span tracing: (round result, full sim results)."""
    holder = {}

    @contextmanager
    def session():
        with observe(trace=True) as obs:
            holder["session"] = obs
            yield

    @contextmanager
    def mark(round_, _clock):
        holder["round"] = round_
        holder["since"] = [part.sim.now for part in round_.parts]
        yield

    result = run_round(cls, seed, around_timed=mark, around_build=session)
    results = dict(result.sim)
    results.update(traced_results(holder["round"], holder["session"],
                                  holder["since"]))
    return result, results


def profiled_round(cls, seed: int):
    profiler = cProfile.Profile()

    @contextmanager
    def profile(_round, clock):
        clock.profiler = profiler
        profiler.enable()
        try:
            yield
        finally:
            profiler.disable()
            clock.profiler = None

    result = run_round(cls, seed, around_timed=profile)
    return result, profile_by_package(profiler)


def counted_round(cls, seed: int):
    counter = [0]
    result = run_round(
        cls, seed,
        around_timed=lambda round_, _clock: count_events(round_, counter))
    return result, counter[0]


def run_traced(run, seconds: float) -> tuple[dict, bool]:
    """Per-layer metrics: {name: (value, unit)}, and the reference check."""
    plain, profiled, traced = [], [], []
    profiles, events, full = [], [], None
    start = perf_counter()
    while True:
        began = perf_counter()
        result = run_round(run.cls, run.seed)
        run.add(result, result.sim)
        plain.append(result.host_s)

        result, profile = profiled_round(run.cls, run.seed)
        run.add(result, result.sim)
        profiled.append(result.host_s)
        profiles.append(profile)

        result, results = traced_round(run.cls, run.seed)
        run.add(result, results)
        traced.append(result.host_s)
        full = full or results

        result, count = counted_round(run.cls, run.seed)
        run.add(result, result.sim)
        events.append(count)

        now = perf_counter()
        # Start no cycle that would end after the time budget.
        if (len(plain) >= MIN_CYCLES and now + (now - began) - start
                > seconds) or now - start >= HARD_STOP_S:
            break
    reference_ok = run.check_reference(full)

    plain_s = statistics.median(plain)
    metrics = {}
    for package in PACKAGES + ("other", "nonrepro"):
        metrics[f"{package}.self_s"] = (statistics.median(
            p["self_s"][package] for p in profiles), "s")
    for package in PACKAGES + ("other",):
        metrics[f"{package}.calls"] = (profiles[0]["calls"][package],
                                       "count")
    accounted = [sum(p["self_s"].values()) / host
                 for p, host in zip(profiles, profiled)]
    metrics["profile.accounted_frac"] = (statistics.median(accounted),
                                         "fraction")
    if any(abs(share - 1) > ACCOUNTING_TOLERANCE for share in accounted):
        run.problems.append(
            "profile self times account for "
            + ", ".join(f"{share:.1%}" for share in accounted)
            + " of the profiled host time")
    metrics["sim.events"] = (events[0], "count")
    metrics["sim.host_us_per_event"] = (plain_s / events[0] * 1e6, "us")
    metrics["profile_overhead"] = (
        statistics.median(profiled) / plain_s - 1, "fraction")
    metrics["obs.trace_overhead"] = (
        statistics.median(traced) / plain_s - 1, "fraction")
    metrics["raid.reads"] = (full["raid.reads"], "count")
    metrics["raid.writes"] = (full["raid.writes"], "count")
    for key, unit in SIM_COUNTS:
        metrics[key] = (full[key], unit)
    for layer in SPAN_LAYERS:
        key = f"simtime.{layer}.self_s"
        metrics[key] = (full[key], "s")
    print(f"{run.name} seed {run.seed}: {len(plain)} traced cycles, "
          f"plain host {plain_s:.4f} s")
    return metrics, reference_ok
