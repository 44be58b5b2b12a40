"""The benchmark's own checks: determinism, isolation, the output check
and the timing wrapper.

Run from the root of a checkout::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import statistics
from time import perf_counter

import pytest

import harness
import run as bench_run
from harness import OpClock, run_round
from traced import profiled_round, traced_round
from workloads import WORKLOADS, LfsMixed

BENCHMARK = os.path.join(os.path.dirname(bench_run.HERE), "BENCHMARK.json")


def _bound(name: str) -> float:
    with open(BENCHMARK) as handle:
        metrics = json.load(handle)["end_to_end"]
    return next(m["bound"] for m in metrics if m["name"] == name)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_same_seed_gives_identical_simulated_results(workload):
    _, first = traced_round(WORKLOADS[workload], 11)
    _, second = traced_round(WORKLOADS[workload], 11)
    assert first == second
    plain = run_round(WORKLOADS[workload], 11)
    sim, _spans = harness.split(first)
    assert plain.sim == sim


def test_seed_changes_inputs_not_amount_of_work():
    a = run_round(WORKLOADS["lfs-mixed"], 1)
    b = run_round(WORKLOADS["lfs-mixed"], 2)
    assert a.sim["client_bytes"] == b.sim["client_bytes"]
    assert a.clock.attempted == b.clock.attempted
    assert a.sim["sim_mb_s"] != b.sim["sim_mb_s"]


@pytest.fixture(scope="module")
def layer_counts():
    counts = {}
    for name, cls in WORKLOADS.items():
        result, profile = profiled_round(cls, 5)
        counts[name] = (result.sim, profile["calls"])
    return counts


def test_workloads_are_isolated(layer_counts):
    _sim, calls = layer_counts["array-random"]
    assert calls["lfs"] == 0
    assert calls["ffs"] == 0
    for name, (sim, calls) in layer_counts.items():
        if name != "fs-recovery":
            assert calls["ffs"] == 0, name
        if name != "degraded-rebuild":
            faults = {k: v for k, v in sim.items()
                      if k.startswith("faults.")}
            assert not any(faults.values()), (name, faults)
            assert sim["raid.degraded_reads"] == 0
            assert sim["raid.rebuilt_rows"] == 0
    degraded, _calls = layer_counts["degraded-rebuild"]
    assert degraded["faults.disk_deaths"] == 3
    assert degraded["raid.rebuilt_rows"] > 0
    lfs, _calls = layer_counts["lfs-mixed"]
    assert lfs["lfs.segments_cleaned"] > 0


def test_profile_accounts_for_profiled_host_time():
    result, profile = profiled_round(WORKLOADS["degraded-rebuild"], 3)
    accounted = sum(profile["self_s"].values()) / result.host_s
    assert abs(accounted - 1) < 0.25


class _FlippedShadow(LfsMixed):
    """The checker's shadow copy has one byte flipped where the first
    read of the round will look."""

    def __init__(self, seed):
        super().__init__(seed)
        _kind, path, offset, _nbytes, _payload = next(
            op for op in self.ops if op[0] == "read")
        self.shadow[path][offset] ^= 0xFF


def test_flipped_byte_in_checker_raises_error_rate():
    clean = run_round(LfsMixed, 4)
    assert clean.clock.failed == 0
    flipped = run_round(_FlippedShadow, 4)
    assert flipped.clock.failed >= 1
    assert flipped.clock.attempted == clean.clock.attempted
    # The program did the same simulated work either way.
    assert flipped.sim == clean.sim


def test_corrupted_disk_byte_raises_error_rate():
    class Corrupted(WORKLOADS["array-random"]):
        def __init__(self, seed):
            super().__init__(seed)
            disk = self.server.raid.paths[0].disk
            sector = disk.peek(0, 1)
            disk.poke(0, bytes([sector[0] ^ 0x01]) + sector[1:])

    result = run_round(Corrupted, 4)
    assert result.clock.failed >= 1


def _measure(workload, rounds: int) -> tuple[float, float, float]:
    """(op p50 ms, mean op s, host s), as the benchmark reports them."""
    results = [run_round(workload, 6) for _ in range(rounds)]
    host_s, samples = harness.best_of(results)
    return (bench_run.percentile(samples, 0.5) * 1e3,
            statistics.fmean(samples), host_s)


def test_planted_slowdown_is_caught(monkeypatch):
    workload = WORKLOADS["degraded-rebuild"]
    base_p50, mean_op_s, base_host = _measure(workload, 4)
    bound = max(_bound("op_host_ms_p50"), _bound("host_s"))
    # Slow every operation by twice the bound's share of the mean op.
    delay_s = 2 * bound * mean_op_s
    original = OpClock.op

    def slowed(self, kind, call):
        def spin_then_call():
            end = perf_counter() + delay_s
            while perf_counter() < end:
                pass
            return (yield from call)
        return original(self, kind, spin_then_call())

    monkeypatch.setattr(OpClock, "op", slowed)
    slow_p50, _mean, slow_host = _measure(workload, 4)
    assert slow_p50 > base_p50 * (1 + _bound("op_host_ms_p50"))
    assert slow_host > base_host * (1 + _bound("host_s"))


def _clock(slices: list[float], samples: list[float]) -> OpClock:
    clock = OpClock()
    clock.marks = [0.0]
    for piece in slices:
        clock.marks.append(clock.marks[-1] + piece)
    clock.samples = samples
    return clock


def test_best_of_keeps_the_fastest_replays():
    times = [[1.0, 2.0], [1.0, 1.5], [3.0, 1.0], [1.2, 1.1]]
    rounds = [harness.RoundResult(0.0, sum(t), _clock(t, t), {})
              for t in times]
    host_s, samples = harness.best_of(rounds)
    # A quarter of four rounds is one: each slice at its fastest.
    assert host_s == 1.0 + 1.0
    assert samples == [1.0, 1.0]
    rounds.append(harness.RoundResult(0.0, 1.0, _clock([1.0], [1.0]), {}))
    assert harness.best_of(rounds) is None


def test_rounds_must_agree_on_operation_counts():
    first = run_round(LfsMixed, 4)
    flipped = run_round(_FlippedShadow, 4)
    run = bench_run.Run("lfs-mixed", LfsMixed, 4)
    run.add(first, first.sim)
    run.add(first, first.sim)
    assert not run.problems
    assert (run.attempted, run.failed) == (first.clock.attempted, 0)
    run.add(flipped, flipped.sim)
    assert run.problems and "ops failed" in run.problems[0]


def test_host_scale_follows_the_calibration_chunk():
    assert harness.host_scale([harness.CALIBRATION_REFERENCE_S] * 8) == 1.0
    slow = [2 * harness.CALIBRATION_REFERENCE_S] * 8
    assert harness.host_scale(slow) == 0.5
