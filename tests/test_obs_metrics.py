"""Tests for the component metrics registry and its snapshots."""

import json

import pytest

from repro.errors import SimulationError
from repro.obs import MetricsRegistry, observe, render_metrics_snapshot
from repro.sim import Simulator
from repro.units import KIB


def test_counter_accumulates_and_rejects_negative():
    registry = MetricsRegistry()
    counter = registry.counter("disk0", "bytes_done", unit="B")
    counter.inc(512)
    counter.inc(512)
    assert counter.value == 1024
    with pytest.raises(SimulationError):
        counter.inc(-1)


def test_gauge_tracks_maximum():
    registry = MetricsRegistry()
    gauge = registry.gauge("xmem", "allocated", unit="B")
    gauge.set(10)
    gauge.add(5)
    gauge.set(3)
    assert gauge.value == 3
    assert gauge.max_value == 15


def test_histogram_buckets_and_mean():
    registry = MetricsRegistry()
    hist = registry.histogram("disk0", "latency", buckets=(0.01, 0.1, 1.0))
    for sample in (0.005, 0.05, 0.5, 5.0):
        hist.observe(sample)
    snap = hist.snapshot()
    assert snap["count"] == 4
    assert snap["buckets"] == [0.01, 0.1, 1.0]
    # One sample per bucket, one in the implicit overflow bucket.
    assert snap["counts"] == [1, 1, 1, 1]
    assert snap["min"] == 0.005 and snap["max"] == 5.0
    assert hist.mean == pytest.approx((0.005 + 0.05 + 0.5 + 5.0) / 4)


def test_get_or_create_returns_same_instrument():
    registry = MetricsRegistry()
    a = registry.counter("c0", "ops")
    b = registry.counter("c0", "ops")
    assert a is b
    assert len(registry) == 1


def test_kind_mismatch_raises():
    registry = MetricsRegistry()
    registry.counter("c0", "ops")
    with pytest.raises(SimulationError):
        registry.gauge("c0", "ops")


def test_unique_component_names_are_deterministic():
    registry = MetricsRegistry()
    assert registry.unique_component("throughput") == "throughput.1"
    assert registry.unique_component("throughput") == "throughput.2"
    assert registry.unique_component("busy") == "busy.1"


def test_simulator_carries_a_registry():
    sim = Simulator()
    sim.metrics.counter("port", "bytes").inc(4 * KIB)
    assert sim.metrics.snapshot()["port"]["bytes"]["value"] == 4 * KIB


def _run_workload():
    """A small deterministic workload touching every instrument kind."""
    sim = Simulator()
    metrics = sim.metrics
    bytes_done = metrics.counter("stream", "bytes_done", unit="B")
    ops_done = metrics.counter("stream", "ops_done", unit="ops")
    latency = metrics.histogram("op", "latency")
    busy = metrics.gauge("port", "busy_time", unit="s")

    def body():
        for index in range(5):
            yield sim.timeout(0.25)
            busy.add(0.25)
            bytes_done.inc(64 * KIB)
            ops_done.inc()
            latency.observe(0.25)
            yield sim.timeout(0.05)

    sim.run_process(body())
    return sim


def test_snapshot_deterministic_across_identical_runs():
    first = _run_workload().metrics.snapshot()
    second = _run_workload().metrics.snapshot()
    assert first == second
    # Byte-identical when serialized, key order included.
    assert json.dumps(first, sort_keys=False) == \
        json.dumps(second, sort_keys=False)


def test_session_collects_per_run_snapshots():
    with observe() as session:
        _run_workload()
        _run_workload()
    snapshot = session.metrics_snapshot()
    assert sorted(snapshot) == ["run0", "run1"]
    assert snapshot["run0"] == snapshot["run1"]
    rendered = render_metrics_snapshot(snapshot)
    assert "stream" in rendered and "bytes_done" in rendered


def test_observe_without_trace_keeps_null_tracer():
    with observe() as session:
        sim = Simulator()
    assert not sim.tracer.enabled
    assert session.spans() == []
    assert len(sim.metrics) == 0
