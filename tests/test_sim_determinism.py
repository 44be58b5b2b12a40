"""The optimized kernel must stay deterministic: identical workloads on
fresh Simulators must schedule the identical sequence of heap entries.

The trace is captured by hooking ``heapq.heappush`` rather than
``Simulator._enqueue`` — the ``Simulator.timeout()`` fast path pushes
its heap entry inline and never goes through ``_enqueue``, so only the
heappush chokepoint sees every scheduling action.  Each trace record is
a ``(time, kind, event-type, component)`` tuple.

Besides run-to-run identity, the fig5 traces are pinned to golden
digests, so a change that claims "scheduling unchanged" is checked
against the recorded schedule rather than only against itself.
"""

from __future__ import annotations

import gc
import hashlib
import heapq

import pytest

from repro.sim.core import _KIND_INTERRUPT
from repro.units import KIB

#: SHA-256 of ``repr((result, trace))`` for ``fig5._measure(kind,
#: 256 KiB, 4, seed)``, recorded with the per-sector disk store that
#: the page store replaced.  Float ``repr`` is the shortest round-trip
#: form on every supported Python, so the digests are portable.
_FIG5_GOLDEN = {
    ("read", 101):
        "d864e62bc1f00a4689eec60944389fac42fd23c3b2aa3a0f4bfb806ae7a83b5f",
    ("write", 202):
        "edae6338a4ffee948155b1604b191733a7ece884852fbb8e359a4419a46606bd",
}


def _component_of(kind: int, obj) -> str | None:
    if kind == _KIND_INTERRUPT:  # obj is (process, exception)
        return obj[0].name
    return getattr(obj, "name", None)


def _traced(run):
    """Run ``run()`` with every heap push recorded; returns
    (result, [(time, kind, event_type, component), ...])."""
    # The hook is a global chokepoint: abandoned generators from other
    # tests push cleanup wakeups into their own (dead) sims' heaps when
    # the GC finalizes them, polluting the trace.  Flush them first.
    gc.collect()
    trace: list[tuple] = []
    original = heapq.heappush

    def hook(heap, entry):
        when, _seq, kind, obj = entry
        trace.append((when, kind, type(obj).__name__,
                      _component_of(kind, obj)))
        return original(heap, entry)

    heapq.heappush = hook
    try:
        result = run()
    finally:
        heapq.heappush = original
    return result, trace


def _assert_identical_twice(run):
    result_a, trace_a = _traced(run)
    result_b, trace_b = _traced(run)
    assert result_a == result_b
    assert len(trace_a) == len(trace_b)
    assert trace_a == trace_b


def test_fig5_trace_identical_across_fresh_simulators():
    from repro.experiments import fig5_hw_throughput as fig5

    _assert_identical_twice(lambda: fig5._measure("read", 256 * KIB, 4, 101))
    _assert_identical_twice(lambda: fig5._measure("write", 256 * KIB, 4, 202))


@pytest.mark.parametrize("kind,seed", sorted(_FIG5_GOLDEN))
def test_fig5_trace_matches_golden_fingerprint(kind, seed):
    from repro.experiments import fig5_hw_throughput as fig5

    result, trace = _traced(lambda: fig5._measure(kind, 256 * KIB, 4, seed))
    digest = hashlib.sha256(repr((result, trace)).encode()).hexdigest()
    assert digest == _FIG5_GOLDEN[(kind, seed)]


def test_table2_trace_identical_across_fresh_simulators():
    from repro.experiments import table2_small_io as table2

    _assert_identical_twice(lambda: table2._raid2_rate(4, 6, 42))


def test_tracing_leaves_fingerprint_bit_identical():
    # Observation must never schedule: the heappush fingerprint of a
    # traced run (spans + metrics active) is bit-identical to the
    # plain run's, down to event kinds, times and process names.
    from repro.experiments import fig5_hw_throughput as fig5
    from repro.obs import observe

    def plain():
        return fig5._measure("read", 256 * KIB, 4, 101)

    def traced():
        with observe(trace=True):
            return fig5._measure("read", 256 * KIB, 4, 101)

    result_plain, trace_plain = _traced(plain)
    result_traced, trace_traced = _traced(traced)
    assert result_traced == result_plain
    assert trace_traced == trace_plain


def test_trace_captures_every_scheduling_kind():
    # Sanity-check the harness itself: a workload with timeouts,
    # process starts and interrupts must show all three entry kinds,
    # with process names attached where a component exists.
    from repro.sim import Interrupt, Simulator

    def run():
        sim = Simulator()

        def sleeper():
            try:
                yield sim.timeout(50.0)
            except Interrupt:
                pass
            return sim.now

        def waker(target):
            yield sim.timeout(3.0)
            target.interrupt("poke")

        proc = sim.process(sleeper(), name="sleeper")
        sim.process(waker(proc), name="waker")
        sim.run()
        return proc.value

    result, trace = _traced(run)
    assert result == 3.0
    kinds = {entry[1] for entry in trace}
    assert kinds == {0, 1, 2}
    names = {entry[3] for entry in trace if entry[3] is not None}
    assert {"sleeper", "waker"} <= names
    _assert_identical_twice(run)


def test_empty_fault_plan_leaves_fingerprint_bit_identical():
    # Arming an empty FaultPlan installs the pull hooks on every disk,
    # string and port — but the injector never schedules, so the
    # heappush fingerprint must be bit-identical to an unarmed run.
    import random

    from repro.faults import FaultPlan, attach_server
    from repro.server import Raid2Config, Raid2Server
    from repro.sim import Simulator
    from repro.workloads import random_aligned_offsets, run_request_stream

    def measure(armed: bool):
        sim = Simulator()
        server = Raid2Server(sim, Raid2Config.paper_default())
        if armed:
            attach_server(FaultPlan(), server)
        rng = random.Random(7)
        requests = random_aligned_offsets(
            rng, server.raid.capacity_bytes, 256 * KIB, 4, alignment=512)

        def op(offset, nbytes):
            yield from server.hw_read(offset, nbytes)

        return run_request_stream(sim, op, requests).mb_per_s

    result_plain, trace_plain = _traced(lambda: measure(False))
    result_armed, trace_armed = _traced(lambda: measure(True))
    assert result_armed == result_plain
    assert trace_armed == trace_plain
