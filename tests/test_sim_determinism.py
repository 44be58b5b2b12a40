"""The optimized kernel must stay deterministic: identical workloads on
fresh Simulators must schedule the identical sequence of heap entries.

The trace is captured by hooking ``heapq.heappush``: every kernel
fast path pushes its heap entry inline through that module attribute,
so it is the one chokepoint that sees every scheduling action.  Each
trace record is a ``(time, kind, event-type, component)`` tuple.

Besides run-to-run identity, the fig5 traces — and a table2 run on
each server, and a fault-plan run with op-deadline retries — are pinned
to golden digests, so a change that claims "scheduling unchanged" is
checked against the recorded schedule rather than only against itself.
"""

from __future__ import annotations

import gc
import hashlib
import heapq
import random

import pytest

from repro.sim import PriorityResource, Simulator, Store
from repro.sim.core import _KIND_INTERRUPT
from repro.units import KIB, MS

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


def _table2_raid2():
    from repro.experiments import table2_small_io as table2
    return table2._raid2_rate(4, 6, 42)


def _table2_raid1():
    from repro.experiments import table2_small_io as table2
    return table2._raid1_rate(4, 6, 43)


def _fault_retry_stream(sim: Simulator):
    """Mixed hw reads/writes on the paper's server under a fault plan:
    two transient errors heal by Cougar retry, and a string stall
    outlives the op deadline, so attempts are abandoned (``any_of``
    against a deadline, then interrupts into the live legs)."""
    from repro.faults import (FaultPlan, LinkStall, RetryPolicy,
                              TransientFault, attach_server)
    from repro.server import Raid2Config, Raid2Server
    from repro.workloads import random_aligned_offsets, run_request_stream

    policy = RetryPolicy(max_attempts=8, backoff_s=5 * MS,
                         op_timeout_s=60 * MS)
    server = Raid2Server(sim, Raid2Config(retry=policy))
    attach_server(FaultPlan.of(
        TransientFault(disk="raid2.xbus0.d1.0.0", count=2),
        LinkStall(link="raid2.xbus0.c2.s1", at_s=0.0, duration_s=0.25)),
        server)
    requests = random_aligned_offsets(
        random.Random(5), server.raid.capacity_bytes, 256 * KIB, 6,
        alignment=1024)

    def op(offset, nbytes):
        if offset % 2048:
            yield from server.hw_write(offset, nbytes)
        else:
            yield from server.hw_read(offset, nbytes)

    rate = run_request_stream(sim, op, requests).mb_per_s
    return rate, [(c.op_timeouts, c.retries) for c in server.board.cougars]


def _fault_retry_run():
    return _fault_retry_stream(Simulator())


#: SHA-256 of ``repr((result, trace))`` for runs off the fig5 path,
#: recorded before the kernel's inline-push fast paths landed.
_MORE_GOLDEN = {
    "table2-raid2": (
        _table2_raid2,
        "0bdb5caade322875ac67ed7447e570ef240d0d43930f1754273b33303b526d9f"),
    "table2-raid1": (
        _table2_raid1,
        "64002b723c0f43307676162b0b82322de227c621f474c5f6fc0d307ecb52884d"),
    "fault-retry": (
        _fault_retry_run,
        "2d0e42343e7a33acd3c514616cdc21537f319b265265abc0ed574bc6d0570ee8"),
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


@pytest.mark.parametrize("name", sorted(_MORE_GOLDEN))
def test_trace_matches_golden_fingerprint(name):
    run, golden = _MORE_GOLDEN[name]
    result, trace = _traced(run)
    digest = hashlib.sha256(repr((result, trace)).encode()).hexdigest()
    assert digest == golden


def test_fault_retry_run_exercises_deadlines_and_retries():
    # The golden above only guards the AnyOf/interrupt path if the run
    # really abandons attempts at the deadline and retries transients.
    _rate, per_cougar = _fault_retry_run()
    assert sum(timeouts for timeouts, _ in per_cougar) >= 1
    assert sum(retries for _, retries in per_cougar) >= 1


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


# ---------------------------------------------------------------------------
# hook completeness: one hooked heapq.heappush per sequence number
# ---------------------------------------------------------------------------

def _raid2_hw_stream(sim: Simulator):
    from repro.server import Raid2Config, Raid2Server
    from repro.workloads import random_aligned_offsets, run_request_stream

    server = Raid2Server(sim, Raid2Config.paper_default())
    requests = random_aligned_offsets(
        random.Random(3), server.raid.capacity_bytes, 128 * KIB, 8,
        alignment=1024)

    def op(offset, nbytes):
        if offset % 2048:
            yield from server.hw_write(offset, nbytes)
        else:
            yield from server.hw_read(offset, nbytes)

    return run_request_stream(sim, op, requests, concurrency=2).mb_per_s


def _store_priority_exchange(sim: Simulator):
    store = Store(sim, capacity=2, name="q")
    arbiter = PriorityResource(sim, capacity=1, name="arb")
    got = []

    def producer(tag):
        for index in range(6):
            yield arbiter.acquire(priority=tag)
            try:
                yield sim.timeout(0.5)
            finally:
                arbiter.release()
            yield store.put((tag, index))

    def consumer():
        # Waits for the first item (a getter handed its item by put),
        # then falls behind, so the store fills and putters block
        # (get() from a full store, releasing a putter).
        for _ in range(18):
            item = yield store.get()
            got.append(item)
            yield sim.timeout(1.3)

    for tag in (2, 0, 1):
        sim.process(producer(tag), name=f"producer{tag}")
    sim.process(consumer(), name="consumer")
    sim.run()
    return got


@pytest.mark.parametrize("run", [_raid2_hw_stream, _store_priority_exchange,
                                 _fault_retry_stream],
                         ids=["raid2-hw", "store-priority", "fault-retry"])
def test_every_sequence_number_goes_through_hooked_heappush(run):
    # Fast paths push their heap entries inline; each must still call
    # the module attribute heapq.heappush (the fingerprint hook and the
    # benchmark's event counter) and draw exactly one sequence number.
    gc.collect()
    sim = Simulator()
    pushes = [0]
    original = heapq.heappush

    def hook(heap, entry):
        if heap is sim._heap:
            pushes[0] += 1
        return original(heap, entry)

    heapq.heappush = hook
    try:
        run(sim)
    finally:
        heapq.heappush = original
    assert pushes[0] > 0
    assert pushes[0] == next(sim._seq)
