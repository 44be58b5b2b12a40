"""Interphase Cougar dual-string VME disk controller.

The Cougar couples two SCSI strings to one VME bus and can move about
8 MB/s.  When *both* of its strings transfer at once, there is "some
contention on the controller that results in lower performance"
(Section 2.3) — the cause of the throughput dip at 768 KB in Figure 5.
We charge a fixed contention penalty to any transfer that runs while
the controller's other string is busy.

The controller owns the full disk-to-VME path: a read is
``disk mechanics -> (media transfer || string transfer || controller
transfer)``, the parallel stage modelling cut-through through the
drive's buffer and the controller's FIFOs.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import HardwareError, OpTimeoutError, TransientDiskError
from repro.faults.retry import RetryPolicy
from repro.hw.disk import DiskDrive
from repro.hw.specs import (COUGAR_SPEC, SCSI_STRING_SPEC, CougarSpec,
                            ScsiStringSpec)
from repro.hw.scsi import ScsiString
from repro.sim import BandwidthChannel, Simulator
from repro.units import SECTOR_SIZE

#: What an op on one disk needs to know about its path: the disk's
#: string, that string's index, and the read, write and string leg
#: process names.
_Route = tuple[ScsiString, int, str, str, str]


class CougarController:
    """One Cougar board: two SCSI strings sharing a controller channel."""

    def __init__(self, sim: Simulator, spec: CougarSpec = COUGAR_SPEC,
                 string_spec: ScsiStringSpec = SCSI_STRING_SPEC,
                 name: str = "cougar",
                 retry: Optional[RetryPolicy] = None):
        self.sim = sim
        self.spec = spec
        self.name = name
        #: Retry/deadline policy for whole disk-to-VME operations.
        #: ``None`` (the default) disables controller-level retries —
        #: the legs then run exactly as a policy-free build would.
        self.retry = retry
        self.channel = BandwidthChannel(
            sim, rate_mb_s=spec.rate_mb_s,
            per_transfer_overhead=spec.per_transfer_overhead_s,
            name=f"{name}.bus")
        self.strings = [
            ScsiString(sim, string_spec, name=f"{name}.s{index}")
            for index in range(spec.strings)
        ]
        self.contention_events = 0
        self.retries = 0
        self.op_timeouts = 0
        self._m_retries = sim.metrics.counter(name, "retries")
        self._m_op_timeouts = sim.metrics.counter(name, "op_timeouts")
        #: Operations currently in flight per string (indexed like
        #: ``strings``); used for the dual-string contention check.
        self._inflight = [0] * spec.strings
        #: Each disk's route, filled on the disk's first op (strings
        #: may gain disks after the controller is built).
        self._routes: dict[DiskDrive, _Route] = {}
        self._xfer_name = f"{name}.xfer"

    # ------------------------------------------------------------------
    def string_of(self, disk: DiskDrive) -> ScsiString:
        for string in self.strings:
            if disk in string.disks:
                return string
        raise HardwareError(f"{disk.name} is not on any string of {self.name}")

    def _route(self, disk: DiskDrive) -> _Route:
        string = self.string_of(disk)
        route = (string, self.strings.index(string), f"{disk.name}.read",
                 f"{disk.name}.write", f"{string.name}.xfer")
        self._routes[disk] = route
        return route

    @property
    def disks(self) -> list[DiskDrive]:
        return [disk for string in self.strings for disk in string.disks]

    def _dual_string_delay(self, index: int):
        """Process: serial command-handling delay when both strings are
        in use.  This is "contention on the controller that results in
        lower performance when both strings are used" (Section 2.3) —
        charged up front, before the data legs, so it extends the
        operation's critical path."""
        # In-flight counts are never negative, so another string is
        # busy exactly when the total exceeds this string's own count.
        inflight = self._inflight
        if sum(inflight) > inflight[index]:
            self.contention_events += 1
            yield self.sim.timeout(self.spec.dual_string_penalty_s)
        return None

    def _controller_transfer(self, string: ScsiString, nbytes: int):
        """Process: the controller-internal data leg."""
        with self.sim.tracer.span("cougar.bus", self.name, nbytes=nbytes):
            yield from self.channel.transfer(nbytes)

    # ------------------------------------------------------------------
    # retry machinery
    # ------------------------------------------------------------------
    def _run_attempts(self, index: int, spawn_legs):
        """Process: run ``spawn_legs()`` under the retry policy.

        ``spawn_legs`` creates and returns the operation's concurrent
        leg processes; the attempt's value is the ``all_of`` value list
        in spawn order.  With no policy this is a plain join — same
        events, same order, same fingerprint as a retry-free build.
        """
        policy = self.retry
        self._inflight[index] += 1
        try:
            if policy is None:
                values = yield self.sim.all_of(spawn_legs())
                return values
            backoff = policy.backoff_s
            for attempt in range(1, policy.max_attempts + 1):
                last = attempt == policy.max_attempts
                try:
                    values = yield from self._one_attempt(spawn_legs)
                    return values
                except TransientDiskError:
                    self.retries += 1
                    self._m_retries.inc()
                    if last:
                        raise
                except OpTimeoutError:
                    if last:
                        raise
                yield self.sim.timeout(backoff)
                backoff *= policy.backoff_factor
        finally:
            self._inflight[index] -= 1

    def _one_attempt(self, spawn_legs):
        """Process: one attempt, abandoned at the policy's deadline."""
        legs = spawn_legs()
        joined = self.sim.all_of(legs)
        if self.retry.op_timeout_s is None:
            values = yield joined
            return values
        deadline = self.sim.timeout(self.retry.op_timeout_s)
        yield self.sim.any_of([joined, deadline])
        if joined.processed:
            return joined.value
        self.op_timeouts += 1
        self._m_op_timeouts.inc()
        for leg in legs:
            if leg.is_alive:
                leg.interrupt("cougar op timeout")
        raise OpTimeoutError(
            f"{self.name}: op exceeded {self.retry.op_timeout_s}s")

    # ------------------------------------------------------------------
    def read(self, disk: DiskDrive, lba: int, nsectors: int):
        """Process: read from ``disk`` up through the controller.

        Returns the bytes read.  The three data-movement legs (drive
        media, SCSI string, controller channel) run concurrently to
        model cut-through; the operation completes when the slowest
        finishes.
        """
        string, index, read_name, _write_name, string_name = \
            self._routes.get(disk) or self._route(disk)
        nbytes = nsectors * SECTOR_SIZE
        sim = self.sim

        def spawn_legs():
            return [
                sim.process(disk.read(lba, nsectors), name=read_name),
                sim.process(string.transfer(nbytes), name=string_name),
                sim.process(self._controller_transfer(string, nbytes),
                            name=self._xfer_name),
            ]

        with sim.tracer.span("cougar.read", self.name, nbytes=nbytes):
            yield from self._dual_string_delay(index)
            values = yield from self._run_attempts(index, spawn_legs)
            return values[0]

    def write(self, disk: DiskDrive, lba: int, data: bytes):
        """Process: write ``data`` to ``disk`` down through the controller."""
        string, index, _read_name, write_name, string_name = \
            self._routes.get(disk) or self._route(disk)
        nbytes = len(data)
        sim = self.sim

        def spawn_legs():
            return [
                sim.process(disk.write(lba, data), name=write_name),
                sim.process(string.transfer(nbytes, write=True),
                            name=string_name),
                sim.process(self._controller_transfer(string, nbytes),
                            name=self._xfer_name),
            ]

        with sim.tracer.span("cougar.write", self.name, nbytes=nbytes):
            yield from self._dual_string_delay(index)
            yield from self._run_attempts(index, spawn_legs)
            return None
