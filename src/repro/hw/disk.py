"""Disk drive model: mechanics plus a sparse page store.

A :class:`DiskDrive` is both a *timing* model (seek curve, rotational
latency, media transfer rate, track-buffer read-ahead) and a *storage*
model — it really stores the bytes written to it, so the RAID and
file-system layers above can be verified byte-for-byte.

The store is sparse at page granularity: a dict of :data:`PAGE_SIZE`
``bytearray`` pages, each allocated (zeroed) the first time a write
touches it.  A write lands with one slice assignment per page it
covers; a read returns immutable ``bytes`` built with exactly one copy
(pages never written read as zeros).  The store costs host time only —
it has no effect on simulated timing.  :meth:`DiskDrive.snapshot` and
:meth:`DiskDrive.restore` copy the pages out and back in for crash
tests (see :mod:`repro.faults.crash`).

Timing structure per operation (all under the drive's single command
slot, since a drive services one command at a time):

``overhead + seek + rotational latency + media transfer``

* Seek time follows ``min + (max - min) * sqrt(cylinder distance
  fraction)``; the head position is tracked between operations.
* Sequential reads (an operation starting where the previous read
  ended) skip both seek and rotational latency thanks to the on-drive
  track read-ahead buffer — "sequential reads benefit from the
  read-ahead performed into track buffers on the disks" (Section 2.3).
* Sequential writes skip the seek but still pay a configurable fraction
  of a revolution, because "writes have no such advantage".
"""

from __future__ import annotations

import math
from typing import Optional

from repro.errors import (DiskFailedError, HardwareError, MediumError,
                          SimulationError)
from repro.hw.specs import DiskSpec
from repro.sim import Resource, Simulator
from repro.units import KIB, MB, SECTOR_SIZE

#: Granularity of the sparse media store (a multiple of the sector size).
PAGE_SIZE = 64 * KIB

_ZERO_PAGE = bytes(PAGE_SIZE)

def _page_pieces(start: int, nbytes: int):
    """Split a byte extent by page: yields (page index, offset in the
    page, offset in the extent, length) for each page it touches."""
    done = 0
    while done < nbytes:
        index, offset = divmod(start + done, PAGE_SIZE)
        length = min(PAGE_SIZE - offset, nbytes - done)
        yield index, offset, done, length
        done += length


#: Relative slack for busy-time accounting checks: utilization may
#: exceed 1.0 by at most this much before it is treated as a bug.
UTILIZATION_TOLERANCE = 1e-9


class BusyMonitor:
    """Tracks how long a component spends busy, for utilization reports."""

    def __init__(self, sim: Simulator, name: str = ""):
        self.sim = sim
        self.name = name
        component = name or sim.metrics.unique_component("busy")
        self._gauge = sim.metrics.gauge(component, "busy_time", unit="s")
        self._busy_since: Optional[float] = None
        self._depth = 0

    @property
    def busy_time(self) -> float:
        return self._gauge.value

    def enter(self) -> None:
        if self._depth == 0:
            self._busy_since = self.sim.now
        self._depth += 1

    def exit(self) -> None:
        if self._depth <= 0:
            raise SimulationError(f"BusyMonitor {self.name!r} exit without enter")
        self._depth -= 1
        if self._depth == 0:
            assert self._busy_since is not None
            self._gauge.add(self.sim.now - self._busy_since)
            self._busy_since = None

    def utilization(self, elapsed: float) -> float:
        if elapsed <= 0:
            raise SimulationError("elapsed must be positive")
        busy = self._gauge.value
        if self._busy_since is not None:
            busy += self.sim.now - self._busy_since
        raw = busy / elapsed
        if raw > 1.0 + UTILIZATION_TOLERANCE:
            # A component cannot be busy for longer than the window:
            # this is an enter/exit accounting bug, not a measurement,
            # and silently clamping it would hide the corruption.
            raise SimulationError(
                f"BusyMonitor {self.name!r} utilization {raw:.9f} exceeds "
                "1.0: busy intervals overlap or exit() accounting is wrong")
        return min(1.0, raw)


class DiskDrive:
    """One simulated disk drive."""

    def __init__(self, sim: Simulator, spec: DiskSpec, name: str = "disk"):
        self.sim = sim
        self.spec = spec
        self.name = name
        self._slot = Resource(sim, capacity=1, name=f"{name}.slot")
        #: Sparse media: page index -> PAGE_SIZE bytes of that page.
        self._pages: dict[int, bytearray] = {}
        self._head_cylinder = 0
        #: (kind, next_lba) of the most recent operation, for
        #: sequential-access detection.
        self._last: Optional[tuple[str, int]] = None
        self.failed = False
        #: Optional fault-injection hook (see repro.faults.inject);
        #: consulted at the start of every timed operation.
        self.faults = None
        #: LBAs with latent sector errors: reads raise MediumError,
        #: writes heal (drives remap bad sectors on write).
        self._bad_sectors: set[int] = set()
        self.media_errors = 0
        self.busy = BusyMonitor(sim, name=f"{name}.busy")
        self.reads = 0
        self.writes = 0
        self.bytes_read = 0
        self.bytes_written = 0

    # ------------------------------------------------------------------
    # geometry
    # ------------------------------------------------------------------
    @property
    def num_sectors(self) -> int:
        return self.spec.num_sectors

    def cylinder_of(self, lba: int) -> int:
        return (lba * SECTOR_SIZE) // self.spec.cylinder_bytes

    def seek_time(self, from_cyl: int, to_cyl: int) -> float:
        """Seek curve: zero for same cylinder, sqrt law otherwise."""
        distance = abs(to_cyl - from_cyl)
        if distance == 0:
            return 0.0
        span = max(1, self.spec.num_cylinders - 1)
        fraction = min(1.0, distance / span)
        # A full-span seek can land one ULP above max_seek_s through
        # float rounding; clamp so the spec bound really is a bound.
        return min(self.spec.max_seek_s,
                   self.spec.min_seek_s
                   + (self.spec.max_seek_s - self.spec.min_seek_s)
                   * math.sqrt(fraction))

    def media_transfer_time(self, nbytes: int) -> float:
        return nbytes / (self.spec.media_rate_mb_s * MB)

    # ------------------------------------------------------------------
    # fault injection
    # ------------------------------------------------------------------
    def fail(self) -> None:
        """Mark the drive failed; subsequent I/O raises DiskFailedError."""
        self.failed = True

    def repair(self, wipe: bool = True) -> None:
        """Bring a replacement drive online (empty unless ``wipe=False``)."""
        self.failed = False
        if wipe:
            self._pages.clear()
            self._bad_sectors.clear()
        self._last = None
        self._head_cylinder = 0

    def mark_bad(self, lba: int, nsectors: int) -> None:
        """Install a latent sector error over ``nsectors`` at ``lba``.

        Reads overlapping the extent raise :class:`MediumError` until
        the sectors are rewritten.
        """
        self._check_extent(lba, nsectors)
        self._bad_sectors.update(range(lba, lba + nsectors))

    def _check_medium(self, lba: int, nsectors: int) -> None:
        bad = self._bad_sectors
        if bad and not bad.isdisjoint(range(lba, lba + nsectors)):
            self.media_errors += 1
            first = min(s for s in range(lba, lba + nsectors) if s in bad)
            raise MediumError(self.name, first)

    # ------------------------------------------------------------------
    # timed I/O (simulation processes)
    # ------------------------------------------------------------------
    def read(self, lba: int, nsectors: int):
        """Process: read ``nsectors`` starting at ``lba``; returns bytes."""
        self._check_extent(lba, nsectors)
        with self.sim.tracer.span("disk.read", self.name,
                                  nbytes=nsectors * SECTOR_SIZE, lba=lba):
            yield self._slot.acquire()
            self.busy.enter()
            try:
                faults = self.faults
                if faults is not None:
                    faults.on_disk_op(self, "read", lba, nsectors)
                if self.failed:
                    raise DiskFailedError(self.name)
                self._check_medium(lba, nsectors)
                yield self.sim.timeout(
                    self._service_time("read", lba, nsectors))
                self._last = ("read", lba + nsectors)
                self.reads += 1
                self.bytes_read += nsectors * SECTOR_SIZE
                return self.peek(lba, nsectors)
            finally:
                self.busy.exit()
                self._slot.release()

    def write(self, lba: int, data: bytes):
        """Process: write ``data`` (multiple of the sector size) at ``lba``."""
        if len(data) % SECTOR_SIZE != 0:
            raise HardwareError(
                f"write size {len(data)} is not sector-aligned")
        nsectors = len(data) // SECTOR_SIZE
        self._check_extent(lba, nsectors)
        with self.sim.tracer.span("disk.write", self.name,
                                  nbytes=len(data), lba=lba):
            yield self._slot.acquire()
            self.busy.enter()
            try:
                faults = self.faults
                if faults is not None:
                    faults.on_disk_op(self, "write", lba, nsectors)
                if self.failed:
                    raise DiskFailedError(self.name)
                yield self.sim.timeout(
                    self._service_time("write", lba, nsectors))
                self._last = ("write", lba + nsectors)
                self.poke(lba, data)
                self.writes += 1
                self.bytes_written += len(data)
                return None
            finally:
                self.busy.exit()
                self._slot.release()

    def _service_time(self, kind: str, lba: int, nsectors: int) -> float:
        spec = self.spec
        target_cyl = self.cylinder_of(lba)
        if kind == "read":
            # Track-buffer hit: exact continuation, or a small forward
            # skip the drive's read-ahead already covers (e.g. hopping
            # over a RAID-5 parity unit).
            gap = None
            if self._last is not None and self._last[0] == "read":
                gap = lba - self._last[1]
            if gap is not None and 0 <= gap <= spec.readahead_window_sectors:
                seek = 0.0 if target_cyl == self._head_cylinder \
                    else spec.min_seek_s
                rotation = 0.0
            else:
                seek = self.seek_time(self._head_cylinder, target_cyl)
                rotation = spec.avg_rotational_latency_s
        else:
            if self._last == ("write", lba):
                seek = 0.0
                rotation = (spec.sequential_write_rotation_fraction
                            * spec.revolution_time_s)
            else:
                seek = self.seek_time(self._head_cylinder, target_cyl)
                rotation = spec.avg_rotational_latency_s
        self._head_cylinder = target_cyl
        transfer = self.media_transfer_time(nsectors * SECTOR_SIZE)
        return spec.per_op_overhead_s + seek + rotation + transfer

    # ------------------------------------------------------------------
    # instantaneous (untimed) access, for verification and formatting
    # ------------------------------------------------------------------
    def peek(self, lba: int, nsectors: int) -> bytes:
        """Return stored bytes without consuming simulated time."""
        self._check_extent(lba, nsectors)
        pages = self._pages
        start = lba * SECTOR_SIZE
        nbytes = nsectors * SECTOR_SIZE
        index, offset = divmod(start, PAGE_SIZE)
        if offset + nbytes <= PAGE_SIZE:
            page = pages.get(index)
            if page is None:
                return _ZERO_PAGE[offset:offset + nbytes]
            # Pages are mutable: the caller gets its own immutable copy.
            return bytes(  # lint: disable=SIM004
                memoryview(page)[offset:offset + nbytes])
        return b"".join(
            memoryview(pages.get(index, _ZERO_PAGE))[offset:offset + length]
            for index, offset, _done, length in _page_pieces(start, nbytes))

    def poke(self, lba: int, data: bytes) -> None:
        """Store bytes without consuming simulated time."""
        if len(data) % SECTOR_SIZE != 0:
            raise HardwareError(
                f"write size {len(data)} is not sector-aligned")
        nsectors = len(data) // SECTOR_SIZE
        self._check_extent(lba, nsectors)
        view = memoryview(data)
        pages = self._pages
        for index, offset, done, length in _page_pieces(lba * SECTOR_SIZE,
                                                        len(data)):
            page = pages.get(index)
            if page is None:
                page = pages[index] = bytearray(PAGE_SIZE)
            # The durability boundary: the payload is copied in here.
            page[offset:offset + length] = view[done:done + length]
        if self._bad_sectors:
            # Writing a latent-error sector remaps/heals it.
            self._bad_sectors.difference_update(range(lba, lba + nsectors))

    def snapshot(self) -> dict[int, bytearray]:
        """Copy of the media as {page index: page}, untimed.

        Pages are copied, so later writes do not reach the snapshot.
        """
        return {index: bytearray(page) for index, page in self._pages.items()}

    def restore(self, pages: dict[int, bytearray]) -> None:
        """Replace the media with a :meth:`snapshot`, untimed.

        Pages are copied again, so one snapshot can seed many drives.
        """
        self._pages = {index: bytearray(page) for index, page in pages.items()}

    def _check_extent(self, lba: int, nsectors: int) -> None:
        if nsectors <= 0:
            raise HardwareError(f"transfer must cover >= 1 sector, got {nsectors}")
        if lba < 0 or lba + nsectors > self.spec.num_sectors:
            raise HardwareError(
                f"{self.name}: extent [{lba}, {lba + nsectors}) outside "
                f"0..{self.spec.num_sectors}")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<DiskDrive {self.name} ({self.spec.name})>"
