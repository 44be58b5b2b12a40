"""The four seeded workloads, driven through the public ``repro`` API.

Each workload is a :class:`Round` subclass whose constructor takes the
seed and builds a fresh, pre-filled system plus the inputs of its
timed phase.  Everything random (offsets, sizes, payloads, fill bytes,
fault times) is drawn here from ``random.Random(seed)``; the program
only ever receives the generated values.

Request sizes are *stratified*: every seed issues the same multiset of
sizes and operation kinds, and only their order, offsets and payloads
change.  A seed therefore changes where the work lands, not how much
work there is, which keeps host time comparable across seeds.

The simulated clients are closed-loop: each waits for its reply before
issuing its next request.
"""

from __future__ import annotations

import dataclasses
import random

from repro.analysis.scrub_raid import scrub_array
from repro.faults import DiskDeath, FaultPlan, TransientFault, attach_array
from repro.ffs import UpdateInPlaceFS
from repro.hw import IBM_0661, DiskDrive
from repro.hw.specs import LFS_SPEC
from repro.lfs import LogStructuredFS
from repro.raid import (DirectDiskPath, Raid1Controller, Raid3Controller,
                        Raid5Controller)
from repro.server import Raid2Config, Raid2Server
from repro.sim import Simulator
from repro.units import KIB, MIB, SECTOR_SIZE


class Round:
    """One built system and the timed phase to replay on it.

    ``parts`` lists every simulator the timed phase advances, each with
    the controllers and LFS instances living on it, so the harness can
    charge counts to layers.  ``timed(clock)`` runs the phase,
    issuing every client operation through ``clock.op``;
    ``verify(clock)`` runs the untimed end-of-round checks.
    ``client_bytes`` counts bytes the clients read and wrote.
    """

    def __init__(self):
        self.parts: list[Part] = []
        self.client_bytes = 0
        #: FFS writes, and the disk operations they caused.
        self.ffs_writes = 0
        self.ffs_write_disk_ops = 0

    def add(self, part: "Part") -> "Part":
        self.parts.append(part)
        return part

    def timed(self, clock) -> None:  # pragma: no cover - overridden
        raise NotImplementedError

    def verify(self, clock) -> None:
        """Untimed end-of-round checks (optional)."""


@dataclasses.dataclass
class Part:
    """One simulator and the storage stack it runs."""

    sim: Simulator
    controllers: list
    lfs: list = dataclasses.field(default_factory=list)
    #: Segment writers of crashed LFS instances, whose counts still
    #: belong to the round.
    retired_writers: list = dataclasses.field(default_factory=list)

    @property
    def disks(self) -> list[DiskDrive]:
        return [path.disk for ctrl in self.controllers
                for path in ctrl.paths]


def _sizes(rng: random.Random, base: list[int], repeat: int) -> list[int]:
    """``base`` repeated ``repeat`` times in a seeded order."""
    sizes = base * repeat
    rng.shuffle(sizes)
    return sizes


def _offset(rng: random.Random, span: int, nbytes: int,
            align: int = SECTOR_SIZE) -> int:
    return rng.randrange((span - nbytes) // align + 1) * align


def _small_disk(capacity_bytes: int):
    return dataclasses.replace(IBM_0661, capacity_bytes=capacity_bytes)


# ----------------------------------------------------------------------
# array-random: raw-array random reads and overwrites (Figure 5 setup)
# ----------------------------------------------------------------------

#: Working set at the start of the array; random requests land in it.
ARRAY_WORKING_SET = 32 * MIB
#: Figure 5's request sizes, 64 KB .. 1.6 MB.
ARRAY_SIZES = [size * KIB for size in
               (64, 128, 256, 384, 512, 640, 704, 768, 832, 896, 1024,
                1280, 1600)]
ARRAY_READ_REPEAT = 16    # 208 synchronous reads
ARRAY_WRITE_REPEAT = 8    # 104 writes per write-behind writer


class ArrayRandom(Round):
    """One synchronous reader and two write-behind writers.

    The writers own disjoint halves of the working set, so the final
    array contents are exact; the reader ranges over all of it.
    ``hw_read`` delivers its data to the HIPPI loopback rather than to
    the caller, so each read is checked against the array's stored
    bytes at completion, skipping only ranges a writer has in flight.
    """

    def __init__(self, seed: int):
        super().__init__()
        rng = random.Random(seed)
        sim = Simulator()
        self.server = Raid2Server(sim, Raid2Config.paper_default())
        self.part = self.add(Part(sim, [self.server.raid]))
        self.shadow = bytearray(rng.randbytes(ARRAY_WORKING_SET))
        sim.run_process(self.server.raid.write(0, bytes(self.shadow)))

        span = ARRAY_WORKING_SET
        self.reads = [(_offset(rng, span, n), n)
                      for n in _sizes(rng, ARRAY_SIZES, ARRAY_READ_REPEAT)]
        half = span // 2
        self.writes = []
        for writer in range(2):
            self.writes.append([
                (writer * half + _offset(rng, half, n), n,
                 rng.randrange(1, 256))
                for n in _sizes(rng, ARRAY_SIZES, ARRAY_WRITE_REPEAT)])
        self.in_flight: dict[int, tuple[int, int]] = {}

    def _reader(self, clock):
        server = self.server
        for offset, nbytes in self.reads:
            yield from clock.op("read", server.hw_read(offset, nbytes))
            with clock.checking():
                clock.verify(self._matches(offset, nbytes))
            self.client_bytes += nbytes

    def _matches(self, offset: int, nbytes: int) -> bool:
        stored = self.server.raid.peek(offset, nbytes)
        end = offset + nbytes
        # Compare piecewise around any range a writer has in flight.
        cursor = offset
        for w_off, w_len in sorted(self.in_flight.values()):
            w_end = w_off + w_len
            if w_end <= cursor or w_off >= end:
                continue
            if w_off > cursor and not self._same(stored, offset, cursor,
                                                 w_off):
                return False
            cursor = max(cursor, w_end)
        return cursor >= end or self._same(stored, offset, cursor, end)

    def _same(self, stored: bytes, base: int, start: int, end: int) -> bool:
        return (stored[start - base:end - base]
                == self.shadow[start:end])

    def _writer(self, clock, index: int):
        server = self.server
        for offset, nbytes, fill in self.writes[index]:
            self.in_flight[index] = (offset, nbytes)
            yield from clock.op("write",
                                server.hw_write(offset, nbytes, fill=fill))
            del self.in_flight[index]
            self.shadow[offset:offset + nbytes] = bytes([fill]) * nbytes
            self.client_bytes += nbytes

    def timed(self, clock) -> None:
        sim = self.part.sim
        clients = [sim.process(self._reader(clock)),
                   sim.process(self._writer(clock, 0)),
                   sim.process(self._writer(clock, 1))]
        sim.run_process(_wait_all(sim, clients))

    def verify(self, clock) -> None:
        stored = self.server.raid.peek(0, ARRAY_WORKING_SET)
        clock.record_check("read-back", stored == self.shadow)


def _wait_all(sim, processes):
    yield sim.all_of(processes)


# ----------------------------------------------------------------------
# lfs-mixed: small and large random reads and overwrites through LFS
# ----------------------------------------------------------------------

#: Per-disk capacity: small enough that the overwrites use up the
#: clean segments, so the client has to run the cleaner.
LFS_DISK_BYTES = 2 * MIB
LFS_LARGE_FILES = 4
LFS_LARGE_BYTES = 2 * MIB
LFS_SMALL_FILES = 32
LFS_SMALL_BYTES = 128 * KIB
LFS_SMALL_SIZES = [size * KIB for size in (4, 8, 16, 32, 48, 64)]
LFS_LARGE_SIZES = [size * KIB for size in (1024, 1536)]
#: Operations per round: small and large sizes, each read and written.
LFS_SMALL_REPEAT = 24     # 144 small reads + 144 small writes
LFS_LARGE_REPEAT = 16     # 32 large reads + 32 large writes
LFS_SYNC_EVERY = 16
#: Run the cleaner when fewer clean segments than this remain.
LFS_CLEAN_BELOW = 6
LFS_CLEAN_SEGMENTS = 4


class LfsMixed(Round):
    """One client interleaving small and large reads and overwrites."""

    def __init__(self, seed: int):
        super().__init__()
        rng = random.Random(seed)
        base = Raid2Config.fig8_lfs()
        config = dataclasses.replace(base, xbus=dataclasses.replace(
            base.xbus, disk_spec=_small_disk(LFS_DISK_BYTES)))
        sim = Simulator()
        self.server = Raid2Server(sim, config)
        sim.run_process(self.server.setup_lfs())
        fs = self.server.fs
        self.part = self.add(Part(sim, [self.server.raid], lfs=[fs]))

        self.shadow: dict[str, bytearray] = {}
        files = ([(f"/large{i}", LFS_LARGE_BYTES)
                  for i in range(LFS_LARGE_FILES)]
                 + [(f"/small{i:02d}", LFS_SMALL_BYTES)
                    for i in range(LFS_SMALL_FILES)])
        for path, size in files:
            self.shadow[path] = bytearray(rng.randbytes(size))

        def prefill():
            for path, data in self.shadow.items():
                yield from fs.create(path)
                yield from fs.write(path, 0, bytes(data))
            yield from fs.checkpoint()

        sim.run_process(prefill())

        large = [path for path, _ in files[:LFS_LARGE_FILES]]
        small = [path for path, _ in files[LFS_LARGE_FILES:]]
        ops = []
        for kind in ("read", "write"):
            for nbytes in LFS_SMALL_SIZES * LFS_SMALL_REPEAT:
                ops.append((kind, small, nbytes))
            for nbytes in LFS_LARGE_SIZES * LFS_LARGE_REPEAT:
                ops.append((kind, large, nbytes))
        rng.shuffle(ops)
        self.ops = []
        for kind, paths, nbytes in ops:
            path = rng.choice(paths)
            offset = _offset(rng, len(self.shadow[path]), nbytes)
            payload = rng.randbytes(nbytes) if kind == "write" else None
            self.ops.append((kind, path, offset, nbytes, payload))

    def _client(self, clock):
        fs = self.server.fs
        for index, (kind, path, offset, nbytes, payload) in enumerate(
                self.ops, start=1):
            if kind == "read":
                data = yield from clock.op("read",
                                           fs.read(path, offset, nbytes))
                with clock.checking():
                    clock.verify(
                        data == self.shadow[path][offset:offset + nbytes])
            else:
                if fs.free_segments() < LFS_CLEAN_BELOW:
                    yield from clock.op(
                        "clean", fs.clean(max_segments=LFS_CLEAN_SEGMENTS))
                yield from clock.op("write", fs.write(path, offset, payload))
                self.shadow[path][offset:offset + nbytes] = payload
            self.client_bytes += nbytes
            if index % LFS_SYNC_EVERY == 0:
                yield from clock.op("sync", fs.sync())

    def timed(self, clock) -> None:
        self.part.sim.run_process(self._client(clock))

    def verify(self, clock) -> None:
        fs = self.server.fs
        sim = self.part.sim
        for path, expected in self.shadow.items():
            data = sim.run_process(fs.read(path, 0, len(expected)))
            clock.record_check("read-back", data == expected)


# ----------------------------------------------------------------------
# fs-recovery: the Section 3.1 claim, FFS fsck vs LFS roll-forward
# ----------------------------------------------------------------------

RECOVERY_DISK_BYTES = 16 * MIB
RECOVERY_DISKS = 8
RECOVERY_FILES = 60
#: File sizes cycle through these, all past the FFS direct blocks so
#: every file needs an indirect block.
RECOVERY_SIZES = [size * KIB for size in (64, 80, 96, 112, 128)]
#: FFS writes each file in two passes, the second in a seeded file
#: order, which scatters indirect blocks as on an aged volume.
RECOVERY_FIRST_PASS = 44 * KIB
RECOVERY_TAIL_WRITES = 8
RECOVERY_SPEC = dataclasses.replace(LFS_SPEC, fs_overhead_s=0.0,
                                    small_write_overhead_s=0.0)


def _raid5_array(sim: Simulator, ndisks: int, disk_bytes: int):
    spec = _small_disk(disk_bytes)
    paths = [DirectDiskPath(DiskDrive(sim, spec, name=f"d{index}"))
             for index in range(ndisks)]
    return Raid5Controller(sim, paths, 64 * KIB)


class FsRecovery(Round):
    """Populate FFS and LFS with one file set, fsck, crash, remount."""

    def __init__(self, seed: int):
        super().__init__()
        rng = random.Random(seed)
        sizes = RECOVERY_SIZES * (RECOVERY_FILES // len(RECOVERY_SIZES))
        rng.shuffle(sizes)
        self.files = {f"/f{index:04d}": rng.randbytes(size)
                      for index, size in enumerate(sizes)}
        self.order = list(self.files)
        rng.shuffle(self.order)
        self.tail = []
        for _ in range(RECOVERY_TAIL_WRITES):
            path = rng.choice(self.order)
            nbytes = 16 * KIB
            offset = _offset(rng, len(self.files[path]), nbytes)
            self.tail.append((path, offset, rng.randbytes(nbytes)))

        inodes = RECOVERY_FILES + 16
        ffs_sim = Simulator()
        ffs_raid = _raid5_array(ffs_sim, RECOVERY_DISKS,
                                RECOVERY_DISK_BYTES)
        self.ffs = UpdateInPlaceFS(ffs_sim, ffs_raid, max_files=inodes)
        ffs_sim.run_process(self.ffs.format())
        self.ffs_part = self.add(Part(ffs_sim, [ffs_raid]))

        lfs_sim = Simulator()
        self.lfs_raid = _raid5_array(lfs_sim, RECOVERY_DISKS,
                                     RECOVERY_DISK_BYTES)
        self.lfs = LogStructuredFS(lfs_sim, self.lfs_raid,
                                   spec=RECOVERY_SPEC, max_inodes=inodes)
        lfs_sim.run_process(self.lfs.format())
        self.lfs_part = self.add(Part(lfs_sim, [self.lfs_raid],
                                      lfs=[self.lfs]))
        self.shadow = {path: bytearray(data)
                       for path, data in self.files.items()}

    def _populate_ffs(self, clock):
        ffs = self.ffs
        for path, data in self.files.items():
            yield from clock.op("create", ffs.create(path))
            yield from clock.op("write", ffs.write(
                path, 0, data[:RECOVERY_FIRST_PASS]))
            self.client_bytes += RECOVERY_FIRST_PASS
        for path in self.order:
            data = self.files[path]
            yield from clock.op("write", ffs.write(
                path, RECOVERY_FIRST_PASS, data[RECOVERY_FIRST_PASS:]))
            self.client_bytes += len(data) - RECOVERY_FIRST_PASS
        self.ffs_writes = 2 * len(self.files)

    def _fsck(self, clock):
        report = yield from clock.op("fsck", self.ffs.fsck())
        with clock.checking():
            clock.verify(report is not None and report["errors"] == 0
                         and report["files"] == len(self.files))

    def _populate_lfs(self, clock):
        lfs = self.lfs
        for path in self.order:
            data = self.files[path]
            yield from clock.op("create", lfs.create(path))
            yield from clock.op("write", lfs.write(path, 0, data))
            self.client_bytes += len(data)
        yield from clock.op("checkpoint", lfs.checkpoint())
        # Post-checkpoint activity for the roll-forward to replay.
        for path, offset, data in self.tail:
            yield from clock.op("write", lfs.write(path, offset, data))
            self.shadow[path][offset:offset + len(data)] = data
            self.client_bytes += len(data)
        yield from clock.op("sync", lfs.sync())

    def _remount(self, clock):
        remount = LogStructuredFS(self.lfs_part.sim, self.lfs_raid,
                                  spec=RECOVERY_SPEC,
                                  max_inodes=RECOVERY_FILES + 16)
        yield from clock.op("mount", remount.mount())
        self.lfs = remount
        self.lfs_part.lfs.append(remount)
        for path, expected in self.shadow.items():
            data = yield from clock.op("read",
                                       remount.read(path, 0, len(expected)))
            with clock.checking():
                clock.verify(data == expected)
            self.client_bytes += len(expected)

    def timed(self, clock) -> None:
        ffs_sim = self.ffs_part.sim
        disks = self.ffs_part.disks
        before = sum(disk.reads + disk.writes for disk in disks)
        ffs_sim.run_process(self._populate_ffs(clock))
        self.ffs_write_disk_ops = sum(disk.reads + disk.writes
                                      for disk in disks) - before
        ffs_sim.run_process(self._fsck(clock))

        lfs_sim = self.lfs_part.sim
        lfs_sim.run_process(self._populate_lfs(clock))
        self.lfs_part.retired_writers.append(self.lfs.writer)
        self.lfs.crash()
        lfs_sim.run_process(self._remount(clock))

    def verify(self, clock) -> None:
        sim = self.ffs_part.sim
        for path, data in self.files.items():
            got = sim.run_process(self.ffs.read(path, 0, len(data)))
            clock.record_check("read-back", got == data)


# ----------------------------------------------------------------------
# degraded-rebuild: disk death, degraded service, rebuild racing clients
# ----------------------------------------------------------------------

DEGRADED_DISK_BYTES = 4 * MIB
DEGRADED_UNIT = 16 * KIB
DEGRADED_WORKING_SET = 2 * MIB
DEGRADED_SIZES = [size * KIB for size in (4, 8, 16, 24, 32, 48, 64)]
#: Requests per phase and level: each size read and written this often.
DEGRADED_REPEAT = 12
#: Simulated seconds into the healthy stream at which d0 dies.
DEGRADED_DEATH_AFTER_S = 0.25
VICTIM = 0


def _level_array(sim: Simulator, level: int):
    ndisks = 4 if level == 1 else 5
    spec = _small_disk(DEGRADED_DISK_BYTES)
    paths = [DirectDiskPath(DiskDrive(sim, spec, name=f"d{index}"))
             for index in range(ndisks)]
    if level == 1:
        return Raid1Controller(sim, paths, DEGRADED_UNIT,
                               name="raid1")
    if level == 3:
        return Raid3Controller(sim, paths, name="raid3")
    return Raid5Controller(sim, paths, DEGRADED_UNIT, name="raid5")


def _background(clock, kind: str, call):
    """Process: run a background job; it counts as one check, untimed."""
    try:
        yield from call
    except Exception:  # counted as a failed check; the round goes on
        clock.record_check(kind, False)
    else:
        clock.record_check(kind, True)


def _rows_covering(ctrl, nbytes: int) -> int:
    layout = ctrl.layout
    row_bytes = layout.data_units_per_row * layout.unit_sectors * SECTOR_SIZE
    return -(-nbytes // row_bytes) + 1


class DegradedRebuild(Round):
    """RAID 1, 3 and 5 each lose d0 mid-stream, then rebuild under load.

    One client per array keeps reading and overwriting through the
    disk death; the dead disk is then replaced and ``rebuild()`` races
    the client's second stream.  The round ends with a parity (or
    mirror) scrub of every array.

    ``Raid1Controller`` has no rebuild frontier: once the replacement is
    repaired, reads alternate onto it before its rows are rebuilt and
    return its blank bytes.  Those reads count as failed operations;
    the workload keeps RAID 1 reads racing the rebuild so the defect
    stays visible in ``failed`` until it is fixed.
    """

    LEVELS = (1, 3, 5)

    def __init__(self, seed: int):
        super().__init__()
        rng = random.Random(seed)
        self.arrays = []
        for level in self.LEVELS:
            sim = Simulator()
            ctrl = _level_array(sim, level)
            shadow = bytearray(rng.randbytes(DEGRADED_WORKING_SET))
            sim.run_process(ctrl.write(0, bytes(shadow)))
            phases = [self._stream(rng) for _ in range(2)]
            plan = FaultPlan.of(
                TransientFault(disk="d1", at_s=sim.now, count=2),
                DiskDeath(disk=f"d{VICTIM}",
                          at_s=sim.now + DEGRADED_DEATH_AFTER_S))
            self.add(Part(sim, [ctrl]))
            self.arrays.append((sim, ctrl, shadow, phases, plan))

    @staticmethod
    def _stream(rng: random.Random) -> list:
        ops = [(kind, nbytes) for kind in ("read", "write")
               for nbytes in DEGRADED_SIZES * DEGRADED_REPEAT]
        rng.shuffle(ops)
        return [(kind, _offset(rng, DEGRADED_WORKING_SET, nbytes),
                 nbytes, rng.randbytes(nbytes) if kind == "write" else None)
                for kind, nbytes in ops]

    def _client(self, clock, ctrl, shadow, ops):
        for kind, offset, nbytes, payload in ops:
            if kind == "read":
                data = yield from clock.op("read", ctrl.read(offset, nbytes))
                with clock.checking():
                    clock.verify(data == shadow[offset:offset + nbytes])
            else:
                yield from clock.op("write", ctrl.write(offset, payload))
                shadow[offset:offset + nbytes] = payload
            self.client_bytes += nbytes

    def _level(self, clock, sim, ctrl, shadow, phases, plan):
        attach_array(plan, ctrl)
        # Healthy, then degraded once d0 dies mid-stream.
        yield from self._client(clock, ctrl, shadow, phases[0])
        # Replace the disk; the rebuild races the second stream.
        ctrl.paths[VICTIM].disk.repair()
        rows = _rows_covering(ctrl, DEGRADED_WORKING_SET)
        rebuild = sim.process(_background(clock, "rebuild", ctrl.rebuild(
            VICTIM, max_rows=rows)))
        yield from self._client(clock, ctrl, shadow, phases[1])
        yield rebuild
        with clock.checking():
            clock.record_check("scrub",
                               scrub_array(ctrl, max_rows=rows).ok)

    def timed(self, clock) -> None:
        for sim, ctrl, shadow, phases, plan in self.arrays:
            sim.run_process(self._level(clock, sim, ctrl, shadow, phases,
                                        plan))

    def verify(self, clock) -> None:
        for sim, ctrl, shadow, _phases, _plan in self.arrays:
            data = sim.run_process(ctrl.read(0, DEGRADED_WORKING_SET))
            clock.record_check("read-back", data == shadow)


WORKLOADS = {
    "array-random": ArrayRandom,
    "lfs-mixed": LfsMixed,
    "fs-recovery": FsRecovery,
    "degraded-rebuild": DegradedRebuild,
}
