"""Property tests: random single-failure plans and rebuild races.

Hypothesis draws a random workload (aligned reads/writes over a fixed
region) and one random fault event (disk death, transient burst, or
latent sector error).  Whatever it picks, every read must return the
bytes most recently written, and after repairing and rebuilding any
dead disk the redundancy must scrub clean.  The same client stream
also races ``rebuild()`` of a replaced disk: reads and writes that
interleave with the rebuild frontier must see the same bytes.
"""

import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import (DiskDeath, FaultPlan, LatentSectorError,
                          TransientFault, attach_array)
from repro.hw import IBM_0661, DiskDrive
from repro.raid import (DirectDiskPath, Raid1Controller, Raid3Controller,
                        Raid5Controller)
from repro.sim import Simulator
from repro.testing import assert_parity_clean
from repro.units import KIB, MIB, SECTOR_SIZE

SMALL_DISK = dataclasses.replace(IBM_0661, capacity_bytes=2 * MIB)
UNIT = 8 * KIB
#: All I/O stays inside this region so rebuild + scrub stay cheap.
REGION = 256 * KIB

#: Sectors of one disk the written region can span (conservative bound
#: so latent errors land where reads will hit them).
REGION_DISK_SECTORS = REGION // SECTOR_SIZE // 2

OPS = st.lists(
    st.tuples(
        st.integers(0, REGION // SECTOR_SIZE - 1),   # offset (sectors)
        st.integers(1, 32),                          # length (sectors)
        st.booleans(),                               # write?
        st.integers(0, 2 ** 16),                     # payload seed
    ),
    min_size=1, max_size=10)


def _fault_strategy(disk_names):
    times = st.floats(0.0, 0.3, allow_nan=False, allow_infinity=False)
    return st.one_of(
        st.builds(DiskDeath, disk=st.sampled_from(disk_names), at_s=times),
        # count stays below the retry policy's max_attempts (4) so
        # transients always heal.
        st.builds(TransientFault, disk=st.sampled_from(disk_names),
                  at_s=times, count=st.integers(1, 3)),
        st.builds(LatentSectorError, disk=st.sampled_from(disk_names),
                  lba=st.integers(0, REGION_DISK_SECTORS), at_s=times,
                  nsectors=st.integers(1, 8)),
    )


def pattern(nbytes, seed):
    return random.Random(seed).randbytes(nbytes)


def _make(level, sim):
    paths = [DirectDiskPath(DiskDrive(sim, SMALL_DISK, name=f"d{i}"))
             for i in range(4 if level == 1 else 5)]
    if level == 1:
        return paths, Raid1Controller(sim, paths, UNIT)
    if level == 3:
        return paths, Raid3Controller(sim, paths)
    return paths, Raid5Controller(sim, paths, UNIT)


def _region_rows(ctrl):
    """Rows covering the region, plus slack."""
    layout = ctrl.layout
    return REGION // (layout.data_units_per_row
                      * layout.stripe_unit_bytes) + 2


def _seed_region(sim, ctrl):
    base = pattern(REGION, seed=1)
    sim.run_process(ctrl.write(0, base))
    return bytearray(base)


def _client(ctrl, ops, shadow, wrong):
    """Process: run ``ops`` one at a time against ``ctrl``; reads that
    differ from ``shadow`` (the bytes last written) go to ``wrong``."""
    for offset_s, length_s, is_write, seed in ops:
        offset = offset_s * SECTOR_SIZE
        nbytes = min(length_s * SECTOR_SIZE, REGION - offset)
        if nbytes <= 0:
            continue
        if is_write:
            payload = pattern(nbytes, seed=seed)
            yield from ctrl.write(offset, payload)
            shadow[offset:offset + nbytes] = payload
        else:
            data = yield from ctrl.read(offset, nbytes)
            if data != bytes(shadow[offset:offset + nbytes]):
                wrong.append((offset, nbytes))


def _exercise(sim, paths, ctrl, ops, fault):
    shadow = _seed_region(sim, ctrl)
    attach_array(FaultPlan.of(fault), ctrl)
    wrong = []
    sim.run_process(_client(ctrl, ops, shadow, wrong))
    assert wrong == []
    assert sim.run_process(ctrl.read(0, REGION)) == bytes(shadow)

    rows = _region_rows(ctrl)
    for index, path in enumerate(paths):
        if path.disk.failed:
            path.disk.repair()
            sim.run_process(ctrl.rebuild(index, max_rows=rows))
    assert_parity_clean(ctrl, max_rows=rows)
    assert sim.run_process(ctrl.read(0, REGION)) == bytes(shadow)


def _race_rebuild(sim, paths, ctrl, ops, victim, delay_s):
    """Replace ``victim`` and run ``ops`` while ``rebuild()`` runs; the
    client starts ``delay_s`` after the rebuild.  Returns the wrong
    reads (a final read-back of the region included) and the number of
    rows rebuilt."""
    shadow = _seed_region(sim, ctrl)
    paths[victim].disk.fail()
    paths[victim].disk.repair()  # blank replacement
    rows = _region_rows(ctrl)
    wrong = []

    def client():
        yield sim.timeout(delay_s)
        yield from _client(ctrl, ops, shadow, wrong)

    rebuild = sim.process(ctrl.rebuild(victim, max_rows=rows))
    sim.process(client())
    sim.run()
    assert rebuild.processed
    if sim.run_process(ctrl.read(0, REGION)) != bytes(shadow):
        wrong.append((0, REGION))
    return wrong, rows


def _single_fault(level, data):
    sim = Simulator()
    paths, ctrl = _make(level, sim)
    ops = data.draw(OPS)
    fault = data.draw(_fault_strategy([path.disk.name for path in paths]))
    _exercise(sim, paths, ctrl, ops, fault)


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_raid5_serves_written_bytes_under_any_single_fault(data):
    _single_fault(5, data)


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_raid3_serves_written_bytes_under_any_single_fault(data):
    _single_fault(3, data)


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_raid1_serves_written_bytes_under_any_single_fault(data):
    _single_fault(1, data)


@pytest.mark.parametrize("level", [5, 3])
@settings(max_examples=25, deadline=None)
@given(ops=OPS, victim=st.integers(0, 4),
       delay_s=st.floats(0.0, 0.3, allow_nan=False, allow_infinity=False))
def test_reads_and_writes_racing_rebuild_see_written_bytes(level, ops,
                                                           victim, delay_s):
    sim = Simulator()
    paths, ctrl = _make(level, sim)
    wrong, rows = _race_rebuild(sim, paths, ctrl, ops, victim, delay_s)
    assert wrong == []
    assert_parity_clean(ctrl, max_rows=rows)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="RAID 1 has no rebuild frontier (ROADMAP item 2)")
def test_raid1_reads_and_writes_racing_rebuild_see_written_bytes():
    """RAID 1 fails the race above.  This stream shows both of its
    defects, which the rebuild engine of ROADMAP item 2 is to fix:

    * ``repair()`` clears ``failed``, so ``_pick_copy`` alternates reads
      onto the blank replacement before the rebuild reaches their rows.
    * ``Raid1Controller.rebuild`` takes no row lock: a client write can
      land between the rebuild's read of the mirror and its write to the
      replacement, which then keeps the stale copy and the mirror scrub
      fails afterwards.
    """
    sim = Simulator()
    paths, ctrl = _make(1, sim)
    ops = [(offset_s, 64, offset_s % 3 == 0, offset_s)
           for offset_s in range(0, REGION // SECTOR_SIZE, 64)]
    wrong, rows = _race_rebuild(sim, paths, ctrl, ops, victim=0,
                                delay_s=0.0)
    assert wrong == []
    assert_parity_clean(ctrl, max_rows=rows)
