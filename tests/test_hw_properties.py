"""Property-based tests for the hardware timing models."""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import MediumError
from repro.hw import IBM_0661, SEAGATE_WREN_IV, DiskDrive
from repro.hw.disk import PAGE_SIZE
from repro.hw.vme import Direction, VmePort
from repro.sim import BandwidthChannel, Simulator
from repro.units import SECTOR_SIZE

specs = st.sampled_from([IBM_0661, SEAGATE_WREN_IV])


@given(spec=specs, data=st.data())
@settings(max_examples=60, deadline=None)
def test_seek_time_monotone_and_bounded(spec, data):
    sim = Simulator()
    disk = DiskDrive(sim, spec)
    ncyl = spec.num_cylinders
    a = data.draw(st.integers(0, ncyl - 1))
    b = data.draw(st.integers(0, ncyl - 1))
    c = data.draw(st.integers(0, ncyl - 1))
    t_ab = disk.seek_time(a, b)
    # Symmetry.
    assert t_ab == disk.seek_time(b, a)
    # Zero distance is free; any move costs at least the settle time.
    if a == b:
        assert t_ab == 0.0
    else:
        assert spec.min_seek_s <= t_ab <= spec.max_seek_s
    # Monotone in distance.
    if abs(a - c) >= abs(a - b):
        assert disk.seek_time(a, c) >= t_ab - 1e-12


@given(spec=specs,
       nsectors=st.integers(min_value=1, max_value=512))
@settings(max_examples=40, deadline=None)
def test_media_transfer_linear_in_size(spec, nsectors):
    sim = Simulator()
    disk = DiskDrive(sim, spec)
    one = disk.media_transfer_time(SECTOR_SIZE)
    many = disk.media_transfer_time(nsectors * SECTOR_SIZE)
    assert abs(many - nsectors * one) < 1e-9


@given(spec=specs, data=st.data())
@settings(max_examples=30, deadline=None)
def test_random_op_never_cheaper_than_sequential(spec, data):
    """For the same transfer, a cold random op costs at least as much
    as a sequential continuation."""
    sim = Simulator()
    disk = DiskDrive(sim, spec)
    nsectors = data.draw(st.integers(1, 256))
    span = disk.num_sectors - 2 * nsectors - 1

    def run_sequential():
        yield from disk.read(0, nsectors)
        start = sim.now
        yield from disk.read(nsectors, nsectors)
        return sim.now - start

    sequential = sim.run_process(run_sequential())

    far_lba = data.draw(st.integers(nsectors + 1, span))
    start = sim.now

    def run_random():
        yield from disk.read(far_lba + nsectors, nsectors)

    sim.run_process(run_random())
    random_cost = sim.now - start
    assert random_cost >= sequential - 1e-12


@given(sizes=st.lists(st.integers(1, 1_000_000), min_size=1, max_size=6),
       rate=st.floats(min_value=0.5, max_value=100.0))
@settings(max_examples=40, deadline=None)
def test_channel_serial_time_is_additive(sizes, rate):
    sim = Simulator()
    channel = BandwidthChannel(sim, rate_mb_s=rate)

    def mover():
        for size in sizes:
            yield from channel.transfer(size)

    sim.run_process(mover())
    expected = sum(channel.transfer_time(size) for size in sizes)
    assert abs(sim.now - expected) < 1e-9
    assert channel.bytes_moved == sum(sizes)


@given(nbytes=st.integers(0, 10_000_000))
@settings(max_examples=40, deadline=None)
def test_vme_write_never_faster_than_read(nbytes):
    sim = Simulator()
    port = VmePort(sim)
    assert port.transfer_time(nbytes, Direction.WRITE) >= \
        port.transfer_time(nbytes, Direction.READ)


@given(spec=specs, fill=st.binary(min_size=SECTOR_SIZE,
                                  max_size=4 * SECTOR_SIZE))
@settings(max_examples=30, deadline=None)
def test_disk_store_roundtrip_any_payload(spec, fill):
    sim = Simulator()
    disk = DiskDrive(sim, spec)
    aligned = fill[:len(fill) - len(fill) % SECTOR_SIZE]
    if not aligned:
        return
    disk.poke(10, aligned)
    assert disk.peek(10, len(aligned) // SECTOR_SIZE) == aligned


# A disk of four whole pages plus a partial fifth, so extents can end on
# the disk's last sector inside a page that is only partly addressable.
_PAGED_DISK = dataclasses.replace(
    IBM_0661, capacity_bytes=4 * PAGE_SIZE + 3 * SECTOR_SIZE)
_SECTORS_PER_PAGE = PAGE_SIZE // SECTOR_SIZE
_PAGED_SECTORS = _PAGED_DISK.capacity_bytes // SECTOR_SIZE


@st.composite
def _extents(draw):
    """(lba, nsectors) biased towards page boundaries and the disk end."""
    nsectors = draw(st.integers(1, 2 * _SECTORS_PER_PAGE + 5))
    last = _PAGED_SECTORS - nsectors
    boundary = draw(st.integers(1, 4)) * _SECTORS_PER_PAGE
    lba = draw(st.one_of(
        st.integers(0, last),
        st.just(last),
        st.integers(-nsectors + 1, 2).map(lambda d: boundary + d)))
    return max(0, min(lba, last)), nsectors


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_page_store_matches_flat_model(data):
    """Random poke/peek/repair sequences agree with a flat bytearray."""
    disk = DiskDrive(Simulator(), _PAGED_DISK)
    model = bytearray(_PAGED_DISK.capacity_bytes)
    held: list[tuple[bytes, bytes]] = []
    for _ in range(data.draw(st.integers(1, 12))):
        op = data.draw(st.sampled_from(
            ["poke", "poke", "peek", "peek", "wipe", "keep"]))
        if op in ("wipe", "keep"):
            disk.repair(wipe=op == "wipe")
            if op == "wipe":
                model[:] = bytes(len(model))
            continue
        lba, nsectors = data.draw(_extents())
        start, end = lba * SECTOR_SIZE, (lba + nsectors) * SECTOR_SIZE
        if op == "poke":
            fill = data.draw(st.integers(0, 255))
            payload = bytes([fill]) * (end - start - 1) + b"\x5a"
            disk.poke(lba, payload)
            model[start:end] = payload
        else:
            got = disk.peek(lba, nsectors)
            assert type(got) is bytes
            assert got == model[start:end]
            held.append((got, bytes(model[start:end])))
    # Earlier peek results are snapshots: later pokes never reach them.
    for got, expected in held:
        assert got == expected
    assert disk.peek(0, _PAGED_SECTORS) == model


def test_page_store_never_written_pages_read_as_zeros():
    disk = DiskDrive(Simulator(), _PAGED_DISK)
    disk.poke(_SECTORS_PER_PAGE, b"\x01" * SECTOR_SIZE)
    # Spans an untouched page, the written one and the untouched rest.
    got = disk.peek(_SECTORS_PER_PAGE - 1, 2 * _SECTORS_PER_PAGE)
    assert got == (bytes(SECTOR_SIZE) + b"\x01" * SECTOR_SIZE
                   + bytes((2 * _SECTORS_PER_PAGE - 2) * SECTOR_SIZE))
    assert disk.peek(_PAGED_SECTORS - 1, 1) == bytes(SECTOR_SIZE)


def test_page_store_last_sector_roundtrip():
    disk = DiskDrive(Simulator(), _PAGED_DISK)
    disk.poke(_PAGED_SECTORS - 1, b"\xee" * SECTOR_SIZE)
    assert disk.peek(_PAGED_SECTORS - 1, 1) == b"\xee" * SECTOR_SIZE
    assert disk.peek(_PAGED_SECTORS - 4, 4)[:3 * SECTOR_SIZE] == \
        bytes(3 * SECTOR_SIZE)


@pytest.mark.parametrize("wipe", [True, False])
def test_page_store_repair(wipe):
    disk = DiskDrive(Simulator(), _PAGED_DISK)
    payload = b"\x33" * (3 * SECTOR_SIZE)
    disk.poke(_SECTORS_PER_PAGE - 1, payload)
    disk.repair(wipe=wipe)
    expected = bytes(len(payload)) if wipe else payload
    assert disk.peek(_SECTORS_PER_PAGE - 1, 3) == expected


def test_mark_bad_heals_across_a_page_boundary():
    sim = Simulator()
    disk = DiskDrive(sim, _PAGED_DISK)
    lba = 2 * _SECTORS_PER_PAGE - 2
    disk.mark_bad(lba, 4)
    with pytest.raises(MediumError):
        sim.run_process(disk.read(lba + 3, 1))
    # Rewriting the extent, split across two pages, heals every sector.
    payload = b"\x77" * (4 * SECTOR_SIZE)
    disk.poke(lba, payload)
    assert sim.run_process(disk.read(lba, 4)) == payload
