"""Tests for workload generators and the measurement runner."""

import random

import pytest

from repro.errors import ReproError
from repro.sim import Simulator
from repro.units import KIB, MB, SECTOR_SIZE
from repro.workloads import (random_aligned_offsets, run_request_stream,
                             sequential_offsets)


def test_random_offsets_aligned_and_in_range():
    rng = random.Random(7)
    requests = random_aligned_offsets(rng, 10 * MB, 64 * KIB, 100)
    assert len(requests) == 100
    for offset, size in requests:
        assert size == 64 * KIB
        assert offset % SECTOR_SIZE == 0
        assert 0 <= offset <= 10 * MB - size


def test_random_offsets_deterministic_with_seed():
    a = random_aligned_offsets(random.Random(1), MB, 4096, 10)
    b = random_aligned_offsets(random.Random(1), MB, 4096, 10)
    assert a == b


def test_random_offsets_bad_args():
    rng = random.Random(0)
    with pytest.raises(ReproError):
        random_aligned_offsets(rng, MB, 2 * MB, 1)
    with pytest.raises(ReproError):
        random_aligned_offsets(rng, MB, 1000, 1, alignment=512)


def test_sequential_offsets_wrap():
    requests = sequential_offsets(10 * KIB * 100, 300 * KIB, 5)
    assert requests[0] == (0, 300 * KIB)
    assert requests[1] == (300 * KIB, 300 * KIB)
    # 1000 KiB capacity: the fourth request would exceed it and wraps.
    assert requests[3][0] == 0


def test_run_request_stream_sequential():
    sim = Simulator()

    def op(offset, size):
        yield sim.timeout(0.01)

    result = run_request_stream(sim, op, [(0, MB)] * 10)
    assert result.ops == 10
    assert result.elapsed_s == pytest.approx(0.1)
    assert result.mb_per_s == pytest.approx(100.0)
    assert result.ios_per_s == pytest.approx(100.0)


def test_run_request_stream_concurrent_overlaps():
    sim = Simulator()

    def op(offset, size):
        yield sim.timeout(0.01)

    result = run_request_stream(sim, op, [(0, MB)] * 10, concurrency=5)
    assert result.elapsed_s == pytest.approx(0.02)


def test_run_request_stream_rejects_empty():
    sim = Simulator()
    with pytest.raises(ReproError):
        run_request_stream(sim, lambda o, s: iter(()), [])
