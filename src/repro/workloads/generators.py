"""Request-stream generators for the paper's workloads.

The evaluation uses two patterns: "subsequent fixed size operations
are at random locations" (Figure 5) and sequential streams (Table 1).
Both generators produce sector-aligned (offset, size) pairs within a
given capacity; determinism comes from the caller's seeded RNG.
"""

from __future__ import annotations

import random

from repro.errors import ReproError
from repro.units import SECTOR_SIZE


def random_aligned_offsets(rng: random.Random, capacity_bytes: int,
                           size_bytes: int, count: int,
                           alignment: int = SECTOR_SIZE
                           ) -> list[tuple[int, int]]:
    """``count`` random, aligned, in-range (offset, size) requests."""
    if size_bytes <= 0 or size_bytes > capacity_bytes:
        raise ReproError(
            f"request size {size_bytes} does not fit capacity "
            f"{capacity_bytes}")
    if alignment <= 0 or size_bytes % alignment:
        raise ReproError(f"size {size_bytes} not {alignment}-aligned")
    slots = (capacity_bytes - size_bytes) // alignment + 1
    return [(rng.randrange(slots) * alignment, size_bytes)
            for _ in range(count)]


def sequential_offsets(capacity_bytes: int, size_bytes: int, count: int,
                       start: int = 0) -> list[tuple[int, int]]:
    """``count`` back-to-back requests, wrapping at capacity."""
    if size_bytes <= 0 or size_bytes > capacity_bytes:
        raise ReproError(
            f"request size {size_bytes} does not fit capacity "
            f"{capacity_bytes}")
    requests = []
    position = start
    for _ in range(count):
        if position + size_bytes > capacity_bytes:
            position = 0
        requests.append((position, size_bytes))
        position += size_bytes
    return requests

