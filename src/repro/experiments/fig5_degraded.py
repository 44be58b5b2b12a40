"""Extension experiment: the array healthy, degraded and rebuilding.

The paper's RAID layer "supports reconstruction and degraded mode";
this experiment measures all three service states in one place.

* **Degraded sweep.** Re-runs Figure 5's hardware-system-level
  random-read sweep with a :class:`~repro.faults.plan.FaultPlan` that
  kills one disk halfway through each measurement — RAID-II keeps
  serving every byte by reconstructing the dead disk's units through
  parity, at reduced bandwidth.  The plan-driven injection (rather
  than a manual ``fail()``) exercises the same machinery the
  fault-matrix tests replay.
* **Rebuild under load.** After a disk replacement the array must
  reconstruct its contents while continuing to serve clients.  On a
  small-disk server this measures the rebuild's own data rate idle vs
  with a concurrent client read stream, and the client stream healthy
  vs while the rebuild runs.

Both parts end with a parity scrub of the rebuilt region.
"""

from __future__ import annotations

import dataclasses
import random

from repro.analysis.scrub_raid import scrub_array
from repro.experiments.base import ExperimentResult, Series
from repro.faults import DiskDeath, FaultPlan, attach_server
from repro.hw.specs import IBM_0661
from repro.server import Raid2Config, Raid2Server
from repro.sim import Simulator
from repro.units import KIB, MB, MIB
from repro.workloads import random_aligned_offsets, run_request_stream

FULL_SIZES_KIB = [128, 256, 512, 1024, 1600]
QUICK_SIZES_KIB = [256, 1024]

#: Bytes of real data laid down before measuring, so reads, rebuilds
#: and the parity scrubs exercise nonzero content.
SEED_BYTES = 2 * MIB
#: Disk (in striping order) that dies and is replaced.
VICTIM = 7
#: Shrunken disks so a full-depth rebuild under load stays cheap.
SMALL_DISK = dataclasses.replace(IBM_0661, capacity_bytes=16 * MIB)
#: Client request size racing the rebuild.
CLIENT_REQUEST = 256 * KIB


def _seeded_server(config: Raid2Config, plan_for=None) -> Raid2Server:
    """A fresh server with ``SEED_BYTES`` of pattern written at 0.

    ``plan_for`` maps the freshly built server to a
    :class:`FaultPlan` (plans name disks, and the names live on the
    server's topology).
    """
    sim = Simulator()
    server = Raid2Server(sim, config)
    if plan_for is not None:
        attach_server(plan_for(server), server)
    pattern = bytes(range(256)) * (SEED_BYTES // 256)
    sim.run_process(server.raid.write(0, pattern))
    return server


def _reads(server: Raid2Server, span: int, size: int, count: int,
           seed: int):
    """Measure ``count`` random ``size``-byte hardware-level reads
    within the first ``span`` bytes of the array."""
    rng = random.Random(seed)
    requests = random_aligned_offsets(rng, span, size, count,
                                      alignment=512)

    def op(offset, nbytes):
        yield from server.hw_read(offset, nbytes)

    return run_request_stream(server.sim, op, requests)


def _degraded_sweep(quick: bool):
    """Figure 5's read sweep healthy and with a mid-run disk death."""
    sizes = QUICK_SIZES_KIB if quick else FULL_SIZES_KIB
    count = 5 if quick else 10
    rebuild_rows = 32  # covers the seeded region
    healthy = Series("healthy reads", "request KB", "MB/s")
    degraded = Series("degraded reads (1 disk dead)", "request KB", "MB/s")
    degraded_reads_total = 0
    server = None
    for size_kib in sizes:
        server = _seeded_server(Raid2Config.paper_default())
        clean = _reads(server, server.raid.capacity_bytes, size_kib * KIB,
                       count, seed=11)
        healthy.add(size_kib, clean.mb_per_s)
        # Kill one disk halfway through the healthy run's duration:
        # early requests run clean, later ones reconstruct.
        server = _seeded_server(
            Raid2Config.paper_default(),
            plan_for=lambda s: FaultPlan.of(DiskDeath(
                disk=s.raid.paths[VICTIM].disk.name,
                at_s=clean.elapsed_s / 2)))
        hurt = _reads(server, server.raid.capacity_bytes, size_kib * KIB,
                      count, seed=11)
        degraded.add(size_kib, hurt.mb_per_s)
        degraded_reads_total += server.raid.degraded_reads

    # Close the loop on the last (degraded) server: replace the dead
    # disk, rebuild the seeded region, and scrub its parity.
    raid = server.raid
    raid.paths[VICTIM].disk.repair()
    server.sim.run_process(raid.rebuild(VICTIM, max_rows=rebuild_rows))
    parity_clean = scrub_array(raid, max_rows=rebuild_rows).ok
    last = sizes[-1]
    scalars = {
        "healthy_plateau_mb_s": healthy.y_at(last),
        "degraded_plateau_mb_s": degraded.y_at(last),
        "degraded_fraction": degraded.y_at(last) / healthy.y_at(last),
        "degraded_reads_total": float(degraded_reads_total),
    }
    return [healthy, degraded], scalars, parity_clean


def _rebuild_with_clients(quick: bool):
    """Rebuild rate idle vs racing a client stream, and vice versa."""
    count = 6 if quick else 16
    rebuild_rows = 48 if quick else 256
    server = _seeded_server(Raid2Config.paper_default(disk_spec=SMALL_DISK))
    sim, raid = server.sim, server.raid
    healthy = _reads(server, SEED_BYTES, CLIENT_REQUEST, count,
                     seed=21).mb_per_s

    # Round 1: rebuild with no competing traffic.
    raid.paths[VICTIM].disk.fail()
    raid.paths[VICTIM].disk.repair()
    start = sim.now
    sim.run_process(raid.rebuild(VICTIM, max_rows=rebuild_rows))
    idle_elapsed = sim.now - start

    # Round 2: same rebuild racing a client read stream.
    raid.paths[VICTIM].disk.fail()
    raid.paths[VICTIM].disk.repair()
    start = sim.now
    rebuild_proc = sim.process(raid.rebuild(VICTIM, max_rows=rebuild_rows))
    during = _reads(server, SEED_BYTES, CLIENT_REQUEST, count,
                    seed=22).mb_per_s
    sim.run()  # let the rebuild drain
    assert rebuild_proc.processed
    loaded_elapsed = sim.now - start

    parity_clean = scrub_array(raid, max_rows=rebuild_rows).ok
    rebuilt_mb = rebuild_rows * raid.stripe_unit_bytes / MB
    idle_rate = rebuilt_mb / idle_elapsed
    loaded_rate = rebuilt_mb / loaded_elapsed
    scalars = {
        "rebuild_idle_mb_s": idle_rate,
        "rebuild_under_load_mb_s": loaded_rate,
        "client_healthy_mb_s": healthy,
        "client_during_rebuild_mb_s": during,
        "rebuild_slowdown_fraction": loaded_rate / idle_rate,
        "client_slowdown_fraction": during / healthy,
    }
    return scalars, parity_clean


def run(quick: bool = False) -> ExperimentResult:
    series, sweep, sweep_clean = _degraded_sweep(quick)
    load, load_clean = _rebuild_with_clients(quick)
    clean = sweep_clean and load_clean
    return ExperimentResult(
        experiment_id="fig5-degraded",
        title="Figure 5 read sweep healthy vs degraded, and rebuild "
              "under load",
        series=series,
        scalars={**sweep, **load,
                 "parity_clean_after_rebuild": 1.0 if clean else 0.0},
        paper={},
        notes=[
            "A FaultPlan kills one disk mid-measurement; all reads "
            "still complete via parity reconstruction.",
            "After the sweep the dead disk is replaced, rebuilt over "
            "the seeded region, and its parity scrubbed clean.",
            "Per-row locks let client reads interleave with the "
            "rebuild frontier; reads past it reconstruct via parity.",
            "The loaded rebuild elapsed time includes the tail after "
            "the client stream finishes.",
        ],
    )
