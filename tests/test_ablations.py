"""Ablations: the design choices the paper argues for, each checked
against its alternatives on a small synthetic workload.

Most ablations replay the same §6.2-style workload (16-KB files, 128
streams, Zipf 0.4) through the module's ``runner`` so their numbers are
comparable across dimensions; the HDC and mirroring ablations build
their own workloads.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro import (
    FOR,
    NORA,
    SEGM,
    SEGM_HDC,
    SyntheticSpec,
    SyntheticWorkload,
    TechniqueRunner,
    ultrastar_36z15_config,
)
from repro.array.raid import MirroredArray, mirrored_striping
from repro.config import BlockPolicy, SchedulerKind, SegmentPolicy
from repro.experiments.techniques import technique_config
from repro.fs.bitmap_builder import build_bitmaps
from repro.hdc.victim import VictimCacheManager
from repro.host.streams import ReplayDriver
from repro.host.system import System
from repro.units import KB, MB


@pytest.fixture(scope="module")
def runner() -> TechniqueRunner:
    spec = SyntheticSpec(n_requests=1500, file_size_bytes=16 * KB)
    layout, trace = SyntheticWorkload(spec).build()
    return TechniqueRunner(layout, trace)


def _with_cache(**changes):
    config = ultrastar_36z15_config()
    return config.with_(cache=dataclasses.replace(config.cache, **changes))


def test_anticipation_costs_more_under_high_concurrency(runner):
    """Anticipatory dispatch (paper ref. [15]) holds the media idle for a
    stream's next sequential request: cheap when few streams compete,
    relatively dearer when the queue always has real work."""
    plain = ultrastar_36z15_config()
    anticipating = ultrastar_36z15_config(anticipatory_wait_ms=0.3)
    penalty = {}
    for streams in (4, 128):
        runs = [
            runner.run(config, SEGM, n_streams=streams, coalesce_prob=0.6)
            for config in (plain, anticipating)
        ]
        assert runs[1].controller.anticipation_waits > 0
        penalty[streams] = runs[1].io_time_ms / runs[0].io_time_ms
    assert penalty[4] <= penalty[128] + 0.02
    # at low concurrency it stays close to work-conserving LOOK
    assert penalty[4] < 1.10


def test_for_matches_nora_even_at_perfect_coalescing(runner):
    """§6.2: No-RA cannot beat FOR "even for an unrealistic coalescing
    probability of 100%", and No-RA degrades as coalescing weakens."""
    config = ultrastar_36z15_config()
    nora = {p: runner.run(config, NORA, coalesce_prob=p).io_time_ms for p in (0.5, 1.0)}
    for_perfect = runner.run(config, FOR, coalesce_prob=1.0).io_time_ms
    assert for_perfect <= nora[1.0] * 1.05
    assert nora[0.5] > nora[1.0]


def test_periodic_hdc_flush_is_negligible():
    """§6.1: periodic 30-s syncs of the HDC region cost < 1% at full
    scale; allow 5% at this size."""
    spec = SyntheticSpec(
        n_requests=1500, file_size_bytes=16 * KB, write_fraction=0.2, period=1
    )
    layout, trace = SyntheticWorkload(spec).build()
    _, history = SyntheticWorkload(dataclasses.replace(spec, period=0)).build()
    hdc_runner = TechniqueRunner(layout, trace, profile_trace=history)
    config = ultrastar_36z15_config()
    end_only = hdc_runner.run(config, SEGM_HDC, hdc_bytes=2 * MB).io_time_ms
    periodic = hdc_runner.run(
        config, SEGM_HDC, hdc_bytes=2 * MB, hdc_flush_interval_ms=30_000.0
    ).io_time_ms
    assert abs(periodic - end_only) / end_only < 0.05


def test_popularity_pinning_beats_victim_cache():
    """§5's alternative use of the HDC region, an array-wide victim
    cache, should not beat history-driven popularity pinning on a
    Zipf-skewed workload."""
    spec = SyntheticSpec(
        n_requests=1500, file_size_bytes=16 * KB, zipf_alpha=0.8, period=1
    )
    layout, trace = SyntheticWorkload(spec).build()
    _, history = SyntheticWorkload(dataclasses.replace(spec, period=0)).build()
    hdc_runner = TechniqueRunner(layout, trace, profile_trace=history)
    config = ultrastar_36z15_config()
    pinned = hdc_runner.run(config, SEGM_HDC, hdc_bytes=2 * MB).io_time_ms

    victim_config = technique_config(config, SEGM_HDC, hdc_bytes=2 * MB)
    system = System(victim_config)
    manager = VictimCacheManager(system.array, victim_config.hdc_blocks)
    victim = ReplayDriver(
        system, trace, on_record_complete=manager.on_record_complete
    ).run()
    assert manager.pins > 0
    assert pinned < victim * 1.15


def _replay_mirrored(layout, trace, technique):
    """Replay on a 4+4 RAID-1 mirror; (I/O time, the mirrored array)."""
    config = technique_config(ultrastar_36z15_config(), technique)
    bitmaps = None
    if technique is FOR:
        half = mirrored_striping(
            config.array.n_disks,
            config.array.unit_blocks(config.block_size),
            config.disk_blocks,
        )
        half_maps = build_bitmaps(layout, half)
        bitmaps = half_maps + half_maps  # mirror pairs share layout
    system = System(config, bitmaps=bitmaps)
    raid = MirroredArray(system.array)
    done = []
    for record in trace:
        for start, length in record.runs:
            raid.submit_logical(
                start, length, is_write=record.is_write,
                on_complete=lambda: done.append(1),
            )
    system.sim.run()
    assert len(done) >= len(trace)
    return system.sim.now, raid


def test_for_gains_survive_mirroring():
    """RAID-1 mirroring (paper ref. [34]) composes with FOR, and replica
    selection spreads the read load."""
    layout, trace = SyntheticWorkload(
        SyntheticSpec(n_requests=800, file_size_bytes=16 * KB)
    ).build()
    segm_time, _ = _replay_mirrored(layout, trace, SEGM)
    for_time, raid = _replay_mirrored(layout, trace, FOR)
    assert for_time < segm_time
    assert raid.reads_mirror > 0


def test_mru_block_replacement_does_not_lose_to_lru(runner):
    """§4: controller caches lack temporal locality, so the most
    recently consumed block is the best victim."""
    times = {
        policy: runner.run(_with_cache(block_policy=policy), FOR).io_time_ms
        for policy in BlockPolicy
    }
    assert times[BlockPolicy.MRU] <= times[BlockPolicy.LRU] * 1.05


def test_position_aware_schedulers_beat_fcfs(runner):
    """LOOK (the paper's default) and SSTF beat FCFS under 128-stream
    queues."""
    times = {
        kind: runner.run(ultrastar_36z15_config(scheduler=kind), SEGM).io_time_ms
        for kind in (SchedulerKind.LOOK, SchedulerKind.SSTF, SchedulerKind.FCFS)
    }
    assert times[SchedulerKind.LOOK] < times[SchedulerKind.FCFS]
    assert times[SchedulerKind.SSTF] < times[SchedulerKind.FCFS]


def test_segment_victim_policy_is_second_order(runner):
    """§2.1 cites LRU, FIFO, random and round-robin victim segments;
    all stay within a band of each other."""
    times = [
        runner.run(_with_cache(segment_policy=policy), SEGM).io_time_ms
        for policy in SegmentPolicy
    ]
    assert max(times) < 1.5 * min(times)


def test_smaller_segments_waste_less_on_small_files(runner):
    """Table 1's segment-size variants: bigger blind read-ahead wastes
    more bandwidth on 16-KB files."""
    small = _with_cache(segment_size_bytes=128 * KB, n_segments=27)
    large = _with_cache(segment_size_bytes=512 * KB, n_segments=6)
    assert runner.run(small, SEGM).io_time_ms < runner.run(large, SEGM).io_time_ms
