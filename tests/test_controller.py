"""Disk-controller behaviour: caching, read-ahead, writes, HDC commands."""

import pytest

from repro.bus.scsi import ScsiBus
from repro.cache.block import BlockCache
from repro.config import BusParams, DiskParams
from repro.controller.commands import DiskCommand
from repro.controller.controller import DiskController, contiguous_runs
from repro.disk.drive import DiskDrive
from repro.errors import SimulationError
from repro.mechanics.service import HddDeviceModel
from repro.readahead.blind import BlindReadAhead
from repro.readahead.none import NoReadAhead
from repro.scheduling.look import LookScheduler
from repro.sim.engine import Simulator
from repro.units import KB, MB


def make_controller(
    readahead=None,
    cache_blocks=64,
    hdc_blocks=0,
):
    sim = Simulator()
    disk = DiskParams(capacity_bytes=64 * MB)
    service = HddDeviceModel(disk, 4 * KB, deterministic_rotation=True)
    drive = DiskDrive(0, sim, service)
    bus = ScsiBus(sim, BusParams())
    controller = DiskController(
        disk_id=0,
        sim=sim,
        drive=drive,
        scheduler=LookScheduler(),
        cache=BlockCache(cache_blocks),
        readahead=readahead or BlindReadAhead(8),
        bus=bus,
        block_size=4 * KB,
        hdc_blocks=hdc_blocks,
    )
    return sim, controller


def submit_and_run(sim, controller, cmd):
    done = []
    cmd.on_complete = lambda c: done.append(sim.now)
    controller.submit(cmd)
    sim.run()
    assert len(done) == 1, "command must complete exactly once"
    return done[0]


class TestContiguousRuns:
    def test_empty(self):
        assert contiguous_runs([]) == []

    def test_single_run(self):
        assert contiguous_runs([3, 4, 5]) == [(3, 3)]

    def test_multiple_runs(self):
        assert contiguous_runs([1, 2, 5, 9, 10]) == [(1, 2), (5, 1), (9, 2)]


class TestReadPath:
    def test_miss_reads_media_with_readahead(self):
        sim, controller = make_controller(readahead=BlindReadAhead(8))
        submit_and_run(sim, controller, DiskCommand(0, 100, 2))
        assert controller.stats.media_reads == 1
        assert controller.stats.media_blocks_read == 8
        assert controller.stats.readahead_blocks == 6
        # the read-ahead blocks are now cached
        assert controller.cache.contains(107)

    def test_second_read_hits_cache(self):
        sim, controller = make_controller(readahead=BlindReadAhead(8))
        submit_and_run(sim, controller, DiskCommand(0, 100, 2))
        t = submit_and_run(sim, controller, DiskCommand(0, 104, 4))
        assert controller.stats.media_reads == 1  # no second media op
        assert controller.stats.full_cache_hits == 1

    def test_cache_hit_is_fast(self):
        sim, controller = make_controller()
        t_miss = submit_and_run(sim, controller, DiskCommand(0, 100, 2))
        start = sim.now
        t_hit = submit_and_run(sim, controller, DiskCommand(0, 100, 2)) - start
        assert t_hit < t_miss / 5

    def test_wrong_disk_rejected(self):
        _sim, controller = make_controller()
        with pytest.raises(SimulationError):
            controller.submit(DiskCommand(3, 0, 1))

    def test_command_past_disk_end_rejected(self):
        _sim, controller = make_controller()
        n = controller.drive.geometry.n_blocks
        with pytest.raises(SimulationError):
            controller.submit(DiskCommand(0, n - 1, 4))

    def test_stats_counters(self):
        sim, controller = make_controller()
        submit_and_run(sim, controller, DiskCommand(0, 0, 4))
        assert controller.stats.commands == 1
        assert controller.stats.read_commands == 1
        assert controller.stats.blocks_requested == 4

    def test_partial_hit_reads_only_missing_span(self):
        sim, controller = make_controller(readahead=NoReadAhead())
        submit_and_run(sim, controller, DiskCommand(0, 100, 4))  # cache 100..103
        submit_and_run(sim, controller, DiskCommand(0, 102, 4))  # 104,105 missing
        assert controller.stats.media_blocks_read == 4 + 2


class TestDispatchRecheck:
    """The cache is consulted on arrival only, as in the paper's
    controller: a read queued behind a miss goes to the media even when
    the earlier read's read-ahead covers it by the time it dispatches."""

    def test_without_recheck_queued_read_hits_media(self):
        sim, controller = make_controller(readahead=BlindReadAhead(8))
        controller.submit(DiskCommand(0, 100, 2, on_complete=lambda c: None))
        controller.submit(DiskCommand(0, 104, 2, on_complete=lambda c: None))
        sim.run()
        assert controller.stats.media_reads == 2


class TestWritePath:
    def test_write_goes_to_media(self):
        sim, controller = make_controller()
        submit_and_run(sim, controller, DiskCommand(0, 50, 4, is_write=True))
        assert controller.stats.media_writes == 1
        assert controller.stats.media_blocks_written == 4
        assert controller.stats.write_commands == 1

    def test_write_has_no_readahead(self):
        sim, controller = make_controller(readahead=BlindReadAhead(32))
        submit_and_run(sim, controller, DiskCommand(0, 50, 2, is_write=True))
        assert controller.stats.media_blocks_written == 2
        assert controller.stats.readahead_blocks == 0

    def test_write_marks_cached_block_consumed(self):
        """A host write recency-marks its cached, unpinned blocks as
        consumed, so under MRU the written block is the next victim."""
        sim, controller = make_controller(readahead=BlindReadAhead(8), cache_blocks=8)
        submit_and_run(sim, controller, DiskCommand(0, 100, 1))  # caches 100..107
        cache = controller.cache
        assert cache.accessed_blocks == [100]
        submit_and_run(sim, controller, DiskCommand(0, 104, 1, is_write=True))
        assert cache.accessed_blocks == [100, 104]
        cache.fill([300])  # the pool is full: one block must go
        assert not cache.contains(104)
        assert cache.contains(100)

    def test_write_to_pinned_block_absorbed(self):
        sim, controller = make_controller(hdc_blocks=8)
        controller.pin_blocks([50, 51])
        submit_and_run(sim, controller, DiskCommand(0, 50, 2, is_write=True))
        assert controller.stats.media_writes == 0
        assert controller.stats.hdc_write_absorbed == 2
        assert sum(controller.pinned.values()) == 2

    def test_mixed_write_splits_around_pinned(self):
        sim, controller = make_controller(hdc_blocks=8)
        controller.pin_blocks([51])
        submit_and_run(sim, controller, DiskCommand(0, 50, 3, is_write=True))
        # blocks 50 and 52 hit media as two separate runs
        assert controller.stats.media_writes == 2
        assert controller.stats.media_blocks_written == 2
        assert sum(controller.pinned.values()) == 1


class TestHdcCommands:
    def test_pinned_read_served_without_media(self):
        sim, controller = make_controller(hdc_blocks=8)
        controller.pin_blocks([100, 101])
        submit_and_run(sim, controller, DiskCommand(0, 100, 2))
        assert controller.stats.media_reads == 0
        assert controller.stats.hdc_block_hits == 2
        assert controller.stats.full_cache_hits == 1

    def test_pin_invalidates_main_cache_copy(self):
        sim, controller = make_controller(hdc_blocks=8)
        submit_and_run(sim, controller, DiskCommand(0, 100, 2))
        assert controller.cache.contains(100)
        controller.pin_blocks([100])
        assert not controller.cache.contains(100)
        assert 100 in controller.pinned

    def test_timed_pin_load_costs_media_reads(self):
        sim, controller = make_controller(hdc_blocks=8)
        done = []
        controller.pin_blocks([10, 11, 40], timed=True, on_complete=lambda: done.append(1))
        sim.run()
        assert done == [1]
        assert controller.stats.media_reads == 2  # runs (10,11) and (40,)
        assert sim.now > 0

    def test_flush_writes_dirty_runs(self):
        sim, controller = make_controller(hdc_blocks=8)
        controller.pin_blocks([10, 11, 40])
        submit_and_run(sim, controller, DiskCommand(0, 10, 2, is_write=True))
        submit_and_run(sim, controller, DiskCommand(0, 40, 1, is_write=True))
        done = []
        n = controller.flush_hdc(lambda: done.append(1))
        sim.run()
        assert n == 3
        assert done == [1]
        assert controller.stats.media_writes == 2  # two contiguous runs
        assert controller.stats.flush_blocks_written == 3
        assert sum(controller.pinned.values()) == 0

    def test_flush_with_nothing_dirty_completes_immediately(self):
        sim, controller = make_controller(hdc_blocks=8)
        done = []
        assert controller.flush_hdc(lambda: done.append(1)) == 0
        sim.run()
        assert done == [1]

    def test_unpin(self):
        sim, controller = make_controller(hdc_blocks=8)
        controller.pin_blocks([5])
        controller.unpin_blocks([5])
        assert 5 not in controller.pinned


class TestCompletionDiscipline:
    def test_double_completion_raises(self):
        cmd = DiskCommand(0, 0, 1)
        cmd.finish(1.0)
        with pytest.raises(SimulationError):
            cmd.finish(2.0)

    def test_latency_available_after_completion(self):
        sim, controller = make_controller()
        cmd = DiskCommand(0, 0, 1)
        submit_and_run(sim, controller, cmd)
        assert cmd.latency > 0
        assert cmd.completed_at == sim.now

    def test_latency_before_completion_raises(self):
        with pytest.raises(SimulationError):
            _ = DiskCommand(0, 0, 1).latency
