"""HDC host side: profiler, planner, manager, victim-cache variant."""

import pytest

from repro.array.striping import StripingLayout
from repro.config import ArrayParams, SchedulerKind, make_config
from repro.hdc.manager import HdcManager
from repro.hdc.planner import plan_pin_sets
from repro.hdc.profiler import BlockAccessProfiler
from repro.hdc.victim import VictimCacheManager
from repro.host.system import System
from repro.units import KB
from repro.workloads.trace import DiskAccess, Trace, TraceMeta


def make_trace(records):
    return Trace(records, TraceMeta())


class TestProfiler:
    def test_counts_reads_and_writes(self):
        profiler = BlockAccessProfiler()
        profiler.observe(DiskAccess([(0, 2)]))
        profiler.observe(DiskAccess([(1, 2)], is_write=True))
        assert profiler.counts[0] == 1
        assert profiler.counts[1] == 2
        assert profiler.counts[2] == 1
        assert profiler.records_seen == 2

    def test_of_trace(self):
        trace = make_trace([DiskAccess([(5, 1)])] * 3)
        profiler = BlockAccessProfiler.of(trace)
        assert profiler.counts[5] == 3
        assert profiler.total_accesses() == 3

    def test_hottest(self):
        profiler = BlockAccessProfiler()
        for _ in range(3):
            profiler.observe(DiskAccess([(7, 1)]))
        profiler.observe(DiskAccess([(9, 1)]))
        assert profiler.hottest(1) == [(7, 3)]


class TestPlanner:
    def striping(self):
        return StripingLayout(2, 4, 1000)

    def test_empty_inputs(self):
        plan = plan_pin_sets({}, self.striping(), 4)
        assert plan.n_blocks == 0
        plan = plan_pin_sets({1: 5}, self.striping(), 0)
        assert plan.n_blocks == 0

    def test_picks_hottest_per_disk(self):
        # logical 0..3 live on disk 0; 4..7 on disk 1
        counts = {0: 10, 1: 1, 4: 7, 5: 9}
        plan = plan_pin_sets(counts, self.striping(), 1)
        assert plan.per_disk[0] == [0]
        assert plan.per_disk[1] == [5]
        assert sorted(plan.logical_blocks) == [0, 5]

    def test_predicted_hit_rate(self):
        counts = {0: 8, 1: 2}
        plan = plan_pin_sets(counts, self.striping(), 1)
        assert plan.predicted_hit_rate == pytest.approx(0.8)

    def test_per_disk_capacity_respected(self):
        counts = {lb: 1 for lb in range(16)}
        plan = plan_pin_sets(counts, self.striping(), 3)
        assert all(len(blocks) <= 3 for blocks in plan.per_disk.values())

    def test_deterministic_tiebreak(self):
        counts = {0: 5, 1: 5, 2: 5}
        a = plan_pin_sets(counts, self.striping(), 2)
        b = plan_pin_sets(counts, self.striping(), 2)
        assert a.logical_blocks == b.logical_blocks == [0, 1]


class TestManager:
    def make_system(self):
        config = make_config(
            array=ArrayParams(n_disks=2, striping_unit_bytes=16 * KB),
            hdc_bytes=64 * KB,
            scheduler=SchedulerKind.FCFS,
        )
        return System(config)

    def test_setup_pins_plan(self):
        system = self.make_system()
        counts = {0: 5, 100: 3}
        plan = plan_pin_sets(counts, system.striping, 16)
        manager = HdcManager(system.sim, system.array, plan)
        assert manager.setup() == 2

    def test_finish_flushes_dirty(self):
        system = self.make_system()
        plan = plan_pin_sets({0: 5}, system.striping, 16)
        manager = HdcManager(system.sim, system.array, plan)
        manager.setup()
        done = []
        system.array.submit_logical(0, 1, is_write=True,
                                    on_complete=lambda: done.append(1))
        system.sim.run()
        assert done == [1]
        flushed = manager.finish()
        system.sim.run()
        assert flushed == 1

    def test_periodic_flush_fires(self):
        system = self.make_system()
        plan = plan_pin_sets({0: 5}, system.striping, 16)
        manager = HdcManager(system.sim, system.array, plan,
                             flush_interval_ms=10.0)
        manager.setup()
        system.sim.run(until=35.0)
        assert manager.periodic_flushes == 3
        manager.finish()  # stops rescheduling
        system.sim.run()
        assert system.sim.pending == 0


class TestVictimCache:
    def make_system(self, hdc_blocks=4):
        config = make_config(
            array=ArrayParams(n_disks=2, striping_unit_bytes=16 * KB),
            hdc_bytes=hdc_blocks * 4 * KB,
        )
        return System(config)

    def test_read_completion_pins_blocks(self):
        system = self.make_system()
        manager = VictimCacheManager(system.array, hdc_blocks_per_disk=4)
        manager.on_record_complete(DiskAccess([(0, 2)]))
        assert manager.pins == 2
        assert 0 in system.controllers[0].pinned

    def test_writes_not_victim_cached(self):
        system = self.make_system()
        manager = VictimCacheManager(system.array, hdc_blocks_per_disk=4)
        manager.on_record_complete(DiskAccess([(0, 2)], is_write=True))
        assert manager.pins == 0

    def test_lru_unpin_when_full(self):
        system = self.make_system()
        manager = VictimCacheManager(system.array, hdc_blocks_per_disk=2)
        for lb in (0, 1, 2):  # all on disk 0 (unit = 4 blocks)
            manager.on_record_complete(DiskAccess([(lb, 1)]))
        assert manager.unpins == 1
        assert 0 not in system.controllers[0].pinned
        assert 2 in system.controllers[0].pinned

    def test_repinning_refreshes_lru(self):
        system = self.make_system()
        manager = VictimCacheManager(system.array, hdc_blocks_per_disk=2)
        manager.on_record_complete(DiskAccess([(0, 1)]))
        manager.on_record_complete(DiskAccess([(1, 1)]))
        manager.on_record_complete(DiskAccess([(0, 1)]))  # refresh 0
        manager.on_record_complete(DiskAccess([(2, 1)]))  # evicts 1
        assert 0 in system.controllers[0].pinned
        assert 1 not in system.controllers[0].pinned

    def test_zero_capacity_is_noop(self):
        system = self.make_system()
        manager = VictimCacheManager(system.array, hdc_blocks_per_disk=0)
        manager.on_record_complete(DiskAccess([(0, 1)]))
        assert manager.pins == 0
