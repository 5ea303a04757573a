"""Anticipatory dispatch (extension; paper ref. [15])."""

import pytest

from repro.bus.scsi import ScsiBus
from repro.cache.block import BlockCache
from repro.config import BusParams, DiskParams, make_config, ArrayParams
from repro.controller.commands import DiskCommand
from repro.controller.controller import DiskController
from repro.disk.drive import DiskDrive
from repro.host.streams import ReplayDriver
from repro.host.system import System
from repro.mechanics.service import HddDeviceModel
from repro.readahead.none import NoReadAhead
from repro.scheduling.fcfs import FCFSScheduler
from repro.scheduling.look import LookScheduler
from repro.scheduling.sstf import SSTFScheduler
from repro.scheduling.cscan import CScanScheduler
from repro.sim.engine import Simulator
from repro.units import KB, MB
from repro.workloads.trace import DiskAccess, Trace, TraceMeta


class TestSchedulerPeek:
    @pytest.mark.parametrize(
        "cls", [FCFSScheduler, LookScheduler, SSTFScheduler, CScanScheduler]
    )
    def test_peek_matches_pop_and_is_pure(self, cls):
        sched = cls()
        for cyl in (50, 10, 70, 30, 50):
            sched.push(cyl, f"p{cyl}", 0.0)
        before = len(sched)
        peeked = sched.peek(40)
        assert len(sched) == before  # no removal
        assert sched.peek(40) is peeked  # no state mutation
        popped = sched.pop(40)
        assert popped is peeked

    @pytest.mark.parametrize(
        "cls", [FCFSScheduler, LookScheduler, SSTFScheduler, CScanScheduler]
    )
    def test_peek_empty_is_none(self, cls):
        assert cls().peek(0) is None


def make_controller(wait_ms):
    sim = Simulator()
    disk = DiskParams(capacity_bytes=64 * MB)
    service = HddDeviceModel(disk, 4 * KB, deterministic_rotation=True)
    drive = DiskDrive(0, sim, service)
    controller = DiskController(
        disk_id=0,
        sim=sim,
        drive=drive,
        scheduler=FCFSScheduler(),
        cache=BlockCache(64),
        readahead=NoReadAhead(),
        bus=ScsiBus(sim, BusParams()),
        block_size=4 * KB,
        anticipatory_wait_ms=wait_ms,
    )
    return sim, controller


def run_two_stream_scenario(wait_ms):
    """Stream 0 reads two nearby runs back to back; stream 1 reads far
    away. The far request is queued when stream 0's first read
    completes — anticipation should let stream 0's follow-up jump it.
    """
    sim, controller = make_controller(wait_ms)
    order = []
    far = controller.drive.geometry.n_blocks - 8

    def submit(start, stream, tag):
        controller.submit(
            DiskCommand(
                0, start, 2, stream_id=stream,
                on_complete=lambda c: order.append(tag),
            )
        )

    submit(100, 0, "near1")
    submit(far, 1, "far")

    # stream 0's sequential follow-up arrives shortly after near1's
    # media completes (bus delivery + host turnaround)
    def follow_up():
        submit(102, 0, "near2")

    # near1's media time ~ seek0+rot2+transfer+overhead ~ 2.35 ms;
    # schedule the follow-up just after its completion.
    sim.schedule(2.6, follow_up)
    sim.run()
    return order, controller


class TestAnticipatoryDispatch:
    def test_disabled_serves_far_request_first(self):
        order, controller = run_two_stream_scenario(0.0)
        assert order == ["near1", "far", "near2"]
        assert controller.stats.anticipation_waits == 0

    def test_enabled_waits_for_the_sequential_reader(self):
        order, controller = run_two_stream_scenario(1.0)
        assert order == ["near1", "near2", "far"]
        assert controller.stats.anticipation_waits >= 1

    def test_anticipation_reduces_total_seek(self):
        _, without = run_two_stream_scenario(0.0)
        _, with_ant = run_two_stream_scenario(1.0)
        assert (
            with_ant.drive.seek_time_total < without.drive.seek_time_total
        )

    def test_window_expiry_dispatches_other_stream(self):
        """If the awaited request never comes, the far one proceeds."""
        sim, controller = make_controller(wait_ms=0.5)
        order = []
        far = controller.drive.geometry.n_blocks - 8
        controller.submit(
            DiskCommand(0, 100, 2, stream_id=0,
                        on_complete=lambda c: order.append("near")))
        controller.submit(
            DiskCommand(0, far, 2, stream_id=1,
                        on_complete=lambda c: order.append("far")))
        sim.run()
        assert order == ["near", "far"]

    def test_config_knob_flows_to_controllers(self, small_disk, small_cache):
        config = make_config(
            disk=small_disk,
            cache=small_cache,
            array=ArrayParams(n_disks=2, striping_unit_bytes=16 * KB),
            anticipatory_wait_ms=0.7,
        )
        system = System(config)
        assert system.controllers[0].anticipatory_wait_ms == 0.7

    def test_replay_completes_with_anticipation(self, small_disk, small_cache):
        config = make_config(
            disk=small_disk,
            cache=small_cache,
            array=ArrayParams(n_disks=2, striping_unit_bytes=16 * KB),
            anticipatory_wait_ms=0.5,
        )
        system = System(config)
        records = [DiskAccess([(i * 8, 4)]) for i in range(40)]
        trace = Trace(records, TraceMeta(n_streams=4, coalesce_prob=0.5))
        driver = ReplayDriver(system, trace)
        assert driver.run() > 0
        assert driver.records_completed == 40

    def test_negative_wait_rejected(self, small_disk, small_cache):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError):
            make_config(anticipatory_wait_ms=-1.0)
