"""Regressions: cancelling already-fired events must not corrupt the queue.

Fired events used to keep ``cancelled=False``, so ``Simulator.cancel``
on a stale handle decremented ``EventQueue._live`` a second time —
``pending`` went negative and ``__bool__`` lied. These tests pin the
fix at the engine level and at the three exposed call sites
(``QueueDepthSampler.stop``, ``HdcManager.finish``,
``DiskController._cancel_wait``).
"""


from repro.config import ArrayParams, CacheParams, DiskParams, make_config
from repro.hdc.manager import HdcManager
from repro.hdc.planner import plan_pin_sets
from repro.host.system import System
from repro.metrics.sampling import QueueDepthSampler
from repro.sim.engine import Simulator
from repro.sim.events import EventQueue
from repro.units import KB, MB


class TestEngineCancelAfterFire:
    def test_pending_stays_zero_when_cancelling_fired_event(self):
        sim = Simulator()
        event = sim.schedule(1.0, lambda: None)
        sim.run()
        assert sim.pending == 0
        sim.cancel(event)  # pre-fix: pending became -1
        assert sim.pending == 0
        sim.cancel(event)  # and -2 on a second stale cancel
        assert sim.pending == 0

    def test_live_count_not_poisoned_for_later_events(self):
        sim = Simulator()
        fired = sim.schedule(1.0, lambda: None)
        sim.run()
        sim.cancel(fired)
        # pre-fix the poisoned count made the queue report empty with
        # one live event inside
        sim.schedule(1.0, lambda: None)
        assert sim.pending == 1
        assert bool(sim._queue)
        sim.run()
        assert sim.pending == 0

    def test_cancel_fired_then_pending_mix(self):
        sim = Simulator()
        fired = sim.schedule(1.0, lambda: None)
        sim.run()
        pending = sim.schedule(5.0, lambda: None)
        sim.cancel(fired)
        sim.cancel(pending)
        assert sim.pending == 0
        assert sim.run() == 1.0  # clock untouched by the cancelled event

    def test_event_cancel_noop_after_fire(self):
        sim = Simulator()
        calls = []
        event = sim.schedule(1.0, lambda: calls.append(1))
        sim.run()
        event.cancel()  # direct handle cancel after firing
        assert not event.cancelled
        assert event.fired
        assert calls == [1]

    def test_step_marks_fired(self):
        sim = Simulator()
        event = sim.schedule(1.0, lambda: None)
        assert sim.step()
        assert event.fired
        sim.cancel(event)
        assert sim.pending == 0


class TestQueueLazyDeletionUnified:
    def test_peek_time_and_pop_agree_after_cancels(self):
        queue = EventQueue()
        first = queue.push(1.0, lambda: None)
        second = queue.push(2.0, lambda: None)
        queue.push(3.0, lambda: None)
        queue.cancel(first)
        queue.cancel(second)
        assert len(queue) == 1
        # peek_time prunes the cancelled head through the same helper
        # pop uses, so the count still matches the heap afterwards
        assert queue.peek_time() == 3.0
        assert len(queue) == 1
        assert queue.pop().time == 3.0
        assert len(queue) == 0
        assert queue.pop() is None
        assert queue.peek_time() is None

    def test_queue_cancel_is_single_source_of_truth(self):
        queue = EventQueue()
        event = queue.push(1.0, lambda: None)
        assert queue.cancel(event) is True
        assert queue.cancel(event) is False  # idempotent
        assert len(queue) == 0
        fired = queue.push(2.0, lambda: None)
        assert queue.pop() is fired
        assert queue.cancel(fired) is False  # fired: refused
        assert len(queue) == 0


def make_system(n_disks=2, hdc_bytes=0):
    config = make_config(
        disk=DiskParams(capacity_bytes=64 * MB),
        cache=CacheParams(
            size_bytes=256 * KB,
            block_size=4 * KB,
            segment_size_bytes=32 * KB,
            n_segments=8,
        ),
        array=ArrayParams(n_disks=n_disks, striping_unit_bytes=16 * KB),
        hdc_bytes=hdc_bytes,
        seed=8,
    )
    return System(config)


class TestSamplerStopAfterFire:
    def test_stop_after_drained_run_with_stale_handle(self):
        system = make_system()
        sampler = QueueDepthSampler(system, interval_ms=1.0)
        stale = sampler._timer  # handle to the first tick
        system.sim.run(until=3.5)  # fires ticks at 1, 2, 3
        assert len(sampler.samples) == 3
        assert stale.fired
        # the hazard: cancel a handle whose event already fired
        system.sim.cancel(stale)
        assert system.sim.pending >= 0
        sampler.stop()
        system.sim.run()
        assert system.sim.pending == 0

    def test_stop_is_idempotent(self):
        system = make_system()
        sampler = QueueDepthSampler(system, interval_ms=1.0)
        system.sim.run(until=2.5)
        sampler.stop()
        sampler.stop()
        system.sim.run()
        assert system.sim.pending == 0


class TestHdcManagerFinishAfterFire:
    def make_manager(self, system, interval_ms):
        plan = plan_pin_sets({0: 5}, system.striping, 16)
        config_system = system
        return HdcManager(
            config_system.sim,
            config_system.array,
            plan,
            flush_interval_ms=interval_ms,
        )

    def test_finish_with_stale_first_tick_handle(self):
        system = make_system(hdc_bytes=64 * KB)
        manager = self.make_manager(system, interval_ms=10.0)
        manager.setup()
        stale = manager._timer
        system.sim.run(until=35.0)
        assert manager.periodic_flushes == 3
        assert stale.fired
        system.sim.cancel(stale)  # pre-fix: corrupts the live count
        assert system.sim.pending >= 0
        manager.finish()
        system.sim.run()
        assert system.sim.pending == 0

    def test_finish_twice_after_run(self):
        system = make_system(hdc_bytes=64 * KB)
        manager = self.make_manager(system, interval_ms=10.0)
        manager.setup()
        system.sim.run(until=25.0)
        manager.finish()
        manager.finish()
        system.sim.run()
        assert system.sim.pending == 0


class TestControllerCancelWaitAfterFire:
    def make_controller(self):
        from repro.bus.scsi import ScsiBus
        from repro.cache.block import BlockCache
        from repro.config import BusParams
        from repro.controller.controller import DiskController
        from repro.disk.drive import DiskDrive
        from repro.mechanics.service import HddDeviceModel
        from repro.readahead.none import NoReadAhead
        from repro.scheduling.fcfs import FCFSScheduler

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
            anticipatory_wait_ms=1.0,
        )
        return sim, controller

    def test_expired_anticipation_leaves_queue_consistent(self):
        from repro.controller.commands import DiskCommand

        sim, controller = self.make_controller()
        done = []
        far = controller.drive.geometry.n_blocks - 8

        def submit(start, stream, tag):
            controller.submit(
                DiskCommand(
                    0, start, 2, stream_id=stream,
                    on_complete=lambda c: done.append(tag),
                )
            )

        # stream 0 reads nearby, stream 1 far away; no follow-up ever
        # arrives, so the anticipation deadline fires (not cancelled)
        submit(100, 0, "near")
        submit(far, 1, "far")
        sim.run()
        assert done == ["near", "far"]
        assert controller.stats.anticipation_waits >= 1
        assert controller._wait_event is None
        assert sim.pending == 0
        controller._cancel_wait()  # no-op: nothing pending
        assert sim.pending == 0

    def test_cancel_wait_with_stale_fired_handle(self):
        sim, controller = self.make_controller()
        fired = sim.schedule(1.0, lambda: None)
        sim.run()
        # simulate the pre-fix hazard: the controller is left holding a
        # handle whose deadline already fired
        controller._wait_event = fired
        controller._cancel_wait()
        assert controller._wait_event is None
        assert sim.pending == 0
        sim.schedule(1.0, lambda: None)
        assert sim.pending == 1  # count not poisoned


def test_pending_never_negative_property():
    """Brute mix of schedule/fire/cancel orders keeps pending >= 0."""
    sim = Simulator()
    handles = [sim.schedule(float(i % 5) + 1.0, lambda: None) for i in range(20)]
    for event in handles[::2]:
        sim.cancel(event)
    sim.run(until=3.0)
    for event in handles:  # cancel everything, fired or not, twice
        sim.cancel(event)
        sim.cancel(event)
        assert sim.pending >= 0
    sim.run()
    assert sim.pending == 0
