"""The controller's fault handling: retry, timeout and offline orderings.

These tests drive a minimal single-disk
:class:`~repro.controller.controller.DiskController` with a fault
injector attached, pinning down the two orderings its media job queue
guarantees:

* **requeue after transient error** — the failed job leaves the media,
  the backoff timer runs while *other* queued jobs use the media, and
  the job re-enters the scheduler only when the backoff expires;
* **abort on offline** — a job whose backoff expires inside a
  whole-disk failure window is failed upward with ``DISK_FAILED``
  without touching the scheduler, and a disk-failure transition drains
  every queued job in scheduler order.
"""


from repro.bus.scsi import ScsiBus
from repro.cache.block import BlockCache
from repro.config import BusParams, DiskParams
from repro.controller.commands import DiskCommand
from repro.controller.controller import DiskController, MediaJob
from repro.disk.drive import DiskDrive
from repro.faults.injector import DISK_FAILED, MEDIA_ERROR, FaultInjector
from repro.faults.plan import DiskFaultPlan
from repro.faults.profile import RetryPolicy
from repro.mechanics.service import HddDeviceModel
from repro.readahead.none import NoReadAhead
from repro.scheduling.fcfs import FCFSScheduler
from repro.sim.engine import Simulator
from repro.units import KB, MB


def make_controller(transient_ops=frozenset(), retry=None):
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
    )
    if retry is not None:
        injector = FaultInjector(0, DiskFaultPlan(transient_ops=transient_ops))
        controller.attach_faults(injector, retry)
    return sim, controller


class TestTransientRetry:
    def test_transient_error_retried_then_succeeds(self):
        retry = RetryPolicy(max_retries=2, backoff_base_ms=1.0)
        sim, controller = make_controller(frozenset({0}), retry)
        done = []
        controller.submit(
            DiskCommand(0, 100, 2, on_complete=lambda c: done.append(c))
        )
        sim.run()
        assert len(done) == 1 and done[0].error is None
        assert controller.stats.media_errors == 1
        assert controller.stats.media_retries == 1
        assert controller.stats.media_reads == 2  # original + retry
        assert controller.stats.failed_commands == 0

    def test_retry_exhaustion_fails_with_last_error(self):
        retry = RetryPolicy(max_retries=1, backoff_base_ms=1.0)
        sim, controller = make_controller(frozenset({0, 1}), retry)
        done = []
        controller.submit(
            DiskCommand(0, 100, 2, on_complete=lambda c: done.append(c))
        )
        sim.run()
        assert done[0].error == MEDIA_ERROR
        assert controller.stats.media_retries == 1
        assert controller.stats.failed_commands == 1

    def test_media_free_for_others_during_backoff(self):
        """Requeue ordering: the backing-off job yields the media.

        Command A's first media op fails; during A's backoff window
        command B (queued behind it) must dispatch and complete first,
        then A's retry runs. Completion order is therefore B, A.
        """
        retry = RetryPolicy(max_retries=2, backoff_base_ms=100.0)
        sim, controller = make_controller(frozenset({0}), retry)
        order = []
        controller.submit(
            DiskCommand(0, 100, 2, on_complete=lambda c: order.append("A"))
        )
        controller.submit(
            DiskCommand(0, 5000, 2, on_complete=lambda c: order.append("B"))
        )
        sim.run()
        assert order == ["B", "A"]
        assert controller.stats.media_retries == 1

    def test_no_retry_without_policy(self):
        sim, controller = make_controller()
        assert controller.retry is None and controller.faults is None
        done = []
        controller.submit(
            DiskCommand(0, 100, 2, on_complete=lambda c: done.append(c))
        )
        sim.run()
        assert done[0].error is None
        assert controller.stats.media_retries == 0


class TestTimeout:
    def test_over_deadline_completion_counts_timeout(self):
        # Every op is "clean" but the deadline is absurdly tight, so
        # each completion classifies as a timeout until retries run out.
        retry = RetryPolicy(
            max_retries=1, backoff_base_ms=1.0, command_timeout_ms=0.001
        )
        sim, controller = make_controller(frozenset(), retry)
        done = []
        controller.submit(
            DiskCommand(0, 100, 2, on_complete=lambda c: done.append(c))
        )
        sim.run()
        assert done[0].error == "timeout"
        assert controller.stats.command_timeouts == 2  # original + retry
        assert controller.stats.media_retries == 1
        assert controller.stats.failed_commands == 1


class TestOffline:
    def test_backoff_expiry_on_offline_disk_aborts(self):
        """A job whose backoff expires while the disk is failed is
        aborted with DISK_FAILED instead of being requeued."""
        retry = RetryPolicy(max_retries=3, backoff_base_ms=50.0)
        sim, controller = make_controller(frozenset({0}), retry)
        done = []
        controller.submit(
            DiskCommand(0, 100, 2, on_complete=lambda c: done.append(c))
        )
        # Fail the disk inside the backoff window: after the media op
        # errors (a few ms in) but before the 50 ms backoff expires.
        def fail_disk():
            controller.faults.failed = True
            controller.fault_transition("fail", 0)

        sim.schedule(25.0, fail_disk)
        sim.run()
        assert done[0].error == DISK_FAILED
        assert controller.stats.failed_commands == 1
        assert controller.queue_length == 0

    def test_fail_transition_drains_queue_in_order(self):
        sim, controller = make_controller(frozenset(), RetryPolicy())
        failed = []
        # Saturate the media with one in-flight op, then queue two more.
        for tag, start in (("A", 100), ("B", 5000), ("C", 9000)):
            controller.submit(
                DiskCommand(
                    0, start, 2,
                    on_complete=lambda c, t=tag: failed.append((t, c.error)),
                )
            )
        controller.faults.failed = True
        controller.fault_transition("fail", 0)
        # B and C are drained synchronously, before any more sim time.
        assert [t for t, _ in failed] == ["B", "C"]
        sim.run()
        # A was already on the media: an in-flight clean operation is
        # allowed to finish and deliver (only errors consult offline).
        errors = dict(failed)
        assert errors["A"] is None
        assert errors["B"] == DISK_FAILED
        assert errors["C"] == DISK_FAILED
        assert controller.queue_length == 0
        assert controller.stats.failed_commands == 2

    def test_submit_fail_fast_when_offline(self):
        sim, controller = make_controller(frozenset(), RetryPolicy())
        controller.faults.failed = True
        done = []
        controller.submit(
            DiskCommand(0, 100, 2, on_complete=lambda c: done.append(c))
        )
        assert done == []  # async completion: not inside submit()
        sim.run()
        assert done[0].error == DISK_FAILED
        assert controller.stats.media_reads == 0

    def test_recover_transition_restarts_service(self):
        sim, controller = make_controller(frozenset(), RetryPolicy())
        done = []
        # Slip a job into the scheduler without kicking, simulating work
        # queued while the disk was failed; recovery must restart the
        # service loop for it.
        job = MediaJob(MediaJob.INTERNAL_READ, None, 100, 2, lambda: done.append(1))
        controller.scheduler.push(
            controller.drive.geometry.cylinder_of(100), job, sim.now
        )
        assert controller.queue_length == 1
        controller.fault_transition("recover", 0)
        sim.run()
        assert done == [1]
        assert controller.queue_length == 0
