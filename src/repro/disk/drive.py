"""One physical device: head position plus a bounded media service loop.

The drive is a bounded-concurrency media server: it accepts up to
``device.channels`` concurrent media operations (1 for a mechanical
disk — the historical serial loop — N for flash with internal channel
parallelism). Each operation's duration comes from the slot's
:class:`~repro.devices.base.DeviceModel`: for the paper's mechanical
path that is command overhead + seek from the current head position +
sampled rotational latency + transfer of the whole run (requested plus
read-ahead — "no other request can start before the disk head finishes
reading all the blocks that had already been scheduled"); for flash a
flat access latency plus transfer.

Every operation's phase split (overhead/seek/rotation/transfer) is
accumulated on the drive, so time-in-state breakdowns are available on
every run; with tracing enabled the drive additionally emits one span
per media operation on its ``diskN`` track and one span per phase on
the ``diskN/state`` sub-track.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.devices.base import DeviceModel
from repro.errors import SimulationError
from repro.obs.tracer import NULL_TRACER
from repro.sim.engine import Simulator


class DiskDrive:
    """Bounded-concurrency media server for one physical device."""

    def __init__(
        self,
        disk_id: int,
        sim: Simulator,
        device: DeviceModel,
        tracer=NULL_TRACER,
    ):
        self.disk_id = disk_id
        self.sim = sim
        self.device = device
        self.geometry = device.geometry
        #: Concurrent media operations the device sustains (1 = the
        #: classic serial mechanical loop).
        self.n_channels = device.channels
        self.head_block = 0
        self.tracer = tracer
        self._track = f"disk{disk_id}"
        self._state_track = f"disk{disk_id}/state"
        #: Per-disk :class:`~repro.faults.injector.FaultInjector`, or
        #: ``None`` (the default) for the fault-free fast path. Set by
        #: :meth:`~repro.controller.controller.DiskController.attach_faults`.
        self.faults = None
        self._slow_factor = 1.0
        self._in_flight = 0
        # accounting
        self.busy_time: float = 0.0
        self.operations: int = 0
        self.blocks_transferred: int = 0
        self.seek_time_total: float = 0.0
        self.rotation_time_total: float = 0.0
        self.transfer_time_total: float = 0.0
        self.overhead_time_total: float = 0.0
        #: Peak concurrent media operations observed (== 1 on a
        #: mechanical drive; > 1 proves channel parallelism engaged).
        self.max_concurrent: int = 0
        #: Extra busy time injected by slow-response faults (ms); the
        #: phase totals above cover only the mechanical service split.
        self.fault_delay_ms: float = 0.0

    @property
    def busy(self) -> bool:
        """Whether the device can accept no further media operation.

        A mechanical drive is busy whenever one operation is in
        flight; a multi-channel device only once every channel is.
        """
        return self._in_flight >= self.n_channels

    @property
    def in_flight(self) -> int:
        """Media operations currently being serviced."""
        return self._in_flight

    @property
    def head_cylinder(self) -> int:
        """Cylinder under the head (LOOK and seek distances use this)."""
        return self.geometry.cylinder_of(self.head_block)

    def attach_faults(self, injector, slow_factor: float) -> None:
        """Consult ``injector`` on every media operation (fault mode)."""
        self.faults = injector
        self._slow_factor = slow_factor

    def execute(
        self,
        start_block: int,
        n_blocks: int,
        is_write: bool,
        on_done: Callable[..., None],
    ) -> float:
        """Run one media operation; ``on_done`` fires at completion.

        Returns the operation's duration (useful for tests). The drive
        must have a free channel — the controller's kick loop
        guarantees this.

        With a fault injector attached, the operation may be stretched
        (slow response) or complete with a transient error, in which
        case ``on_done`` receives the error token as a positional
        argument; fault-free completions call ``on_done()`` with no
        arguments, so zero-arg continuations keep working unchanged.
        """
        if self.busy:
            raise SimulationError(f"disk {self.disk_id} media already busy")
        if n_blocks <= 0:
            raise SimulationError(f"media op needs >=1 block, got {n_blocks}")
        self.geometry.check_block(start_block)
        if start_block + n_blocks > self.geometry.n_blocks:
            raise SimulationError(
                f"media op [{start_block},{start_block + n_blocks}) past disk end"
            )

        phases = self.device.breakdown(
            self.head_block, start_block, n_blocks, is_write
        )
        duration = phases.total_ms
        self.overhead_time_total += phases.overhead_ms
        self.seek_time_total += phases.seek_ms
        self.rotation_time_total += phases.rotation_ms
        self.transfer_time_total += phases.transfer_ms
        error: Optional[str] = None
        if self.faults is not None:
            extra_ms, error = self.faults.media_outcome(
                duration, self._slow_factor
            )
            if extra_ms > 0.0:
                duration += extra_ms
                self.fault_delay_ms += extra_ms
        self._in_flight += 1
        if self._in_flight > self.max_concurrent:
            self.max_concurrent = self._in_flight

        tracer = self.tracer
        if tracer.enabled:
            start_ts = self.sim.now
            tracer.complete(
                self._track,
                "write" if is_write else "read",
                start_ts,
                duration,
                start=start_block,
                blocks=n_blocks,
            )
            ts = start_ts
            for name, phase_ms in (
                ("overhead", phases.overhead_ms),
                ("seek", phases.seek_ms),
                ("rotation", phases.rotation_ms),
                ("transfer", phases.transfer_ms),
            ):
                tracer.complete(self._state_track, name, ts, phase_ms)
                ts += phase_ms

        self.sim.call_after(
            duration, self._finish, start_block, n_blocks, duration, error, on_done
        )
        return duration

    def _finish(
        self,
        start_block: int,
        n_blocks: int,
        duration: float,
        error: Optional[str],
        on_done: Callable[..., None],
    ) -> None:
        self._in_flight -= 1
        self.head_block = start_block + n_blocks - 1
        self.busy_time += duration
        self.operations += 1
        self.blocks_transferred += n_blocks
        if error is not None:
            on_done(error)
        else:
            on_done()

    def utilization(self, elapsed: float) -> float:
        """Fraction of ``elapsed`` the media capacity was busy.

        Normalised by channel count, so a 4-channel flash device with
        one channel always running reports 0.25.
        """
        if elapsed <= 0:
            return 0.0
        return min(1.0, self.busy_time / (elapsed * self.n_channels))
