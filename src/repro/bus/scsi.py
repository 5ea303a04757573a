"""Ultra160 SCSI bus: a single shared channel with bandwidth contention.

All disks of the array hang off one host adapter (§6.1: "an array of
SCSI disks attached to a single Ultra160 SCSI card"). Every data
transfer between a controller cache and host memory holds the bus for
``bytes / bandwidth + per-command overhead``; concurrent transfers
queue FIFO. At 160 MB/s the bus is rarely the bottleneck for 8 disks of
54 MB/s media rate doing small random I/O — but it is simulated, so
configurations that saturate it (large striping units, big reads)
behave correctly.

The bus is its own single-slot FIFO: a transfer on an idle bus
schedules its finish event at once, and each finish hands the bus to
the oldest waiter before running its continuation, so one transfer
costs exactly one engine event. Busy time accumulates per transfer
(``now - busy_since`` at each finish), for :meth:`ScsiBus.utilization`.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Tuple

from repro.config import BusParams
from repro.obs.tracer import NULL_TRACER
from repro.sim.engine import Simulator

#: The bus's trace track (a single shared channel — one timeline).
BUS_TRACK = "bus"


class ScsiBus:
    """FIFO-contended shared bus."""

    def __init__(self, sim: Simulator, params: BusParams, tracer=NULL_TRACER):
        self.sim = sim
        self.params = params
        self.tracer = tracer
        self.bytes_transferred: int = 0
        self.transfers: int = 0
        #: Milliseconds the bus was held by finished transfers.
        self.busy_time: float = 0.0
        self._busy = False
        self._busy_since: float = 0.0
        #: Transfers waiting for the bus, oldest first.
        self._waiters: Deque[Tuple[float, Callable[..., Any], tuple]] = deque()

    def transfer(self, n_bytes: int, fn: Callable[..., Any], *args: Any) -> None:
        """Move ``n_bytes`` across the bus, then run ``fn(*args)``."""
        duration = (
            n_bytes / self.params.bandwidth_bytes_ms
            + self.params.per_command_overhead_ms
        )
        self.bytes_transferred += n_bytes
        self.transfers += 1
        if self.tracer.enabled:
            # The occupancy span [completion - duration, completion) is
            # only known once the transfer finishes (it may first wait
            # in the FIFO), so record it from a wrapping continuation.
            tracer = self.tracer
            requested_at = self.sim.now

            def _traced(target: Callable[..., Any], *inner: Any) -> None:
                end = self.sim.now
                tracer.complete(
                    BUS_TRACK,
                    "xfer",
                    end - duration,
                    duration,
                    bytes=n_bytes,
                    wait_ms=max(0.0, end - duration - requested_at),
                )
                target(*inner)

            fn, args = _traced, (fn, *args)
        if self._busy:
            self._waiters.append((duration, fn, args))
            return
        self._busy = True
        self._busy_since = self.sim.now
        self.sim.call_after(duration, self._finish, fn, args)

    def _finish(self, fn: Callable[..., Any], args: tuple) -> None:
        """End the current transfer, start the oldest waiter, run ``fn``."""
        sim = self.sim
        self.busy_time += sim.now - self._busy_since
        if self._waiters:
            duration, next_fn, next_args = self._waiters.popleft()
            self._busy_since = sim.now
            sim.call_after(duration, self._finish, next_fn, next_args)
        else:
            self._busy = False
        fn(*args)

    def utilization(self, elapsed: float) -> float:
        """Fraction of ``elapsed`` during which the bus was busy."""
        if elapsed <= 0:
            return 0.0
        busy = self.busy_time
        if self._busy:
            busy += self.sim.now - self._busy_since
        return min(1.0, busy / elapsed)
