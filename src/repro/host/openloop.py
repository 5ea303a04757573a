"""Open-loop trace replay: issue requests at their trace timestamps.

The closed-loop :class:`~repro.host.streams.ReplayDriver` measures
*capacity* — ``t`` streams hammer the array as fast as completions
allow, which is the paper's "replayed as fast as possible" §6.1 setup.
An ingested real trace also carries *when* each request arrived, which
asks the complementary question: what latency does the system deliver
under the offered load? This driver answers it by scheduling record
``i``'s issue at ``(t_i - t_0) / accel`` simulated ms, regardless of
how many earlier records are still in flight.

``accel`` > 1 time-warps the trace (arrivals compressed, offered load
multiplied) so a lightly-loaded capture can still push the simulated
array toward saturation; ``accel`` < 1 stretches it. Decomposition,
read-merging, latency accounting and fault handling are shared with
the closed-loop driver — only the admission discipline differs.

Each admission emits a ``replay.admit`` tracer instant (record index +
in-flight depth) on the host track, so a Perfetto timeline shows the
offered-load process alongside the service pipeline.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional, Union

from repro.errors import WorkloadError
from repro.host.streams import HOST_TRACK, ReplayDriver
from repro.host.system import System
from repro.workloads.trace import DiskAccess, Trace


class OpenLoopDriver(ReplayDriver):
    """Replays a *timed* trace at its own arrival times."""

    def __init__(
        self,
        system: System,
        trace: Union[Trace, Iterable[DiskAccess]],
        accel: float = 1.0,
        coalesce_prob: Optional[float] = None,
        on_record_complete: Optional[Callable[[DiskAccess], None]] = None,
        keep_raw_latencies: bool = True,
        array=None,
        striping=None,
    ):
        # Validate before the base constructor touches the source: it
        # consumes the first record for the lookahead, and partially
        # draining a lazy iterator the caller may retry with (after
        # fixing a bad accel) would silently drop that record.
        # ``not accel > 0`` also rejects NaN.
        if not accel > 0:
            raise WorkloadError(f"accel must be positive, got {accel}")
        super().__init__(
            system,
            trace,
            n_streams=1,  # unused: admission is timestamp-driven
            coalesce_prob=coalesce_prob,
            on_record_complete=on_record_complete,
            keep_raw_latencies=keep_raw_latencies,
            array=array,
            striping=striping,
        )
        self.accel = accel
        self.records_admitted = 0
        t0 = self._timestamp_of(self._pending)
        if t0 is None:
            raise WorkloadError(
                "open-loop replay needs a timed trace (TimedAccess records "
                "with timestamps — convert one with `python -m repro.ingest`)"
            )
        #: First record's trace timestamp — the origin of the absolute
        #: arrival timeline every later record is scheduled against.
        self._t0 = t0
        self._start_time = 0.0

    def _empty_message(self) -> str:
        return (
            "cannot open-loop replay an empty timed trace "
            "(no arrival timestamps to schedule)"
        )

    @staticmethod
    def _timestamp_of(record: DiskAccess) -> Optional[float]:
        return getattr(record, "timestamp_ms", None)

    @property
    def in_flight(self) -> int:
        """Records admitted but not yet completed."""
        return self.records_admitted - self.records_completed

    # -- admission pump ------------------------------------------------

    def run(self) -> float:
        """Replay the whole trace; returns the total I/O time in ms."""
        self._ensure_fresh_run()
        sim = self.system.sim
        start = sim.now
        self._start_time = start
        sim.call_after(0.0, self._arrive)
        # The engine runs until the last completion calls ``sim.stop()``
        # from ``_record_done`` (see ReplayDriver.run for why the queue
        # is never drained).
        sim.run()
        if self._pending is not None or self.records_completed < self.records_taken:
            raise self._stall_error()
        self.finish_time = sim.now
        return sim.now - start

    def _arrive(self) -> None:
        """Admit every record whose arrival time has come, then re-arm.

        Arrivals are scheduled against the *absolute* timeline
        ``start + (t_i - t_0) / accel``: a straggler timestamp (capture
        reordering) issues immediately but never shifts later arrivals
        off the trace's schedule, and runs of same-instant arrivals are
        admitted inside one event instead of a chain of zero-delay
        events. The one-record lookahead (``self._pending``) supplies
        the next arrival's timestamp without consuming it, so lazy
        iterator sources schedule exactly like materialized traces.
        """
        sim = self.system.sim
        tracer = self.system.tracer
        start = self._start_time
        t0 = self._t0
        accel = self.accel
        while True:
            record = self._take()
            if record is None:  # pragma: no cover — arrivals never over-arm
                return
            index = self.records_admitted
            self.records_admitted += 1
            if tracer.enabled:
                tracer.instant(
                    HOST_TRACK,
                    "replay.admit",
                    record=index,
                    in_flight=self.in_flight,
                )
            self._issue_record(record, stream_id=index)
            nxt = self._pending
            if nxt is None:
                return
            ts = self._timestamp_of(nxt)
            if ts is None:
                raise WorkloadError(
                    f"record {self.records_taken} has no timestamp — "
                    "open-loop replay needs a fully timed trace"
                )
            target = start + (ts - t0) / accel
            if target > sim.now:
                sim.call_at(target, self._arrive)
                return
            # target <= now: due at this instant (or overdue straggler)
            # — admit it in this same event.

    def _start_next(self, stream_id: int) -> None:
        """Completions never pull the next record in an open loop."""
