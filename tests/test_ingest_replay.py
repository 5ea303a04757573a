"""Open-loop replay: timestamp-driven admission, accel, determinism."""

import math

import pytest

from repro.errors import WorkloadError
from repro.host.openloop import OpenLoopDriver
from repro.host.system import System
from repro.obs.tracer import Tracer, tracing
from repro.workloads.trace import DiskAccess, TimedAccess, Trace, TraceMeta


def timed_trace(n=20, gap_ms=5.0, stride=64):
    records = [
        TimedAccess([((i * stride) % 4096, 8)], i % 3 == 0, i * gap_ms)
        for i in range(n)
    ]
    return Trace(records, TraceMeta(n_streams=4, coalesce_prob=0.0))


class TestOpenLoopDriver:
    def test_rejects_untimed_trace(self, small_config):
        trace = Trace(
            [DiskAccess([(0, 8)])], TraceMeta(coalesce_prob=0.0)
        )
        system = System(small_config)
        with pytest.raises(WorkloadError, match="timed trace"):
            OpenLoopDriver(system, trace)

    def test_rejects_empty_trace(self, small_config):
        """Regression: an empty timed trace must be a clear
        WorkloadError, not a bare IndexError on ``trace[0]``."""
        trace = Trace([], TraceMeta(coalesce_prob=0.0))
        system = System(small_config)
        with pytest.raises(WorkloadError, match="empty timed trace"):
            OpenLoopDriver(system, trace)

    @pytest.mark.parametrize("accel", [0.0, -1.0, math.nan])
    def test_rejects_nonpositive_accel(self, small_config, accel):
        system = System(small_config)
        with pytest.raises(WorkloadError, match="accel"):
            OpenLoopDriver(system, timed_trace(), accel=accel)

    def test_completes_every_record(self, small_config):
        system = System(small_config)
        driver = OpenLoopDriver(system, timed_trace(30))
        driver.run()
        assert driver.records_admitted == 30
        assert driver.records_completed == 30
        assert driver.in_flight == 0

    def test_admission_follows_timestamps(self, small_config):
        """With widely spaced arrivals the run lasts at least as long as
        the trace — completions never pull arrivals forward."""
        system = System(small_config)
        elapsed = OpenLoopDriver(system, timed_trace(10, gap_ms=50.0)).run()
        assert elapsed >= 9 * 50.0

    def test_accel_compresses_arrivals(self, small_config):
        slow = OpenLoopDriver(
            System(small_config), timed_trace(10, gap_ms=50.0)
        ).run()
        fast = OpenLoopDriver(
            System(small_config), timed_trace(10, gap_ms=50.0), accel=10.0
        ).run()
        assert fast < slow / 2

    def test_second_run_raises_instead_of_hanging(self, small_config):
        """Regression: rerunning a finished driver admitted nothing but
        let background timers keep the engine alive forever."""
        system = System(small_config)
        driver = OpenLoopDriver(system, timed_trace(10))
        driver.run()
        with pytest.raises(WorkloadError, match="already ran"):
            driver.run()

    def test_bad_accel_leaves_lazy_source_untouched(self, small_config):
        """Regression: accel was validated only after the base
        constructor had consumed the source's first record, so a lazy
        iterator the caller retried with (after fixing the accel) had
        silently lost its head."""
        taken = []

        def source():
            for record in timed_trace(5).records:
                taken.append(record)
                yield record

        generator = source()
        system = System(small_config)
        with pytest.raises(WorkloadError, match="accel"):
            OpenLoopDriver(system, generator, accel=0.0, coalesce_prob=0.0)
        assert taken == []  # nothing consumed: the retry sees it all
        driver = OpenLoopDriver(system, generator, coalesce_prob=0.0)
        driver.run()
        assert driver.records_completed == 5

    def test_deterministic_across_runs(self, small_config):
        results = []
        for _ in range(2):
            system = System(small_config)
            driver = OpenLoopDriver(system, timed_trace(25, gap_ms=2.0))
            elapsed = driver.run()
            results.append((elapsed, tuple(driver.record_latencies_ms)))
        assert results[0] == results[1]

    def test_straggler_does_not_shift_later_arrivals(self, small_config):
        """Regression: a reordered-capture straggler must issue
        immediately without pushing later records off the trace's
        absolute schedule.

        The old pump chained relative deltas and clamped the negative
        gap to zero, so every record after the straggler arrived late by
        the straggler's backwards jump (here record 3 at 245 ms instead
        of 150 ms).
        """
        records = [
            TimedAccess([(0, 8)], False, 0.0),
            TimedAccess([(64, 8)], False, 100.0),
            TimedAccess([(128, 8)], False, 5.0),  # captured out of order
            TimedAccess([(192, 8)], False, 150.0),
        ]
        trace = Trace(records, TraceMeta(coalesce_prob=0.0))
        tracer = Tracer()
        with tracing(tracer):
            system = System(small_config)
            driver = OpenLoopDriver(system, trace)
            driver.run()
        admits = {
            e[7]["record"]: e[4]
            for e in tracer.events
            if e[3] == "replay.admit"
        }
        assert admits[1] == pytest.approx(100.0)
        # The straggler issues as soon as its lateness is discovered —
        # in the same arrival event as record 1, never by time travel.
        assert admits[2] == pytest.approx(100.0)
        # Record 3 stays on the absolute timeline: 150 ms, not 245 ms.
        assert admits[3] == pytest.approx(150.0)

    def test_same_instant_arrivals_admitted_together(self, small_config):
        """A run of identical timestamps is admitted inside one arrival
        event: every admit instant carries the same simulated time."""
        records = [TimedAccess([(0, 8)], False, 0.0)] + [
            TimedAccess([(i * 64, 8)], False, 10.0) for i in range(1, 6)
        ]
        trace = Trace(records, TraceMeta(coalesce_prob=0.0))
        tracer = Tracer()
        with tracing(tracer):
            system = System(small_config)
            OpenLoopDriver(system, trace).run()
        admit_times = [
            e[4] for e in tracer.events if e[3] == "replay.admit"
        ]
        assert admit_times[0] == pytest.approx(0.0)
        assert admit_times[1:] == pytest.approx([10.0] * 5)

    def test_batched_pump_deterministic_and_matches_closed_loop_seed(
        self, small_config
    ):
        """Same-seed determinism over the batched pump, for both loops:
        repeated closed-loop runs agree, repeated open-loop runs (with
        same-instant batches) agree."""
        from repro.host.streams import ReplayDriver

        def batched_trace():
            # bursts of three records per instant exercise the batch path
            return Trace(
                [
                    TimedAccess(
                        [((i * 64) % 4096, 8)], i % 4 == 0, (i // 3) * 4.0
                    )
                    for i in range(24)
                ],
                TraceMeta(n_streams=4, coalesce_prob=0.5),
            )

        open_results = []
        closed_results = []
        for _ in range(2):
            system = System(small_config)
            driver = OpenLoopDriver(system, batched_trace())
            elapsed = driver.run()
            open_results.append(
                (elapsed, tuple(driver.record_latencies_ms))
            )
            system = System(small_config)
            closed = ReplayDriver(system, batched_trace())
            elapsed = closed.run()
            closed_results.append(
                (elapsed, tuple(closed.record_latencies_ms))
            )
        assert open_results[0] == open_results[1]
        assert closed_results[0] == closed_results[1]

    def test_mid_trace_untimed_record_rejected(self, small_config):
        records = [
            TimedAccess([(0, 8)], False, 0.0),
            DiskAccess([(64, 8)]),
            TimedAccess([(128, 8)], False, 2.0),
        ]
        trace = Trace(records, TraceMeta(coalesce_prob=0.0))
        system = System(small_config)
        driver = OpenLoopDriver(system, trace)
        with pytest.raises(WorkloadError, match="no timestamp"):
            driver.run()

    def test_admit_instants_traced(self, small_config):
        tracer = Tracer()
        with tracing(tracer):
            system = System(small_config)
            OpenLoopDriver(system, timed_trace(12)).run()
        admits = [e for e in tracer.events if e[3] == "replay.admit"]
        assert len(admits) == 12
        assert [e[7]["record"] for e in admits] == list(range(12))


class TestRunnerIntegration:
    def test_runner_open_loop_path(self, small_config):
        from repro.experiments.runner import TechniqueRunner
        from repro.experiments.techniques import SEGM
        from repro.fs.layout import FileSystemLayout

        trace = timed_trace(20)
        layout = FileSystemLayout.build(
            [8] * 16, small_config.array_blocks
        )
        runner = TechniqueRunner(layout, trace)
        open_res = runner.run(small_config, SEGM, open_loop=True, accel=2.0)
        closed_res = runner.run(small_config, SEGM)
        assert open_res.records == closed_res.records == 20
        # both paths report through the same collector
        assert open_res.io_time_ms > 0
        assert len(open_res.record_latencies_ms) == 20
