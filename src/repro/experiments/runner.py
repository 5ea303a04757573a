"""Run one technique over one (layout, trace) pair — the experiment core.

:class:`TechniqueRunner` memoises the expensive per-workload artifacts
that do not change across techniques (block-access profile) or change
only with the striping unit (FOR bitmaps, HDC pin plans), so a figure's
sweep over four systems replays the *same* workload under identical
randomness — which is what makes "normalized I/O time" meaningful.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.array.striping import StripingLayout
from repro.config import ReadAheadKind, SimConfig
from repro.errors import WorkloadError
from repro.experiments.techniques import Technique, technique_config
from repro.fs.bitmap_builder import build_bitmaps
from repro.fs.layout import FileSystemLayout
from repro.hdc.manager import HdcManager
from repro.hdc.planner import HdcPlan, plan_pin_sets
from repro.hdc.profiler import BlockAccessProfiler
from repro.host.openloop import OpenLoopDriver
from repro.host.streams import ReplayDriver
from repro.host.system import System
from repro.metrics.collector import RunResult, collect_run_result
from repro.obs.tracer import active_tracer
from repro.readahead.bitmap import SequentialityBitmap
from repro.workloads.trace import DiskAccess, Trace


class TechniqueRunner:
    """Replays one workload under different techniques/configurations."""

    def __init__(
        self,
        layout: FileSystemLayout,
        trace: Optional[Trace],
        profile_trace: Optional[Trace] = None,
        trace_factory: Optional[Callable[[], Iterable[DiskAccess]]] = None,
    ):
        """``profile_trace`` is the HDC history (§5): the *previous
        period's* accesses over the same layout. When omitted, pin sets
        are planned from the measured trace itself — §6.1's
        perfect-knowledge assumption.

        ``trace_factory`` replaces a materialized ``trace`` (pass
        ``trace=None``) with a zero-arg callable returning a fresh
        record iterable per call — each technique's replay, and the
        HDC profile pass, pull their own lazy stream, so
        million-record workloads (e.g. :mod:`repro.loadgen`
        populations) are generated on the fly and never held in
        memory."""
        if trace is None and trace_factory is None:
            raise WorkloadError("TechniqueRunner needs a trace or a trace_factory")
        self.layout = layout
        self.trace = trace
        self.trace_factory = trace_factory
        self.profile_trace = profile_trace if profile_trace is not None else trace
        self._profile: Optional[BlockAccessProfiler] = None
        self._bitmaps: Dict[Tuple[int, int], List[SequentialityBitmap]] = {}
        self._plans: Dict[Tuple[int, int, int], HdcPlan] = {}

    # -- memoised artifacts ---------------------------------------------

    def profile(self) -> BlockAccessProfiler:
        """Block-access counts of the profile trace (computed once)."""
        if self._profile is None:
            source: Iterable[DiskAccess]
            if self.profile_trace is not None:
                source = self.profile_trace
            else:
                assert self.trace_factory is not None
                source = self.trace_factory()
            self._profile = BlockAccessProfiler.of(source)
        return self._profile

    def bitmaps_for(self, config: SimConfig) -> List[SequentialityBitmap]:
        """FOR bitmaps for the config's striping (memoised per striping)."""
        key = (config.array.n_disks, config.array.unit_blocks(config.block_size))
        bitmaps = self._bitmaps.get(key)
        if bitmaps is None:
            striping = StripingLayout(key[0], key[1], config.disk_blocks)
            bitmaps = build_bitmaps(self.layout, striping)
            self._bitmaps[key] = bitmaps
        return bitmaps

    def plan_for(self, config: SimConfig, pin_blocks_per_disk: int) -> HdcPlan:
        """HDC pin plan for the config's striping + pin-set size."""
        key = (
            config.array.n_disks,
            config.array.unit_blocks(config.block_size),
            pin_blocks_per_disk,
        )
        plan = self._plans.get(key)
        if plan is None:
            striping = StripingLayout(key[0], key[1], config.disk_blocks)
            plan = plan_pin_sets(self.profile().counts, striping, pin_blocks_per_disk)
            self._plans[key] = plan
        return plan

    # -- the run -----------------------------------------------------------

    def run(
        self,
        base_config: SimConfig,
        technique: Technique,
        hdc_bytes: int = 0,
        n_streams: Optional[int] = None,
        coalesce_prob: Optional[float] = None,
        hdc_flush_interval_ms: float = 0.0,
        hdc_pin_fraction: float = 1.0,
        keep_raw_latencies: bool = True,
        open_loop: bool = False,
        accel: float = 1.0,
    ) -> RunResult:
        """Replay the workload under ``technique``; returns the result.

        ``open_loop=True`` selects the open-loop replay engine
        (:class:`~repro.host.openloop.OpenLoopDriver`): records issue
        at their trace timestamps, time-warped by ``accel``, instead of
        the closed-loop ``n_streams`` model — the trace must be timed.

        The end-of-run ``flush_hdc`` (when HDC is active) is included in
        the reported I/O time, matching §6.1's "dirty HDC blocks are only
        updated to disk at the end of each simulated execution".

        ``hdc_pin_fraction`` < 1 pins only that fraction of the HDC
        region's block capacity while still carving the full
        ``hdc_bytes`` out of the controller cache. Scaled-down server
        workloads use it (fraction = workload scale) so the pinned set
        covers the same *fraction of the footprint* as at full scale,
        keeping hit rates comparable to the paper's, while the cache
        starvation effect of a large HDC region stays at hardware
        (absolute) size.
        """
        config = technique_config(base_config, technique, hdc_bytes)
        bitmaps = (
            self.bitmaps_for(config)
            if config.readahead is ReadAheadKind.FILE_ORIENTED
            else None
        )
        tracer = active_tracer()
        if tracer.enabled:
            unit_kb = config.array.striping_unit_bytes // 1024
            tracer.new_run(
                f"{technique.label} unit={unit_kb}KB hdc={hdc_bytes // 1024}KB"
            )
        system = System(config, bitmaps=bitmaps)

        manager: Optional[HdcManager] = None
        if config.hdc_bytes > 0:
            pin_blocks = max(1, int(config.hdc_blocks * hdc_pin_fraction))
            plan = self.plan_for(config, pin_blocks)
            manager = HdcManager(
                system.sim,
                system.array,
                plan,
                flush_interval_ms=hdc_flush_interval_ms,
            )
            manager.setup(timed=False)

        source = self.trace if self.trace_factory is None else self.trace_factory()
        if open_loop:
            driver: ReplayDriver = OpenLoopDriver(
                system,
                source,
                accel=accel,
                coalesce_prob=coalesce_prob,
                keep_raw_latencies=keep_raw_latencies,
            )
        else:
            driver = ReplayDriver(
                system,
                source,
                n_streams=n_streams,
                coalesce_prob=coalesce_prob,
                keep_raw_latencies=keep_raw_latencies,
            )
        elapsed = driver.run()
        if manager is not None:
            manager.finish()
            system.sim.run()
            elapsed = system.sim.now
        return collect_run_result(system, driver, elapsed)
