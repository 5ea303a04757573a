"""Assemble a complete simulated system from a :class:`SimConfig`.

One :class:`System` owns the event engine, the shared bus, and one
drive + controller pair per disk, wired according to the configured
device kind, cache organization, read-ahead policy, queue discipline
and HDC size. This is the single place where configuration turns into
objects, so experiments and examples construct systems identically:
each slot's components are picked here straight from the config's
enums.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.array.array import DiskArray
from repro.array.striping import StripingLayout
from repro.bus.scsi import ScsiBus
from repro.cache.block import BlockCache
from repro.cache.segment import SegmentCache
from repro.config import (
    CacheOrganization,
    DeviceKind,
    ReadAheadKind,
    SchedulerKind,
    SimConfig,
)
from repro.controller.controller import DiskController
from repro.devices import FlashServiceModel, HddDeviceModel
from repro.disk.drive import DiskDrive
from repro.errors import ConfigError
from repro.faults.injector import FaultRuntime
from repro.faults.plan import FaultPlan
from repro.faults.profile import active_fault_profile
from repro.obs.tracer import active_tracer
from repro.readahead.bitmap import SequentialityBitmap
from repro.readahead.blind import BlindReadAhead
from repro.readahead.file_oriented import FileOrientedReadAhead
from repro.readahead.none import NoReadAhead
from repro.scheduling.cscan import CScanScheduler
from repro.scheduling.fcfs import FCFSScheduler
from repro.scheduling.look import LookScheduler
from repro.scheduling.sstf import SSTFScheduler
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams

_SCHEDULERS = {
    SchedulerKind.LOOK: LookScheduler,
    SchedulerKind.FCFS: FCFSScheduler,
    SchedulerKind.SSTF: SSTFScheduler,
    SchedulerKind.CSCAN: CScanScheduler,
}


class System:
    """A ready-to-run simulated host + array."""

    def __init__(
        self,
        config: SimConfig,
        bitmaps: Optional[Sequence[SequentialityBitmap]] = None,
        deterministic_rotation: bool = False,
        tracer=None,
    ):
        """``tracer`` instruments every component; ``None`` (default)
        uses the process-wide active tracer — the no-op
        :data:`~repro.obs.tracer.NULL_TRACER` unless the experiments
        CLI (or a test) installed a recording one."""
        config.validate()
        self.config = config
        self.sim = Simulator()
        self.tracer = tracer if tracer is not None else active_tracer()
        self.tracer.bind_clock(self.sim)
        self.streams = RandomStreams(config.seed)
        self.bus = ScsiBus(self.sim, config.bus, tracer=self.tracer)
        self.striping = StripingLayout(
            config.array.n_disks,
            config.array.unit_blocks(config.block_size),
            config.disk_blocks,
        )
        if config.readahead is ReadAheadKind.FILE_ORIENTED:
            if bitmaps is None:
                raise ConfigError(
                    "file-oriented read-ahead requires per-disk bitmaps "
                    "(build them with repro.fs.build_bitmaps)"
                )
            if len(bitmaps) != config.array.n_disks:
                raise ConfigError(
                    f"expected {config.array.n_disks} bitmaps, got {len(bitmaps)}"
                )
        self.bitmaps = list(bitmaps) if bitmaps is not None else None

        segment_blocks = config.cache.segment_blocks
        controllers: List[DiskController] = []
        for disk_id in range(config.array.n_disks):
            spec = config.device_spec(disk_id)
            # Every slot takes its named rotation stream; flash never
            # draws from it.
            rotation = self.streams.stream(f"disk{disk_id}.rotation")
            if spec.kind is DeviceKind.HDD:
                device = HddDeviceModel(
                    spec.hdd,
                    config.block_size,
                    rng=rotation,
                    deterministic_rotation=deterministic_rotation,
                )
            else:
                device = FlashServiceModel(spec.ssd, config.block_size)
            drive = DiskDrive(disk_id, self.sim, device, tracer=self.tracer)
            if config.cache.organization is CacheOrganization.BLOCK:
                cache = BlockCache(
                    capacity_blocks=config.effective_cache_blocks,
                    policy=config.cache.block_policy,
                )
            else:
                cache = SegmentCache(
                    n_segments=config.effective_segments,
                    segment_blocks=segment_blocks,
                    policy=config.cache.segment_policy,
                    rng=self.streams.stream(f"disk{disk_id}.segcache"),
                )
            if config.readahead is ReadAheadKind.FILE_ORIENTED:
                readahead = FileOrientedReadAhead(
                    self.bitmaps[disk_id], segment_blocks
                )
            elif config.readahead is ReadAheadKind.NONE:
                readahead = NoReadAhead()
            else:
                readahead = BlindReadAhead(segment_blocks)
            controller = DiskController(
                disk_id=disk_id,
                sim=self.sim,
                drive=drive,
                scheduler=_SCHEDULERS[config.scheduler](),
                cache=cache,
                readahead=readahead,
                bus=self.bus,
                block_size=config.block_size,
                hdc_blocks=config.hdc_blocks,
                anticipatory_wait_ms=config.anticipatory_wait_ms,
                tracer=self.tracer,
            )
            controllers.append(controller)
        self.array = DiskArray(self.sim, self.striping, controllers, self.bus)
        #: :class:`~repro.faults.injector.FaultRuntime` when fault
        #: injection is enabled, else ``None`` (zero-overhead path).
        self.faults = None
        profile = (
            config.faults if config.faults is not None else active_fault_profile()
        )
        if profile is not None and profile.any_faults:
            plan = FaultPlan.generate(profile, config.array.n_disks, config.seed)
            FaultRuntime.attach(self, plan, config.retry)

    # -- convenience -------------------------------------------------------

    @property
    def controllers(self) -> List[DiskController]:
        """The array's controllers, indexed by disk id."""
        return self.array.controllers

    def run(self, until: Optional[float] = None) -> float:
        """Run the event engine (delegates to the simulator)."""
        return self.sim.run(until)
