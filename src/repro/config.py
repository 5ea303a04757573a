"""Validated configuration dataclasses and the paper's Table 1 preset.

Every simulation is described by a :class:`SimConfig`, which aggregates:

* :class:`DiskParams` — one disk drive's geometry and mechanics
  (modelled after the IBM Ultrastar 36Z15 the paper measured);
* :class:`CacheParams` — the disk-controller cache (size, block size,
  segment size/count, organization, replacement policy);
* :class:`ArrayParams` — array width and striping unit;
* :class:`BusParams` — the shared Ultra160 SCSI bus;
* knobs selecting read-ahead policy, queue discipline and HDC size.

All dataclasses are frozen; derived quantities are exposed as
properties. ``validate()`` is called by :func:`make_config` and raises
:class:`~repro.errors.ConfigError` with a precise message on any
inconsistency, so experiment code can assume a valid configuration.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Optional, Tuple

from repro.errors import ConfigError
from repro.faults.profile import FaultProfile, RetryPolicy
from repro.units import KB, MB, mb_per_s_to_bytes_per_ms, rpm_to_rotation_ms


class DeviceKind(str, Enum):
    """Storage-media technology of one array slot.

    The kind selects which device model (:mod:`repro.devices`)
    :class:`~repro.host.system.System` builds to service the slot's
    media operations: mechanical seek/rotation/transfer for
    :attr:`HDD`, flat-latency multi-channel flash for :attr:`SSD`.
    """

    HDD = "hdd"
    SSD = "ssd"


class CacheOrganization(str, Enum):
    """How the controller cache is carved up (paper §2.1 vs §4)."""

    SEGMENT = "segment"
    BLOCK = "block"


class SegmentPolicy(str, Enum):
    """Victim-segment selection for segment-organized caches (§2.1)."""

    LRU = "lru"
    FIFO = "fifo"
    RANDOM = "random"
    ROUND_ROBIN = "round_robin"


class BlockPolicy(str, Enum):
    """Victim-block selection for block-organized caches (§4 uses MRU)."""

    MRU = "mru"
    LRU = "lru"


class ReadAheadKind(str, Enum):
    """Read-ahead policy implemented by the controller."""

    BLIND = "blind"
    NONE = "none"
    FILE_ORIENTED = "file_oriented"


class SchedulerKind(str, Enum):
    """Controller request-queue discipline (paper default: LOOK)."""

    LOOK = "look"
    FCFS = "fcfs"
    SSTF = "sstf"
    CSCAN = "cscan"


@dataclass(frozen=True)
class SeekParams:
    """Three-regime seek-time curve (paper §2.1, Ruemmler & Wilkes).

    ``seek(n) = 0`` for ``n == 0``; ``alpha + beta*sqrt(n)`` for
    ``0 < n <= theta``; ``gamma + delta*n`` beyond. Times in ms,
    distances in cylinders. Defaults are the paper's fitted values for
    the IBM Ultrastar 36Z15 (§6.1).
    """

    alpha: float = 0.9336
    beta: float = 0.0364
    gamma: float = 1.5503
    delta: float = 0.00054
    theta: int = 1150

    def validate(self) -> None:
        if self.theta <= 0:
            raise ConfigError(f"seek theta must be positive, got {self.theta}")
        for name in ("alpha", "beta", "gamma", "delta"):
            if not getattr(self, name) >= 0:
                raise ConfigError(f"seek {name} must be non-negative")


@dataclass(frozen=True)
class DiskParams:
    """A single disk drive's capacity, geometry and mechanics.

    Geometry is simplified to a constant sectors-per-track figure (the
    36Z15 averages ~440); capacity, rotation speed and media rate match
    the datasheet values used in Table 1.
    """

    capacity_bytes: int = 18_000_000_000  # 18 GB, datasheet (decimal) GB
    rpm: float = 15000.0
    sector_size: int = 512
    sectors_per_track: int = 440
    tracks_per_cylinder: int = 8
    transfer_rate_mb_s: float = 54.0
    seek: SeekParams = field(default_factory=SeekParams)
    #: Fixed controller/command processing overhead per media operation.
    command_overhead_ms: float = 0.1

    def validate(self) -> None:
        if self.capacity_bytes <= 0:
            raise ConfigError("disk capacity must be positive")
        if self.sector_size <= 0 or self.sector_size % 256:
            raise ConfigError(f"implausible sector size {self.sector_size}")
        if self.sectors_per_track <= 0 or self.tracks_per_cylinder <= 0:
            raise ConfigError("geometry counts must be positive")
        if not self.rpm > 0:
            raise ConfigError("rpm must be positive")
        if not self.transfer_rate_mb_s > 0:
            raise ConfigError("transfer rate must be positive")
        if not self.command_overhead_ms >= 0:
            raise ConfigError("command overhead must be non-negative")
        self.seek.validate()

    @property
    def rotation_ms(self) -> float:
        """Full platter rotation time in ms (4.0 ms at 15000 rpm)."""
        return rpm_to_rotation_ms(self.rpm)

    @property
    def avg_rotational_latency_ms(self) -> float:
        """Expected rotational latency (half a rotation)."""
        return self.rotation_ms / 2.0

    @property
    def transfer_rate_bytes_ms(self) -> float:
        """Media transfer rate in bytes per millisecond."""
        return mb_per_s_to_bytes_per_ms(self.transfer_rate_mb_s)

    @property
    def cylinder_bytes(self) -> int:
        """Bytes stored per cylinder."""
        return self.sector_size * self.sectors_per_track * self.tracks_per_cylinder

    @property
    def n_cylinders(self) -> int:
        """Number of cylinders covering the full capacity (ceiling)."""
        return -(-self.capacity_bytes // self.cylinder_bytes)


@dataclass(frozen=True)
class SsdParams:
    """A flash device's capacity, latency and internal parallelism.

    Flash has no mechanical positioning: a media operation costs a flat
    per-op latency (asymmetric for reads vs programs) plus streaming
    transfer, and the device services up to ``channels`` operations
    concurrently (per-channel dies behind an internal interconnect).
    Capacity defaults match the 36Z15's 18 GB so heterogeneous arrays
    stripe uniformly.
    """

    capacity_bytes: int = 18_000_000_000
    #: Flat media latency of one read operation (flash page read +
    #: controller FTL lookup), independent of address.
    read_latency_ms: float = 0.10
    #: Flat media latency of one write/program operation.
    write_latency_ms: float = 0.30
    #: Streaming transfer rate once the operation is underway.
    transfer_rate_mb_s: float = 480.0
    #: Independent internal channels servicing operations concurrently.
    channels: int = 4
    #: Fixed controller/command processing overhead per media operation.
    command_overhead_ms: float = 0.02

    def validate(self) -> None:
        if self.capacity_bytes <= 0:
            raise ConfigError("ssd capacity must be positive")
        if not (self.read_latency_ms >= 0 and self.write_latency_ms >= 0):
            raise ConfigError("ssd latencies must be non-negative")
        if not self.transfer_rate_mb_s > 0:
            raise ConfigError("ssd transfer rate must be positive")
        if self.channels < 1:
            raise ConfigError(f"ssd needs >=1 channel, got {self.channels}")
        if not self.command_overhead_ms >= 0:
            raise ConfigError("ssd command overhead must be non-negative")

    @property
    def transfer_rate_bytes_ms(self) -> float:
        """Media transfer rate in bytes per millisecond."""
        return mb_per_s_to_bytes_per_ms(self.transfer_rate_mb_s)


@dataclass(frozen=True)
class ZoningParams:
    """Zoned-bit-recording figures of a mechanical drive.

    Defaults are the 36Z15 datasheet's max/min sectors-per-track; the
    base simulator uses the constant average
    (:attr:`DiskParams.sectors_per_track`), and
    :class:`repro.geometry.zones.ZonedGeometry` consumes these for the
    zoned refinement.
    """

    n_zones: int = 8
    outer_sectors: int = 504
    inner_sectors: int = 376

    def validate(self) -> None:
        if self.n_zones < 1:
            raise ConfigError(f"need >=1 zone, got {self.n_zones}")
        if self.outer_sectors < self.inner_sectors:
            raise ConfigError("outer tracks must hold >= inner tracks")


@dataclass(frozen=True)
class DeviceSpec:
    """One named device type an array slot can be populated with.

    Exactly one of ``hdd``/``ssd`` is set, matching ``kind``. The spec
    is what :class:`~repro.host.system.System` consumes to build the
    slot's device model (:mod:`repro.devices`); :data:`DEVICE_PRESETS`
    holds the named catalogue (``ultrastar_36z15``, ``generic_ssd``,
    ``generic_nvme``).
    """

    name: str
    kind: DeviceKind
    hdd: Optional[DiskParams] = None
    ssd: Optional[SsdParams] = None
    #: ZBR figures (mechanical drives only; ``None`` for flash).
    zoning: Optional[ZoningParams] = None

    def validate(self) -> None:
        if not self.name:
            raise ConfigError("device spec needs a name")
        if self.kind is DeviceKind.HDD:
            if self.hdd is None or self.ssd is not None:
                raise ConfigError(
                    f"device {self.name!r}: kind=hdd requires hdd params only"
                )
            self.hdd.validate()
        else:
            if self.ssd is None or self.hdd is not None:
                raise ConfigError(
                    f"device {self.name!r}: kind=ssd requires ssd params only"
                )
            self.ssd.validate()
        if self.zoning is not None:
            if self.kind is not DeviceKind.HDD:
                raise ConfigError(
                    f"device {self.name!r}: zoning applies to mechanical drives"
                )
            self.zoning.validate()

    @property
    def capacity_bytes(self) -> int:
        """Raw capacity of the device."""
        params = self.hdd if self.kind is DeviceKind.HDD else self.ssd
        assert params is not None
        return params.capacity_bytes


#: The paper's measured drive: every Table 1 mechanical figure (seek
#: curve, rotation, geometry, media rate) plus the datasheet ZBR
#: figures, in one place — the single source of truth the config
#: defaults, the zoned-geometry defaults and the tests all reference.
ULTRASTAR_36Z15 = DeviceSpec(
    name="ultrastar_36z15",
    kind=DeviceKind.HDD,
    hdd=DiskParams(),
    zoning=ZoningParams(),
)

#: A SATA-class flash drive: ~0.1 ms flat reads, 4 channels.
GENERIC_SSD = DeviceSpec(
    name="generic_ssd",
    kind=DeviceKind.SSD,
    ssd=SsdParams(),
)

#: An NVMe-class flash drive: deeper parallelism, lower latency.
GENERIC_NVME = DeviceSpec(
    name="generic_nvme",
    kind=DeviceKind.SSD,
    ssd=SsdParams(
        read_latency_ms=0.02,
        write_latency_ms=0.06,
        transfer_rate_mb_s=3000.0,
        channels=8,
        command_overhead_ms=0.005,
    ),
)

#: Named device catalogue for :attr:`SimConfig.devices` slots.
DEVICE_PRESETS = {
    spec.name: spec for spec in (ULTRASTAR_36Z15, GENERIC_SSD, GENERIC_NVME)
}


def device_preset(name: str) -> DeviceSpec:
    """Look up a named :class:`DeviceSpec` (:class:`ConfigError` if unknown)."""
    spec = DEVICE_PRESETS.get(name)
    if spec is None:
        raise ConfigError(
            f"unknown device preset {name!r} (have {sorted(DEVICE_PRESETS)})"
        )
    spec.validate()
    return spec


@dataclass(frozen=True)
class CacheParams:
    """Disk-controller cache parameters (Table 1 defaults).

    ``segment_size_bytes`` doubles as the blind/maximum read-ahead size.
    ``n_segments`` defaults to the 36Z15's advertised 27 ("up to 27
    variable-sized segments" in 4 MB — real controllers reserve part of
    the memory for firmware structures); Table 1's 256-KB and 512-KB
    variants use 13 and 6.
    """

    size_bytes: int = 4 * MB
    block_size: int = 4 * KB
    segment_size_bytes: int = 128 * KB
    n_segments: int = 27
    organization: CacheOrganization = CacheOrganization.SEGMENT
    segment_policy: SegmentPolicy = SegmentPolicy.LRU
    block_policy: BlockPolicy = BlockPolicy.MRU

    def validate(self) -> None:
        if self.size_bytes <= 0:
            raise ConfigError("cache size must be positive")
        if self.block_size <= 0:
            raise ConfigError("block size must be positive")
        if self.segment_size_bytes <= 0:
            raise ConfigError("segment size must be positive")
        if self.segment_size_bytes % self.block_size:
            raise ConfigError(
                "segment size must be a whole number of blocks "
                f"({self.segment_size_bytes} % {self.block_size} != 0)"
            )
        if self.size_bytes < self.segment_size_bytes:
            raise ConfigError("cache smaller than one segment")
        if self.n_segments < 1:
            raise ConfigError(f"need >=1 segment, got {self.n_segments}")
        if self.n_segments * self.segment_size_bytes > self.size_bytes:
            raise ConfigError(
                f"{self.n_segments} x {self.segment_size_bytes}-byte segments "
                f"exceed the {self.size_bytes}-byte cache"
            )

    @property
    def n_blocks(self) -> int:
        """Total cache capacity in blocks."""
        return self.size_bytes // self.block_size

    @property
    def segment_blocks(self) -> int:
        """Segment (and blind read-ahead) size in blocks."""
        return self.segment_size_bytes // self.block_size


@dataclass(frozen=True)
class ArrayParams:
    """Disk-array width and striping layout."""

    n_disks: int = 8
    striping_unit_bytes: int = 128 * KB

    def validate(self, block_size: int) -> None:
        if self.n_disks <= 0:
            raise ConfigError("array must contain at least one disk")
        if self.striping_unit_bytes <= 0:
            raise ConfigError("striping unit must be positive")
        if self.striping_unit_bytes % block_size:
            raise ConfigError(
                "striping unit must be a whole number of blocks "
                f"({self.striping_unit_bytes} % {block_size} != 0)"
            )

    def unit_blocks(self, block_size: int) -> int:
        """Striping unit expressed in blocks."""
        return self.striping_unit_bytes // block_size


@dataclass(frozen=True)
class BusParams:
    """Shared host-to-array bus (Ultra160 SCSI: 160 MB/s)."""

    bandwidth_mb_s: float = 160.0
    per_command_overhead_ms: float = 0.02

    def validate(self) -> None:
        if not self.bandwidth_mb_s > 0:
            raise ConfigError("bus bandwidth must be positive")
        if not self.per_command_overhead_ms >= 0:
            raise ConfigError("bus overhead must be non-negative")

    @property
    def bandwidth_bytes_ms(self) -> float:
        """Bus bandwidth in bytes per millisecond."""
        return mb_per_s_to_bytes_per_ms(self.bandwidth_mb_s)


@dataclass(frozen=True)
class SimConfig:
    """Complete description of one simulated system."""

    disk: DiskParams = field(default_factory=DiskParams)
    cache: CacheParams = field(default_factory=CacheParams)
    array: ArrayParams = field(default_factory=ArrayParams)
    bus: BusParams = field(default_factory=BusParams)
    readahead: ReadAheadKind = ReadAheadKind.BLIND
    scheduler: SchedulerKind = SchedulerKind.LOOK
    #: Per-disk HDC (pinned) region size; 0 disables HDC.
    hdc_bytes: int = 0
    #: Anticipatory scheduling window (paper ref. [15]); 0 disables,
    #: matching the paper's plain LOOK controllers.
    anticipatory_wait_ms: float = 0.0
    #: Fault-injection profile; ``None`` (the default) falls back to the
    #: process-wide profile installed via ``--faults`` and otherwise
    #: leaves the fault machinery entirely detached.
    faults: Optional[FaultProfile] = None
    #: Controller retry/backoff/timeout policy (only consulted when a
    #: fault profile is attached).
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    #: Per-slot device preset names (one per array slot, see
    #: :data:`DEVICE_PRESETS`). ``None`` keeps the homogeneous all-HDD
    #: array described by :attr:`disk`; a tuple lets slots mix
    #: technologies (hybrid HDD+SSD mirrors, SSD tiers).
    devices: Optional[Tuple[str, ...]] = None
    seed: int = 1

    def validate(self) -> None:
        self.disk.validate()
        self.cache.validate()
        self.array.validate(self.cache.block_size)
        self.bus.validate()
        if self.faults is not None:
            self.faults.validate()
        self.retry.validate()
        for name, value, kind in (
            ("readahead", self.readahead, ReadAheadKind),
            ("scheduler", self.scheduler, SchedulerKind),
            ("cache.organization", self.cache.organization, CacheOrganization),
            ("cache.segment_policy", self.cache.segment_policy, SegmentPolicy),
            ("cache.block_policy", self.cache.block_policy, BlockPolicy),
        ):
            if not isinstance(value, kind):
                raise ConfigError(
                    f"{name} must be a {kind.__name__} member, got {value!r}"
                )
        if not self.anticipatory_wait_ms >= 0:
            raise ConfigError("anticipatory wait must be non-negative")
        if self.hdc_bytes < 0:
            raise ConfigError("hdc_bytes must be non-negative")
        if self.hdc_bytes and self.hdc_bytes % self.cache.block_size:
            raise ConfigError("hdc_bytes must be a whole number of blocks")
        if self.hdc_bytes >= self.cache.size_bytes:
            raise ConfigError(
                "HDC region must leave room for the read-ahead cache "
                f"(hdc={self.hdc_bytes} >= cache={self.cache.size_bytes})"
            )
        if self.effective_cache_blocks <= 0:
            raise ConfigError(
                "controller cache fully consumed by HDC region + bitmap overhead"
            )
        if self.devices is not None:
            if len(self.devices) != self.array.n_disks:
                raise ConfigError(
                    f"devices lists {len(self.devices)} slots for an "
                    f"array of {self.array.n_disks} disks"
                )
            blocks = {
                device_preset(name).capacity_bytes // self.block_size
                for name in self.devices
            }
            if len(blocks) != 1:
                raise ConfigError(
                    "all array slots must expose the same block count "
                    f"(got {sorted(blocks)}); pick equal-capacity presets"
                )
            if blocks.pop() != self.disk_blocks:
                raise ConfigError(
                    "device preset capacity disagrees with disk params "
                    "(striping layout would not match)"
                )

    # -- derived quantities ------------------------------------------------

    @property
    def block_size(self) -> int:
        """Block size in bytes (shared by cache, striping and fs layers)."""
        return self.cache.block_size

    @property
    def disk_blocks(self) -> int:
        """Blocks per physical disk."""
        return self.disk.capacity_bytes // self.block_size

    @property
    def array_blocks(self) -> int:
        """Logical blocks across the whole array."""
        return self.disk_blocks * self.array.n_disks

    @property
    def blocks_per_cylinder(self) -> int:
        """Blocks per cylinder (for LBA→cylinder mapping)."""
        return max(1, self.disk.cylinder_bytes // self.block_size)

    @property
    def hdc_blocks(self) -> int:
        """Per-disk HDC capacity in blocks."""
        return self.hdc_bytes // self.block_size

    def device_spec(self, slot: int) -> DeviceSpec:
        """The :class:`DeviceSpec` populating array slot ``slot``.

        With no :attr:`devices` list the whole array is built from
        :attr:`disk`, wrapped as an anonymous mechanical device so every
        slot is described the same way.
        """
        if not 0 <= slot < self.array.n_disks:
            raise ConfigError(
                f"slot {slot} out of range for {self.array.n_disks} disks"
            )
        if self.devices is None:
            return DeviceSpec(name="config_disk", kind=DeviceKind.HDD,
                              hdd=self.disk)
        return device_preset(self.devices[slot])

    @property
    def device_kinds(self) -> Tuple[DeviceKind, ...]:
        """Per-slot media technology (all-HDD when :attr:`devices` is unset)."""
        return tuple(
            self.device_spec(slot).kind for slot in range(self.array.n_disks)
        )

    @property
    def bitmap_overhead_bytes(self) -> int:
        """Per-disk FOR bitmap footprint: one bit per disk block.

        For Table 1's 18-GB disk with 4-KB blocks this is ~546 KB,
        matching the paper's "Disk-resident bitmap: 546 KBytes".
        """
        if self.readahead is not ReadAheadKind.FILE_ORIENTED:
            return 0
        return -(-self.disk_blocks // 8)

    @property
    def effective_cache_bytes(self) -> int:
        """Controller cache left for read-ahead after HDC + bitmap."""
        return self.cache.size_bytes - self.hdc_bytes - self.bitmap_overhead_bytes

    @property
    def effective_cache_blocks(self) -> int:
        """:attr:`effective_cache_bytes` in whole blocks."""
        return self.effective_cache_bytes // self.block_size

    @property
    def effective_segments(self) -> int:
        """Segments available after HDC + bitmap are carved out."""
        fit = self.effective_cache_bytes // self.cache.segment_size_bytes
        return max(1, min(self.cache.n_segments, fit))

    # -- convenience -------------------------------------------------------

    def with_(self, **changes) -> "SimConfig":
        """Return a validated copy with the given top-level fields replaced."""
        cfg = replace(self, **changes)
        cfg.validate()
        return cfg

    def describe(self) -> str:
        """Render the configuration as a Table 1-style parameter listing."""
        rows = [
            ("Number of disks", str(self.array.n_disks)),
            ("Disk size", f"{self.disk.capacity_bytes // 1_000_000_000} GBytes"),
            ("Average disk seek time", "3.4 msecs (fitted curve)"),
            ("Average rotational latency",
             f"{self.disk.avg_rotational_latency_ms:.1f} msecs"),
            ("Raw disk transfer rate", f"{self.disk.transfer_rate_mb_s:.0f} MB/sec"),
            ("Disk controller interface",
             f"Ultra160 ({self.bus.bandwidth_mb_s:.0f} MB/sec shared)"),
            ("Disk controller cache size", f"{self.cache.size_bytes // MB} MBytes"),
            ("Disk block size", f"{self.block_size // KB} KBytes"),
            ("Segment size", f"{self.cache.segment_size_bytes // KB} KBytes"),
            ("Number of segments", str(self.cache.n_segments)),
            ("Striping unit", f"{self.array.striping_unit_bytes // KB} KBytes"),
            ("Read-ahead policy", self.readahead.value),
            ("Queue discipline", self.scheduler.value),
            ("HDC region per disk", f"{self.hdc_bytes // KB} KBytes"),
            ("Disk-resident bitmap",
             f"{self.bitmap_overhead_bytes // KB} KBytes"
             if self.bitmap_overhead_bytes else "(none)"),
        ]
        width = max(len(k) for k, _ in rows)
        return "\n".join(f"{k:<{width}}  {v}" for k, v in rows)


def make_config(**changes) -> SimConfig:
    """Build and validate a :class:`SimConfig` from keyword overrides.

    Nested parameters can be overridden by passing complete nested
    dataclasses, e.g. ``make_config(array=ArrayParams(n_disks=4))``.
    """
    valid = {f.name for f in dataclasses.fields(SimConfig)}
    unknown = set(changes) - valid
    if unknown:
        raise ConfigError(f"unknown SimConfig fields: {sorted(unknown)}")
    cfg = SimConfig(**changes)
    cfg.validate()
    return cfg


def ultrastar_36z15_config(**changes) -> SimConfig:
    """The paper's Table 1 default system (IBM Ultrastar 36Z15 array)."""
    return make_config(**changes)
