"""Combined media service-time model: ``T(r) = seek + rotation + transfer``.

This is the paper's §2.1 formula realised as an object that the disk
drive queries once per media operation: :class:`HddDeviceModel`, the
mechanical implementation of the :class:`~repro.devices.base.DeviceModel`
contract. It also exposes the analytic expectation used by the
validation experiment and by :mod:`repro.analysis.utilization`.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

import numpy as np

from repro.config import DeviceKind, DiskParams
from repro.geometry.disk_geometry import DiskGeometry
from repro.mechanics.rotation import RotationModel
from repro.mechanics.seek import SeekModel
from repro.mechanics.transfer import TransferModel


class ServiceBreakdown(NamedTuple):
    """One media operation's service time split into its phases.

    The phases tile the operation exactly:
    ``total_ms == overhead + seek + rotation + transfer``.
    """

    overhead_ms: float
    seek_ms: float
    rotation_ms: float
    transfer_ms: float

    @property
    def total_ms(self) -> float:
        """The operation's full duration."""
        return (
            self.overhead_ms + self.seek_ms + self.rotation_ms + self.transfer_ms
        )


class HddDeviceModel:
    """Per-operation service times for one mechanical disk drive."""

    kind = DeviceKind.HDD
    #: A single arm services one media operation at a time.
    channels = 1

    def __init__(
        self,
        disk: DiskParams,
        block_size: int,
        rng: Optional[np.random.Generator] = None,
        deterministic_rotation: bool = False,
    ):
        self.disk = disk
        self.geometry = DiskGeometry(disk, block_size)
        self.seek_model = SeekModel(disk.seek)
        self.rotation_model = RotationModel(
            disk, rng=rng, deterministic=deterministic_rotation
        )
        self.transfer_model = TransferModel(disk, block_size, self.geometry)
        self.command_overhead_ms = disk.command_overhead_ms

    def breakdown(
        self,
        from_block: int,
        start_block: int,
        n_blocks: int,
        is_write: bool = False,
    ) -> ServiceBreakdown:
        """Sampled per-phase service times for one media operation:
        move from ``from_block`` and read/write ``n_blocks`` starting
        at ``start_block``.

        Samples the rotational latency exactly once per operation.
        ``is_write`` is part of the device-model contract; mechanical
        reads and writes cost the same, so it is accepted and ignored
        here.
        """
        distance = self.geometry.seek_distance(from_block, start_block)
        return ServiceBreakdown(
            overhead_ms=self.command_overhead_ms,
            seek_ms=self.seek_model.seek_time(distance),
            rotation_ms=self.rotation_model.latency(),
            transfer_ms=self.transfer_model.transfer_time(n_blocks, start_block),
        )

    def expected_service_time(self, n_blocks: int, seek_distance: Optional[int] = None) -> float:
        """Analytic expectation of ``breakdown(...).total_ms``.

        With ``seek_distance=None`` the drive's uniform-random average
        seek is used — this is the closed-form the paper's formula
        describes with "average seek time".
        """
        if seek_distance is None:
            seek = self.seek_model.average_seek_time(self.geometry.n_cylinders)
        else:
            seek = self.seek_model.seek_time(seek_distance)
        return (
            self.command_overhead_ms
            + seek
            + self.rotation_model.mean_latency_ms
            + self.transfer_model.transfer_time(n_blocks)
        )
