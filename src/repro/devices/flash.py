"""Flash device model: flat per-op latency, no mechanics, N channels.

A flash device has no head to move and no platter to wait for, so a
media operation costs a flat access latency (asymmetric: page reads
are cheaper than programs) plus streaming transfer. The phase
breakdown maps onto the mechanical vocabulary with seek and rotation
*structurally zero* — time-in-state reports make "this device never
seeks" visible rather than hiding it — and the access latency folded
into the overhead phase.

Addressing is flat: :class:`FlatGeometry` puts every block on one
cylinder, so seek distances are 0 and cylinder-sorting schedulers
(LOOK/SSTF/CSCAN) degrade gracefully to their tie-break order — FIFO —
without special-casing.

The model is deterministic (no sampled phases), so it takes no RNG
stream.
"""

from __future__ import annotations

from typing import Optional

from repro.config import DeviceKind, SsdParams
from repro.errors import AddressError
from repro.mechanics.service import ServiceBreakdown

__all__ = ["FlatGeometry", "FlashServiceModel"]


class FlatGeometry:
    """Seekless addressing: the whole device is one cylinder."""

    def __init__(self, capacity_bytes: int, block_size: int):
        if block_size <= 0 or capacity_bytes < block_size:
            raise AddressError(
                f"cannot carve {capacity_bytes} bytes into "
                f"{block_size}-byte blocks"
            )
        self.block_size = block_size
        self.n_blocks = capacity_bytes // block_size
        self.n_cylinders = 1
        self.blocks_per_cylinder = self.n_blocks

    def check_block(self, block: int) -> None:
        """Raise :class:`AddressError` if ``block`` is out of range."""
        if not 0 <= block < self.n_blocks:
            raise AddressError(
                f"block {block} outside [0, {self.n_blocks}) on this device"
            )

    def cylinder_of(self, block: int) -> int:
        """Every block lives on the single cylinder 0."""
        return 0

    def seek_distance(self, block_a: int, block_b: int) -> int:
        """Flash never seeks: all distances are 0."""
        return 0

    def clamp_run(self, start: int, n_blocks: int) -> int:
        """Largest run length from ``start`` that stays on the device."""
        self.check_block(start)
        return min(n_blocks, self.n_blocks - start)


class FlashServiceModel:
    """Per-operation service times for one flash device."""

    kind = DeviceKind.SSD

    def __init__(self, ssd: SsdParams, block_size: int):
        ssd.validate()
        self.ssd = ssd
        self.geometry = FlatGeometry(ssd.capacity_bytes, block_size)
        self.block_size = block_size
        self.channels = ssd.channels
        self.command_overhead_ms = ssd.command_overhead_ms

    def _transfer_ms(self, n_blocks: int) -> float:
        return n_blocks * self.block_size / self.ssd.transfer_rate_bytes_ms

    def breakdown(
        self,
        from_block: int,
        start_block: int,
        n_blocks: int,
        is_write: bool = False,
    ) -> ServiceBreakdown:
        """Deterministic phase split: flat access latency + transfer.

        ``from_block`` is the channel's previous position; flash
        ignores it — operation cost is address-independent.
        """
        latency = (
            self.ssd.write_latency_ms if is_write else self.ssd.read_latency_ms
        )
        return ServiceBreakdown(
            overhead_ms=self.command_overhead_ms + latency,
            seek_ms=0.0,
            rotation_ms=0.0,
            transfer_ms=self._transfer_ms(n_blocks),
        )

    def expected_service_time(
        self, n_blocks: int, seek_distance: Optional[int] = None
    ) -> float:
        """Expected read duration (flash is deterministic: the exact cost)."""
        return (
            self.command_overhead_ms
            + self.ssd.read_latency_ms
            + self._transfer_ms(n_blocks)
        )

