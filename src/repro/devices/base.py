"""The device-model contract every array slot implements.

A *device model* is everything the drive and controller layers need to
know about one storage device's media behaviour, behind three small
contracts:

* **service time** — :meth:`DeviceModel.breakdown` prices one media
  operation as a phase split (overhead/seek/rotation/transfer; phases
  tile the operation exactly), and
  :meth:`DeviceModel.expected_service_time` gives its analytic
  expectation for planning decisions (e.g. replica selection);
* **addressing** — :attr:`DeviceModel.geometry` translates block
  numbers to cylinders for seek distances and queue ordering (seekless
  devices report a single cylinder, so cylinder-sorting schedulers
  degrade gracefully to FIFO);
* **parallelism** — :attr:`DeviceModel.channels` bounds how many media
  operations the device services concurrently (1 for a mechanical
  arm, N for flash channels).

:mod:`repro.disk.drive` and :mod:`repro.array` consume devices only
through this surface — never the mechanical internals in
:mod:`repro.mechanics` — which is what makes new device technologies
drop-in.
"""

from __future__ import annotations

from typing import Optional, Protocol, runtime_checkable

from repro.config import DeviceKind
from repro.mechanics.service import ServiceBreakdown

__all__ = ["DeviceGeometry", "DeviceModel", "ServiceBreakdown"]


@runtime_checkable
class DeviceGeometry(Protocol):
    """Addressing contract: block numbers to physical positions."""

    n_blocks: int
    n_cylinders: int
    blocks_per_cylinder: int

    def check_block(self, block: int) -> None:
        """Raise :class:`~repro.errors.AddressError` if out of range."""
        ...

    def cylinder_of(self, block: int) -> int:
        """Cylinder containing ``block`` (no bounds check: hot path)."""
        ...

    def seek_distance(self, block_a: int, block_b: int) -> int:
        """Cylinder distance between two blocks."""
        ...

    def clamp_run(self, start: int, n_blocks: int) -> int:
        """Largest run length from ``start`` that stays on the device."""
        ...


@runtime_checkable
class DeviceModel(Protocol):
    """Service-time + addressing + parallelism contract of one device."""

    kind: DeviceKind
    geometry: DeviceGeometry
    #: Media operations the device can service concurrently.
    channels: int

    def breakdown(
        self,
        from_block: int,
        start_block: int,
        n_blocks: int,
        is_write: bool = False,
    ) -> ServiceBreakdown:
        """Sampled per-phase service times for one media operation."""
        ...

    def expected_service_time(
        self, n_blocks: int, seek_distance: Optional[int] = None
    ) -> float:
        """Analytic expectation of one media operation's duration."""
        ...
