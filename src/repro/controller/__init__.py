"""The per-disk controller: one :class:`DiskController` per drive.

It admits host commands, consults the cache and HDC region, sizes
read-ahead, queues and dispatches media jobs (with anticipation and
fault handling) and completes each command over the bus; see
:mod:`repro.controller.controller`.
"""

from repro.controller.commands import DiskCommand
from repro.controller.controller import DiskController, MediaJob, contiguous_runs
from repro.controller.stats import ControllerStats

__all__ = [
    "ControllerStats",
    "DiskCommand",
    "DiskController",
    "MediaJob",
    "contiguous_runs",
]
