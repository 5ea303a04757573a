"""Controller request-queue disciplines (paper default: LOOK)."""

from repro.scheduling.base import IOScheduler, QueuedRequest
from repro.scheduling.fcfs import FCFSScheduler
from repro.scheduling.look import LookScheduler
from repro.scheduling.sstf import SSTFScheduler
from repro.scheduling.cscan import CScanScheduler

__all__ = [
    "IOScheduler",
    "QueuedRequest",
    "FCFSScheduler",
    "LookScheduler",
    "SSTFScheduler",
    "CScanScheduler",
]
