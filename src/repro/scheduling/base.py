"""Scheduler interface shared by all queue disciplines.

A scheduler holds :class:`QueuedRequest` entries (opaque payload plus
the request's target cylinder) and yields them one at a time to the
media service loop. Disciplines differ only in *which* pending request
is dispatched next given the current head cylinder.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Optional

from repro.obs.tracer import NULL_TRACER


class QueuedRequest:
    """A pending media request inside a controller queue."""

    __slots__ = ("cylinder", "payload", "enqueued_at", "seq")

    def __init__(self, cylinder: int, payload: Any, enqueued_at: float, seq: int):
        self.cylinder = cylinder
        self.payload = payload
        self.enqueued_at = enqueued_at
        self.seq = seq

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<QueuedRequest cyl={self.cylinder} #{self.seq}>"


class IOScheduler(ABC):
    """Abstract queue discipline."""

    name: str = "base"

    def __init__(self) -> None:
        self._seq = 0
        self.enqueued_total = 0
        self.max_queue_len = 0
        self._tracer = NULL_TRACER
        self._track = ""

    def attach_tracer(self, tracer, track: str) -> None:
        """Emit queue events on ``track`` (the owning controller's)."""
        self._tracer = tracer
        self._track = track

    def push(self, cylinder: int, payload: Any, now: float) -> QueuedRequest:
        """Add a request targeting ``cylinder``; returns its queue entry."""
        req = QueuedRequest(cylinder, payload, now, self._seq)
        self._seq += 1
        self.enqueued_total += 1
        self._insert(req)
        if len(self) > self.max_queue_len:
            self.max_queue_len = len(self)
        if self._tracer.enabled:
            self._tracer.instant(
                self._track, "queue.push", cylinder=cylinder, depth=len(self)
            )
        return req

    @abstractmethod
    def _insert(self, req: QueuedRequest) -> None:
        """Discipline-specific insertion."""

    @abstractmethod
    def pop(self, head_cylinder: int) -> Optional[QueuedRequest]:
        """Dispatch the next request given the head position, or ``None``."""

    @abstractmethod
    def peek(self, head_cylinder: int) -> Optional[QueuedRequest]:
        """The request :meth:`pop` would return, without removing it.

        Must not mutate scheduling state (sweep directions included) —
        used by anticipatory dispatch to inspect the next candidate.
        """

    @abstractmethod
    def __len__(self) -> int:
        """Number of pending requests (truthiness follows it)."""
