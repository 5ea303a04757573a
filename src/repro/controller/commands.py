"""Host-to-controller command objects.

A :class:`DiskCommand` is one read or write of a physically contiguous
run of blocks on one disk — the unit the host's coalescer emits and the
controller queues. Completion is continuation-passing: the controller
invokes ``on_complete(command)`` exactly once, after the data has
crossed the bus (reads) or reached the media / pinned region (writes).
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.errors import SimulationError


class DiskCommand:
    """One contiguous-run read/write addressed to a single disk."""

    __slots__ = (
        "disk_id",
        "start_block",
        "n_blocks",
        "end_block",
        "is_write",
        "stream_id",
        "on_complete",
        "issued_at",
        "completed_at",
        "served_from_cache",
        "trace_span",
        "error",
        "_done",
    )

    def __init__(
        self,
        disk_id: int,
        start_block: int,
        n_blocks: int,
        is_write: bool = False,
        stream_id: int = -1,
        on_complete: Optional[Callable[["DiskCommand"], None]] = None,
    ):
        if n_blocks <= 0:
            raise SimulationError(f"command must cover >=1 block, got {n_blocks}")
        if start_block < 0:
            raise SimulationError(f"negative start block {start_block}")
        self.disk_id = disk_id
        self.start_block = start_block
        self.n_blocks = n_blocks
        #: One past the last block covered by this command.
        self.end_block = start_block + n_blocks
        self.is_write = is_write
        self.stream_id = stream_id
        self.on_complete = on_complete
        self.issued_at: float = -1.0
        self.completed_at: float = -1.0
        #: True if the read was fully served from controller cache/HDC.
        self.served_from_cache = False
        #: Tracer span id of the command's lifecycle (0 = untraced).
        self.trace_span = 0
        #: Failure token (see :mod:`repro.faults.injector`) when the
        #: command could not be served; ``None`` on success. Completion
        #: callbacks fire either way — callers check this field.
        self.error: Optional[str] = None
        self._done = False

    def blocks(self) -> range:
        """The physical block numbers this command covers."""
        return range(self.start_block, self.end_block)

    @property
    def latency(self) -> float:
        """Issue-to-completion latency in ms (valid after completion)."""
        if self.completed_at < 0:
            raise SimulationError("command not yet complete")
        return self.completed_at - self.issued_at

    def finish(self, now: float) -> None:
        """Mark complete and fire the continuation (idempotence-checked)."""
        if self._done:
            raise SimulationError(f"double completion of {self!r}")
        self._done = True
        self.completed_at = now
        if self.on_complete is not None:
            self.on_complete(self)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        kind = "W" if self.is_write else "R"
        return (
            f"<DiskCommand {kind} disk={self.disk_id} "
            f"[{self.start_block},{self.end_block}) stream={self.stream_id}>"
        )
