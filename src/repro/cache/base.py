"""Common base for controller caches: presence map, stats, tracing.

The controller interacts with its cache through three operations:

* :meth:`ControllerCache.missing` — which blocks of a request are absent
  (the controller turns the answer into a media read);
* :meth:`ControllerCache.access` — mark blocks as delivered to the host
  (drives recency state; MRU uses it to pick victims);
* :meth:`ControllerCache.fill` — install blocks brought in by a media
  operation (requested + read-ahead).

Blocks are identified by their physical block number on the owning
disk. The base class keeps what every organization shares: the
presence map from block number to the policy's per-block payload (the
owning segment, or plain membership), the :class:`CacheStats` counters
and the ``cache.lookup`` / ``cache.evict`` tracer instants. Concrete
policies read the presence map directly on their hot paths and only
decide what to keep and what to evict. The cache never stores data,
only presence/recency metadata — exactly what a performance simulator
needs.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Sequence

from repro.obs.tracer import NULL_TRACER

__all__ = ["CacheStats", "ControllerCache"]


@dataclass
class CacheStats:
    """Hit/miss and pollution accounting for one controller cache."""

    lookups: int = 0
    block_hits: int = 0
    block_misses: int = 0
    fills: int = 0
    blocks_filled: int = 0
    evictions: int = 0
    #: Blocks evicted without ever being accessed by the host —
    #: the paper's "useless read-ahead blocks" (cache pollution).
    useless_evictions: int = 0
    #: Fill blocks dropped because a single fill run exceeded the pool
    #: and nothing outside the run itself was evictable (the run's tail
    #: is sacrificed, never its head).
    fill_overflow_blocks: int = 0

    @property
    def hit_rate(self) -> float:
        """Fraction of looked-up blocks found in the cache."""
        total = self.block_hits + self.block_misses
        return self.block_hits / total if total else 0.0

    @property
    def pollution_rate(self) -> float:
        """Fraction of filled blocks evicted unused."""
        return self.useless_evictions / self.blocks_filled if self.blocks_filled else 0.0

    def merge(self, other: "CacheStats") -> "CacheStats":
        """Element-wise sum (for array-wide aggregation)."""
        return CacheStats(
            lookups=self.lookups + other.lookups,
            block_hits=self.block_hits + other.block_hits,
            block_misses=self.block_misses + other.block_misses,
            fills=self.fills + other.fills,
            blocks_filled=self.blocks_filled + other.blocks_filled,
            evictions=self.evictions + other.evictions,
            useless_evictions=self.useless_evictions + other.useless_evictions,
            fill_overflow_blocks=(
                self.fill_overflow_blocks + other.fill_overflow_blocks
            ),
        )


class ControllerCache(ABC):
    """Abstract controller cache (presence/recency metadata only)."""

    def __init__(self, capacity_blocks: int):
        self.capacity_blocks = capacity_blocks
        #: block → policy payload; every membership change goes through it.
        self._present: Dict[int, Any] = {}
        self.stats = CacheStats()
        self._tracer = NULL_TRACER
        self._track = ""

    def attach_tracer(self, tracer: Any, track: str) -> None:
        """Emit cache events on ``track`` (the owning controller's)."""
        self._tracer = tracer
        self._track = track

    def contains(self, block: int) -> bool:
        """Whether ``block`` is currently cached."""
        return block in self._present

    def missing(self, blocks: Sequence[int]) -> List[int]:
        """Subset of ``blocks`` not in the cache (stats are updated)."""
        present = self._present
        absent = [b for b in blocks if b not in present]
        stats = self.stats
        n_absent = len(absent)
        stats.lookups += len(blocks)
        stats.block_hits += len(blocks) - n_absent
        stats.block_misses += n_absent
        if self._tracer.enabled:
            self._tracer.instant(
                self._track,
                "cache.lookup",
                hits=len(blocks) - n_absent,
                misses=n_absent,
            )
        return absent

    def _record_eviction(
        self, blocks: int, unused: int, stream: Optional[int] = None
    ) -> None:
        """Account one eviction of ``blocks`` blocks, ``unused`` unread;
        the ``cache.evict`` instant names ``stream`` when one is given."""
        self.stats.evictions += 1
        self.stats.useless_evictions += unused
        if self._tracer.enabled:
            if stream is None:
                self._tracer.instant(
                    self._track, "cache.evict", blocks=blocks, unused=unused
                )
            else:
                self._tracer.instant(
                    self._track,
                    "cache.evict",
                    blocks=blocks,
                    unused=unused,
                    stream=stream,
                )

    def __len__(self) -> int:
        """Number of blocks currently cached."""
        return len(self._present)

    @abstractmethod
    def access(self, blocks: Iterable[int]) -> None:
        """Mark cached ``blocks`` as consumed by the host."""

    @abstractmethod
    def fill(self, blocks: Sequence[int], stream_hint: int = -1) -> None:
        """Install ``blocks`` (evicting as needed).

        ``stream_hint`` identifies the I/O stream for segment-organized
        caches; block-organized caches ignore it.
        """

    @abstractmethod
    def invalidate(self, block: int) -> None:
        """Drop ``block`` if present (used for write coherence)."""
