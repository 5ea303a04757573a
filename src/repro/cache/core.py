"""Shared cache core: presence map and uniform accounting.

Every controller-side cache policy — the segment-organized cache, FOR's
block-organized cache, and the HDC pinned region — needs the same two
ingredients:

* a **presence map** from physical block number to the policy's
  per-block payload (the owning segment, a dirty flag, or plain
  membership), and
* uniform **statistics and tracer recording** for lookups and
  evictions.

This module provides those ingredients once, so the policies in
:mod:`repro.cache.block`, :mod:`repro.cache.segment` and
:mod:`repro.cache.pinned` stay thin: they decide *what* to keep and
which victim to drop, the core does the bookkeeping.

Only presence/recency *metadata* is stored, never data — exactly what a
performance simulator needs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Sequence

from repro.obs.tracer import NULL_TRACER

#: Sentinel distinguishing "no stream annotation" from ``stream=-1``.
_NO_STREAM = object()


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


class CacheCore:
    """Presence map plus shared stats/tracer recording.

    ``present`` maps block number → policy payload; policies read it
    directly on their hot paths (a plain dict lookup) and route every
    membership change through it. Lookup and eviction *accounting* goes
    through :meth:`missing` / :meth:`record_eviction`, which keep the
    :class:`CacheStats` counters and the ``cache.lookup`` /
    ``cache.evict`` tracer instants identical across policies.
    """

    __slots__ = ("present", "stats", "tracer", "track")

    def __init__(self) -> None:
        self.present: Dict[int, Any] = {}
        self.stats = CacheStats()
        self.tracer = NULL_TRACER
        self.track = ""

    def attach_tracer(self, tracer: Any, track: str) -> None:
        """Emit cache events on ``track`` (the owning controller's)."""
        self.tracer = tracer
        self.track = track

    def missing(self, blocks: Sequence[int]) -> List[int]:
        """Subset of ``blocks`` not present; updates hit/miss stats."""
        present = self.present
        absent = [b for b in blocks if b not in present]
        stats = self.stats
        n_absent = len(absent)
        stats.lookups += len(blocks)
        stats.block_hits += len(blocks) - n_absent
        stats.block_misses += n_absent
        if self.tracer.enabled:
            self.tracer.instant(
                self.track,
                "cache.lookup",
                hits=len(blocks) - n_absent,
                misses=n_absent,
            )
        return absent

    def record_eviction(
        self, blocks: int, unused: int, stream: Any = _NO_STREAM
    ) -> None:
        """Account one eviction of ``blocks`` blocks, ``unused`` unread."""
        self.stats.evictions += 1
        self.stats.useless_evictions += unused
        if self.tracer.enabled:
            if stream is _NO_STREAM:
                self.tracer.instant(
                    self.track, "cache.evict", blocks=blocks, unused=unused
                )
            else:
                self.tracer.instant(
                    self.track,
                    "cache.evict",
                    blocks=blocks,
                    unused=unused,
                    stream=stream,
                )
