"""Segment-organized controller cache (the conventional design, §2.1).

The cache is divided into fixed-size segments, each holding one
sequential run of blocks belonging to one I/O stream. A whole segment
is the unit of allocation and replacement: when a new stream needs a
segment and none is free, a victim segment is dropped in its entirety
("the whole victim segment is replaced to make room for the new
stream"). The victim policy is LRU by default; FIFO, random and
round-robin — all cited by the paper — are selectable.

A stream that fills again reuses its own segment, which is how real
controllers keep one segment per detected sequential stream. Thrashing
appears exactly when concurrent streams outnumber segments.

The shared presence map (:mod:`repro.cache.base`) holds block → owning
segment. The at most ``n_segments`` live segments sit in a plain slot
list; a replacement takes its victim's position, which reproduces
physical slot reuse (round-robin cycles over slots). LRU and
FIFO victims come from one ``min()`` scan over that list by
``last_touch`` / ``created``, so key ties go to the earlier slot and no
structure keeps a segment alive after it is dropped.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

from repro.config import SegmentPolicy
from repro.errors import CacheError
from repro.cache.base import ControllerCache


class _Segment:
    # No __eq__: slot bookkeeping (list.index / list.remove) relies on
    # identity equality.
    __slots__ = ("blocks", "accessed", "stream", "last_touch", "created")

    def __init__(self, blocks: List[int], stream: int, stamp: int):
        self.blocks = blocks
        self.accessed: set = set()
        self.stream = stream
        self.last_touch = stamp
        self.created = stamp


_LAST_TOUCH = attrgetter("last_touch")
_CREATED = attrgetter("created")


class SegmentCache(ControllerCache):
    """Fixed-size-segment cache with whole-segment replacement."""

    def __init__(
        self,
        n_segments: int,
        segment_blocks: int,
        policy: SegmentPolicy = SegmentPolicy.LRU,
        rng: Optional[np.random.Generator] = None,
    ):
        if n_segments < 1:
            raise CacheError(f"need at least one segment, got {n_segments}")
        if segment_blocks < 1:
            raise CacheError(f"segments must hold >=1 block, got {segment_blocks}")
        super().__init__(capacity_blocks=n_segments * segment_blocks)
        self.n_segments = n_segments
        self.segment_blocks = segment_blocks
        self.policy = policy
        self._rng = rng if rng is not None else np.random.default_rng(0)
        self._slots: List[_Segment] = []
        self._by_stream: Dict[int, _Segment] = {}
        self._clock = 0
        self._rr_next = 0  # round-robin victim pointer

    # -- recency -------------------------------------------------------

    def access(self, blocks: Iterable[int]) -> None:
        self._clock += 1
        stamp = self._clock
        present = self._present
        for b in blocks:
            seg = present.get(b)
            if seg is not None:
                seg.accessed.add(b)
                seg.last_touch = stamp

    # -- fills and replacement ------------------------------------------

    def fill(self, blocks: Sequence[int], stream_hint: int = -1) -> None:
        """Install a media run, splitting it across segment-sized chunks."""
        if not blocks:
            return
        self.stats.fills += 1
        size = self.segment_blocks
        present = self._present
        for start in range(0, len(blocks), size):
            chunk = [b for b in blocks[start : start + size] if b not in present]
            if not chunk:
                continue
            self._install_segment(chunk, stream_hint)

    def _install_segment(self, chunk: List[int], stream: int) -> None:
        self._clock += 1
        # Reuse this stream's existing segment, as a real controller
        # tracking one segment per sequential stream would.
        replaced: Optional[_Segment] = None
        old = self._by_stream.get(stream) if stream >= 0 else None
        if old is not None:
            replaced = old
            self._drop_segment(old)
        elif len(self._slots) >= self.n_segments:
            replaced = self._choose_victim()
            self._drop_segment(replaced)
        seg = _Segment(chunk, stream, self._clock)
        slots = self._slots
        if replaced is None:
            slots.append(seg)
        else:
            # Replace in place: segment slots are physical regions of
            # the cache memory (round-robin cycles over slots).
            slots[slots.index(replaced)] = seg
        if stream >= 0:
            self._by_stream[stream] = seg
        self._present.update(dict.fromkeys(chunk, seg))
        self.stats.blocks_filled += len(chunk)

    def _choose_victim(self) -> _Segment:
        slots = self._slots
        # min() keeps the first of equal keys: ties go to the earlier slot.
        if self.policy is SegmentPolicy.LRU:
            return min(slots, key=_LAST_TOUCH)
        if self.policy is SegmentPolicy.FIFO:
            return min(slots, key=_CREATED)
        if self.policy is SegmentPolicy.RANDOM:
            return slots[int(self._rng.integers(len(slots)))]
        # round-robin over segment slots
        victim = slots[self._rr_next % len(slots)]
        self._rr_next += 1
        return victim

    def _drop_segment(self, seg: _Segment) -> None:
        """Evict ``seg``'s contents (slot handling is the caller's)."""
        if seg.stream >= 0 and self._by_stream.get(seg.stream) is seg:
            del self._by_stream[seg.stream]
        present = self._present
        for b in seg.blocks:
            if present.get(b) is seg:
                del present[b]
        self._record_eviction(
            len(seg.blocks), len(seg.blocks) - len(seg.accessed), stream=seg.stream
        )

    def invalidate(self, block: int) -> None:
        seg = self._present.pop(block, None)
        if seg is not None:
            seg.blocks.remove(block)
            seg.accessed.discard(block)
            if not seg.blocks:
                # The write-coherence path empties a segment one block
                # at a time; the final removal is a real eviction and
                # must be accounted as one (stats + tracer instant).
                self._drop_segment(seg)
                self._slots.remove(seg)

    @property
    def segments_in_use(self) -> int:
        """Number of allocated segments."""
        return len(self._slots)
