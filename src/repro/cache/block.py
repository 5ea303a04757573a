"""Block-organized controller cache (FOR's organization, §4).

Blocks are allocated to incoming streams on demand from a single pool;
when the pool is exhausted, replacement is per-block. The paper uses an
MRU policy: because controller caches see essentially no temporal
locality (the host caches re-used data itself), the block *most
recently consumed by the host* is the least likely to be needed again,
while read-ahead blocks that have not yet been consumed must be kept.

Implementation: the shared presence map (:mod:`repro.cache.base`)
carries membership (payload ``None``); recency order lives in two
ordered dicts —

* *accessed*: blocks the host has consumed, ordered by last touch;
  MRU evicts from the most-recent end, LRU from the least-recent end.
* *unaccessed*: read-ahead blocks not yet consumed, in fill order;
  they are only evicted when no consumed block is available (MRU) or
  when they are globally least recent (LRU).

Ordered dicts keep every touch/evict O(1) in C-implemented operations
— measurably faster on the fill/access hot path than a hand-rolled
linked list of per-block node objects.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Container, Iterable, List, Optional, Sequence, Set

from repro.config import BlockPolicy
from repro.errors import CacheError
from repro.cache.base import ControllerCache


class BlockCache(ControllerCache):
    """Pool-of-blocks cache with MRU (default) or LRU replacement."""

    def __init__(self, capacity_blocks: int, policy: BlockPolicy = BlockPolicy.MRU):
        if capacity_blocks < 1:
            raise CacheError(f"capacity must be >=1 block, got {capacity_blocks}")
        super().__init__(capacity_blocks=capacity_blocks)
        self.policy = policy
        self._accessed: "OrderedDict[int, None]" = OrderedDict()
        self._unaccessed: "OrderedDict[int, None]" = OrderedDict()

    # -- queries -------------------------------------------------------

    @property
    def accessed_blocks(self) -> List[int]:
        """Consumed blocks, least- to most-recently touched (tests)."""
        return list(self._accessed)

    @property
    def unaccessed_blocks(self) -> List[int]:
        """Unconsumed read-ahead blocks in fill order (tests)."""
        return list(self._unaccessed)

    # -- recency -------------------------------------------------------

    def access(self, blocks: Iterable[int]) -> None:
        accessed = self._accessed
        unaccessed = self._unaccessed
        for b in blocks:
            if b in unaccessed:
                del unaccessed[b]
                accessed[b] = None
            elif b in accessed:
                accessed.move_to_end(b)

    # -- fills and replacement ------------------------------------------

    def fill(self, blocks: Sequence[int], stream_hint: int = -1) -> None:
        if not blocks:
            return
        stats = self.stats
        stats.fills += 1
        present = self._present
        unaccessed = self._unaccessed
        capacity = self.capacity_blocks
        new = [b for b in blocks if b not in present]
        if not new:
            return
        installed = dict.fromkeys(new)
        need = len(present) + len(installed) - capacity
        if need <= 0:
            # Bulk install: no eviction possible, so the per-block loop
            # below collapses to two C-level dict updates.
            present.update(installed)
            unaccessed.update(installed)
            stats.blocks_filled += len(installed)
            return
        if (
            self.policy is BlockPolicy.MRU
            and len(self._accessed) >= need
            and len(new) == len(blocks)
        ):
            # Batched MRU eviction: the victims are the ``need`` most
            # recently consumed blocks — exactly the ones the per-block
            # loop would pop one insert at a time. Fills never touch the
            # accessed dict, and no fill block was present at the start
            # (``len(new) == len(blocks)``), so no victim can reappear
            # later in this run — interleaving cannot change victims.
            accessed = self._accessed
            tracer = self._tracer
            for _ in range(need):
                block, _ = accessed.popitem(last=True)
                del present[block]
                stats.evictions += 1
                if tracer.enabled:
                    tracer.instant(self._track, "cache.evict", blocks=1, unused=0)
            present.update(installed)
            unaccessed.update(installed)
            stats.blocks_filled += len(installed)
            return
        # General path (LRU, eviction dipping into unaccessed blocks,
        # or a run overlapping the cache's current contents): blocks
        # inserted by THIS call are exempt from its own evictions — a
        # read-ahead run larger than the free pool must not drop its
        # own head (the blocks the host consumes first) to make room
        # for its tail. When nothing evictable remains, the tail that
        # does not fit is dropped instead. Presence is re-checked per
        # block: an eviction may drop a block that appears later in
        # the run, and the loop then re-installs it.
        in_flight: Set[int] = set()
        for b in blocks:
            if b in present:
                continue
            if len(present) >= capacity:
                if not self._evict_one(in_flight):
                    stats.fill_overflow_blocks += 1
                    continue
            present[b] = None
            unaccessed[b] = None
            in_flight.add(b)
            stats.blocks_filled += 1

    def _oldest_unaccessed_victim(self, exempt: Container[int]) -> Optional[int]:
        """Oldest read-ahead block not part of the in-flight fill."""
        for b in self._unaccessed:
            if b not in exempt:
                return b
        return None

    def _evict_one(self, exempt: Container[int] = frozenset()) -> bool:
        """Evict one block, never touching ``exempt``; False if stuck.

        Runs once per evicted block on the steady-state fill path, so
        the accounting of a consumed victim (the eviction counter + the
        ``cache.evict`` instant) is open-coded here to spare a call per
        block.
        """
        present = self._present
        if self.policy is BlockPolicy.MRU:
            if self._accessed:
                block, _ = self._accessed.popitem(last=True)
                del present[block]
                self.stats.evictions += 1
                if self._tracer.enabled:
                    self._tracer.instant(self._track, "cache.evict", blocks=1, unused=0)
                return True
            # No consumed block to drop: fall back to the oldest
            # read-ahead block (it has waited longest unconsumed).
            victim = self._oldest_unaccessed_victim(exempt)
            if victim is None:
                return False
            del self._unaccessed[victim]
            del present[victim]
            self._record_eviction(1, 1)
            return True
        # LRU: globally least recent — unaccessed blocks are older than
        # any accessed block touched after their fill; approximate the
        # global order by preferring the oldest unaccessed entry.
        victim = self._oldest_unaccessed_victim(exempt)
        if victim is not None:
            del self._unaccessed[victim]
            del present[victim]
            self._record_eviction(1, 1)
            return True
        if self._accessed:
            block, _ = self._accessed.popitem(last=False)
            del present[block]
            self.stats.evictions += 1
            if self._tracer.enabled:
                self._tracer.instant(self._track, "cache.evict", blocks=1, unused=0)
            return True
        return False

    def invalidate(self, block: int) -> None:
        present = self._present
        if block not in present:
            return
        del present[block]
        self._accessed.pop(block, None)
        self._unaccessed.pop(block, None)

    @property
    def free_blocks(self) -> int:
        """Blocks still unallocated in the pool."""
        return self.capacity_blocks - len(self)
