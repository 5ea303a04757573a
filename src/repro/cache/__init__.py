"""Disk-controller cache organizations.

Two organizations from the paper, each a policy over the presence map,
statistics and tracer instants of :class:`~repro.cache.base.ControllerCache`:

* :class:`~repro.cache.segment.SegmentCache` — the conventional design
  (§2.1): fixed-size segments, one per sequential stream, whole-segment
  replacement (LRU by default, with FIFO/random/round-robin variants).
* :class:`~repro.cache.block.BlockCache` — FOR's design (§4): a pool of
  blocks allocated to streams on demand, with MRU replacement over
  host-consumed blocks.

HDC's non-replaceable blocks (§5) are not a cache organization: each
:class:`~repro.controller.controller.DiskController` keeps its pinned
region itself, beside whichever cache it runs.
"""

from repro.cache.base import CacheStats, ControllerCache
from repro.cache.segment import SegmentCache
from repro.cache.block import BlockCache

__all__ = [
    "CacheStats",
    "ControllerCache",
    "SegmentCache",
    "BlockCache",
]
