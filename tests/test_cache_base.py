"""The accounting every cache organization shares through its base class.

:class:`repro.cache.base.ControllerCache` keeps the presence map, the
hit/miss/eviction stats and the ``cache.lookup`` / ``cache.evict``
tracer instants; victim choice is each policy's own and is tested with
the policy (``test_cache_segment.py``, ``test_cache_block.py``).
"""

from repro.cache.base import CacheStats
from repro.cache.block import BlockCache
from repro.cache.segment import SegmentCache
from repro.obs.tracer import Tracer


def traced(cache):
    tracer = Tracer()
    cache.attach_tracer(tracer, "t")
    return tracer


def instants(tracer, name):
    # events: (run, ph, track, name, ts, dur, span_id, args)
    return [e[7] for e in tracer.events if e[2] == "t" and e[3] == name]


def test_missing_updates_stats():
    cache = BlockCache(8)
    tracer = traced(cache)
    cache.fill([1, 2])
    assert cache.missing([1, 2, 3, 4]) == [3, 4]
    assert cache.stats.lookups == 4
    assert cache.stats.block_hits == 2
    assert cache.stats.block_misses == 2
    assert instants(tracer, "cache.lookup") == [{"hits": 2, "misses": 2}]


def test_block_evictions_count_and_trace_without_stream():
    cache = BlockCache(2)
    tracer = traced(cache)
    cache.fill([1, 2])
    cache.fill([3])  # nothing consumed yet: the oldest read-ahead block goes
    cache.access([2])
    cache.fill([4])  # MRU: the block just consumed goes
    assert not cache.contains(1) and not cache.contains(2)
    assert cache.stats.evictions == 2
    assert cache.stats.useless_evictions == 1
    assert instants(tracer, "cache.evict") == [
        {"blocks": 1, "unused": 1},
        {"blocks": 1, "unused": 0},
    ]


def test_segment_eviction_traces_its_stream():
    cache = SegmentCache(n_segments=1, segment_blocks=8)
    tracer = traced(cache)
    cache.fill([0, 1, 2, 3], stream_hint=5)
    cache.access([0])
    cache.fill([10, 11], stream_hint=6)
    assert cache.stats.evictions == 1
    assert cache.stats.useless_evictions == 3
    assert instants(tracer, "cache.evict") == [{"blocks": 4, "unused": 3, "stream": 5}]


def test_stats_merge_includes_overflow():
    a = CacheStats(fills=1, fill_overflow_blocks=2)
    b = CacheStats(fills=3, fill_overflow_blocks=5)
    merged = a.merge(b)
    assert merged.fills == 4
    assert merged.fill_overflow_blocks == 7
