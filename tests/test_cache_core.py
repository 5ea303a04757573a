"""The shared cache core's presence map and accounting, exercised directly.

:mod:`repro.cache.core` keeps the presence map, hit/miss/eviction
stats and the ``cache.lookup`` / ``cache.evict`` tracer instants that
every cache policy shares; victim choice is each policy's own and is
tested with the policy (``test_cache_segment.py``).
"""

from repro.cache.core import CacheCore, CacheStats
from repro.obs.tracer import Tracer


class TestCacheCore:
    def test_missing_updates_stats(self):
        core = CacheCore()
        core.present[1] = object()
        core.present[2] = object()
        absent = core.missing([1, 2, 3, 4])
        assert absent == [3, 4]
        assert core.stats.lookups == 4
        assert core.stats.block_hits == 2
        assert core.stats.block_misses == 2

    def test_record_eviction_counts_and_traces(self):
        core = CacheCore()
        tracer = Tracer()
        core.attach_tracer(tracer, "t")
        core.record_eviction(8, 3, stream=5)
        core.record_eviction(4, 0)
        assert core.stats.evictions == 2
        assert core.stats.useless_evictions == 3
        # events: (run, ph, track, name, ts, dur, span_id, args)
        evicts = [e for e in tracer.events if e[3] == "cache.evict"]
        assert len(evicts) == 2
        assert evicts[0][7] == {"blocks": 8, "unused": 3, "stream": 5}
        assert evicts[1][7] == {"blocks": 4, "unused": 0}

    def test_stats_merge_includes_overflow(self):
        a = CacheStats(fills=1, fill_overflow_blocks=2)
        b = CacheStats(fills=3, fill_overflow_blocks=5)
        assert a.merge(b).fill_overflow_blocks == 7
