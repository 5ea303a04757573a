"""The benchmark's metric table and the model counters read off ``RunResult``.

``END_TO_END`` is what an untraced run reports and ``PER_LAYER`` what a
traced run reports; ``BENCHMARK.json`` at the repository root declares
the same names, units and directions (``test_e2e.py`` keeps them in
step).
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from benchmarks.e2e.layers import LAYERS

#: (name, unit, better) of the metrics a user of the simulator sees.
END_TO_END: Tuple[Tuple[str, str, str], ...] = (
    ("wall_s", "s", "lower"),
    ("krec_per_s", "krec/s", "higher"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

#: Simulated-model counters: deterministic, identical under any pure
#: simulator speed-up.
MODEL_COUNTERS: Tuple[Tuple[str, str, str], ...] = (
    ("host.cmds_per_rec", "cmds/rec", "lower"),
    ("host.merged_frac", "fraction", "higher"),
    ("cache.hit_rate", "fraction", "higher"),
    ("controller.full_hit_frac", "fraction", "higher"),
    ("controller.media_reads_per_rec", "reads/rec", "lower"),
    ("readahead.ratio", "fraction", "lower"),
    ("hdc.hit_rate", "fraction", "higher"),
    ("disk.util", "fraction", "higher"),
    ("disk.imbalance", "ratio", "lower"),
    ("mechanics.seek_share", "fraction", "lower"),
    ("mechanics.rotation_share", "fraction", "lower"),
    ("mechanics.transfer_share", "fraction", "higher"),
    ("mechanics.overhead_share", "fraction", "lower"),
    ("bus.util", "fraction", "higher"),
    ("sim.io_time_s", "s", "lower"),
    ("sim.lat_p50_ms", "ms", "lower"),
    ("sim.lat_p99_ms", "ms", "lower"),
)

#: (name, unit, better) of the per-layer metrics a traced run reports.
PER_LAYER: Tuple[Tuple[str, str, str], ...] = (
    tuple(
        metric
        for layer in LAYERS
        for metric in (
            (f"{layer}.self_share", "fraction", "lower"),
            (f"{layer}.calls_per_rec", "calls/rec", "lower"),
        )
    )
    + (
        ("sim.events_per_rec", "events/rec", "lower"),
        ("trace.overhead", "ratio", "lower"),
        ("setup.workload_s", "s", "lower"),
        ("setup.artifacts_s", "s", "lower"),
    )
    + MODEL_COUNTERS
)

#: Printed and saved alongside, but not declared in ``BENCHMARK.json``,
#: where every end-to-end metric is bounded by a share of its baseline
#: median and so must be nonzero on every workload. ``failed_frac`` is 0
#: on every correct run; the summary line carries it as ``attempted`` and
#: ``failed``, and any failure makes the exit status nonzero.
#: ``paper_gap_pp`` exists only for Table 2.
DETAILS: Tuple[Tuple[str, str], ...] = (
    ("krec_per_s_min", "krec/s"),
    ("krec_per_s_max", "krec/s"),
    ("repeats", "count"),
    ("failed_frac", "fraction"),
    ("paper_gap_pp", "pp"),
)

UNITS: Dict[str, str] = {
    **{name: unit for name, unit, _ in END_TO_END + PER_LAYER},
    **dict(DETAILS),
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def model_counters(replays: Sequence) -> Dict[str, float]:
    """Model counters of one unit of work, from its replays' ``result``/``reads_merged``.

    A unit with several replays (the Table 2 sweep) sums their raw
    counts before taking ratios, and merges their latency histograms.
    """
    results = [r.result for r in replays]
    first = results[0]
    ctrl, cache, hist = first.controller, first.cache, first.latency_histogram
    for r in results[1:]:
        ctrl = ctrl.merge(r.controller)
        cache = cache.merge(r.cache)
        hist = hist.merge(r.latency_histogram)
    records = sum(r.records for r in results)
    io_ms = sum(r.io_time_ms for r in results)
    disk_busy = [
        sum(r.disk_utilizations[d] * r.io_time_ms for r in results)
        for d in range(len(first.disk_utilizations))
    ]
    mech_ms = ctrl.seek_ms + ctrl.rotation_ms + ctrl.transfer_ms + ctrl.overhead_ms
    return {
        "host.cmds_per_rec": sum(r.commands for r in results) / records,
        "host.merged_frac": sum(r.reads_merged for r in replays) / records,
        "cache.hit_rate": cache.hit_rate,
        "controller.full_hit_frac": _ratio(ctrl.full_cache_hits, ctrl.read_commands),
        "controller.media_reads_per_rec": ctrl.media_reads / records,
        "readahead.ratio": ctrl.readahead_ratio,
        "hdc.hit_rate": ctrl.hdc_hit_rate,
        "disk.util": _ratio(sum(disk_busy), io_ms * len(disk_busy)),
        "disk.imbalance": _ratio(max(disk_busy) * len(disk_busy), sum(disk_busy)),
        "mechanics.seek_share": _ratio(ctrl.seek_ms, mech_ms),
        "mechanics.rotation_share": _ratio(ctrl.rotation_ms, mech_ms),
        "mechanics.transfer_share": _ratio(ctrl.transfer_ms, mech_ms),
        "mechanics.overhead_share": _ratio(ctrl.overhead_ms, mech_ms),
        "bus.util": _ratio(sum(r.bus_utilization * r.io_time_ms for r in results), io_ms),
        "sim.io_time_s": io_ms / 1000.0,
        "sim.lat_p50_ms": hist.percentile(50.0),
        "sim.lat_p99_ms": hist.percentile(99.0),
    }


def signature(replay) -> List[object]:
    """The stats two replays of the same input must share."""
    result = replay.result
    hist = result.latency_histogram
    return [
        result.io_time_ms,
        result.records,
        result.commands,
        result.blocks_requested,
        sorted(vars(result.controller).items()),
        sorted(vars(result.cache).items()),
        list(hist.counts),
        hist.sum,
        list(result.disk_utilizations),
        result.bus_utilization,
        replay.reads_merged,
    ]
