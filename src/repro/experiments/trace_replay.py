"""Trace replay — paper techniques over an ingested (timed) trace.

The figure experiments replay the §6.2 synthetic workload closed-loop:
128 streams, as fast as completions allow. This entry asks the same
Segm/FOR/HDC question of a *timed* trace replayed open-loop: requests
arrive at their recorded timestamps (time-warped by ``accel``), so the
y axis is delivered latency under the offered load rather than pure
capacity.

Point it at any trace ``python -m repro.ingest convert`` produced with
``trace_path=``; without one it synthesizes a timed workload (the
fig03 16-KB-file mix with exponential interarrivals) so the experiment
is self-contained and CI-runnable.

:func:`render` follows the series table with the techniques ranked by
delivered mean latency; like the knee tables of scale_sweep and
hybrid_array it is computed from the merged series, so serial and
``--jobs N`` output stay byte-identical.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.config import ultrastar_36z15_config
from repro.errors import WorkloadError
from repro.experiments.base import SeriesResult, log, scaled_count
from repro.experiments.runner import TechniqueRunner
from repro.experiments.techniques import ALL_TECHNIQUES
from repro.ingest.detect import parse_source, source_meta
from repro.ingest.remap import AddressRemapper, infer_layout
from repro.metrics.report import format_table
from repro.sim.rng import RandomStreams
from repro.units import KB
from repro.workloads.synthetic import SyntheticSpec, SyntheticWorkload
from repro.workloads.trace import TimedAccess, Trace

#: Technique keys swept, in presentation order.
TECHNIQUE_KEYS = ("segm", "for", "segm+hdc", "for+hdc")
#: Per-disk HDC region for the +hdc techniques (the paper's sweet spot).
HDC_KB = 2048
#: Mean interarrival of the synthetic timed workload (ms). ~500 req/s
#: offered to the 8-disk array: busy but stable, so open-loop queues
#: drain and latency differences between techniques are visible.
MEAN_INTERARRIVAL_MS = 2.0


def _synthetic_timed(scale: float, seed: int):
    """A fig03-style workload with exponential arrival timestamps."""
    spec = SyntheticSpec(
        n_requests=scaled_count(10_000, scale, minimum=200),
        file_size_bytes=16 * KB,
        seed=seed,
    )
    layout, trace = SyntheticWorkload(spec).build()
    arrivals = RandomStreams(seed).stream("trace_replay.arrivals")
    now = 0.0
    timed: List[TimedAccess] = []
    for record in trace:
        timed.append(
            TimedAccess(record.runs, record.is_write, timestamp_ms=now)
        )
        now += float(arrivals.exponential(MEAN_INTERARRIVAL_MS))
    return layout, Trace(timed, trace.meta)


def _ingested(trace_path: str, config):
    """Load a converted (or raw) trace and infer its layout."""
    fmt, records = parse_source(trace_path)
    remapper = AddressRemapper(config.array_blocks, mode="fold")
    timed = [remapper.map_record(r) for r in records]
    if not timed:
        raise WorkloadError(f"{trace_path}: no records parsed")
    trace = Trace(timed, source_meta(trace_path, fmt))
    return infer_layout(trace, config.array_blocks), trace


def run(
    scale: float = 1.0,
    seed: int = 1,
    techniques: Sequence[str] = TECHNIQUE_KEYS,
    trace_path: Optional[str] = None,
    open_loop: bool = True,
    accel: float = 1.0,
    hdc_kb: int = HDC_KB,
    lazy: bool = False,
) -> SeriesResult:
    """Replay one timed trace under each technique in ``techniques``.

    ``lazy=True`` replays through a record *factory* instead of a
    materialized trace: each technique re-reads the source (re-parsing
    ``trace_path`` per replay in constant memory). Results are
    identical to the materialized path — same records, same order,
    same draws — which the regression tests assert.
    """
    config = ultrastar_36z15_config(seed=seed)
    if trace_path is None:
        layout, trace = _synthetic_timed(scale, seed)
        name = "synthetic"
    else:
        layout, trace = _ingested(trace_path, config)
        name = trace.meta.name
    mode = "open" if open_loop else "closed"
    result = SeriesResult(
        exp_id="trace_replay",
        title=f"Trace replay ({name}, {mode}-loop"
        + (f", accel={accel:g})" if open_loop else ")"),
        x_label="technique",
        x_values=[ALL_TECHNIQUES[key].label for key in techniques],
    )
    if lazy:
        if trace_path is None:
            records = trace.records
            factory = lambda: iter(records)  # noqa: E731
        else:
            remapper = AddressRemapper(config.array_blocks, mode="fold")

            def factory():
                _fmt, parsed = parse_source(trace_path)
                return remapper.map_records(parsed)

        runner = TechniqueRunner(
            layout, None, profile_trace=trace, trace_factory=factory
        )
    else:
        runner = TechniqueRunner(layout, trace)
    # A factory stream has no meta, so the lazy path forwards the
    # trace's stream count and coalesce probability explicitly —
    # keeping both paths draw-for-draw identical.
    meta_kwargs = (
        {"n_streams": trace.meta.n_streams, "coalesce_prob": trace.meta.coalesce_prob}
        if lazy
        else {}
    )
    for key in techniques:
        technique = ALL_TECHNIQUES[key]
        res = runner.run(
            config,
            technique,
            hdc_bytes=hdc_kb * KB if technique.hdc else 0,
            open_loop=open_loop,
            accel=accel,
            **meta_kwargs,
        )
        result.add_point("io_time_s", res.io_time_s)
        result.add_point("mean_lat_ms", res.mean_latency_ms)
        result.add_point("p95_lat_ms", res.latency_percentile(95))
        result.add_point("cache_hit", res.cache_hit_rate)
        log(
            f"trace_replay {technique.label}: io={res.io_time_s:.2f}s "
            f"mean={res.mean_latency_ms:.2f}ms"
        )
    return result


def latency_ranking(result: SeriesResult) -> str:
    """Techniques ranked by delivered mean latency, best first."""
    latencies = result.get("mean_lat_ms")
    order = sorted(range(len(result.x_values)), key=lambda i: latencies[i])
    rows = [
        [rank + 1, result.x_values[i], latencies[i]]
        for rank, i in enumerate(order)
    ]
    return "== trace_replay: techniques by delivered mean latency ==\n" + (
        format_table(["rank", "technique", "mean_lat_ms"], rows)
    )


def render(result: SeriesResult) -> str:
    """The series table, then :func:`latency_ranking`."""
    return f"{result.to_text()}\n\n{latency_ranking(result)}"
