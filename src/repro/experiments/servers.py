"""Shared drivers for the real-server figures (7-12).

Two sweep shapes cover all six figures:

* :func:`striping_sweep` (Figs. 7/9/11) — absolute I/O time vs striping
  unit for Segm, Segm+HDC, FOR, FOR+HDC at a fixed 2-MB HDC size;
* :func:`hdc_sweep` (Figs. 8/10/12) — absolute I/O time + HDC hit rate
  vs HDC size at the server's best striping unit.

Scaling note: workloads shrink with ``scale`` while the controller
cache and the HDC *region* stay at paper (hardware-absolute) sizes, so
the read-ahead-starvation knee near 2.5 MB is preserved. The HDC
*pin-set*, however, is scaled with the workload (``hdc_pin_fraction``)
so the pinned blocks cover the same fraction of the footprint as at
full scale — keeping hit rates comparable to the paper's instead of
inflated by ``1/scale``. Pin sets come from the measured trace itself —
§6.1's perfect-knowledge assumption for the real workloads.
EXPERIMENTS.md records the details.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Sequence, Tuple

from repro.config import ArrayParams, ultrastar_36z15_config
from repro.experiments.base import SeriesResult, log
from repro.experiments.runner import TechniqueRunner
from repro.experiments.techniques import FOR, FOR_HDC, SEGM, SEGM_HDC
from repro.errors import ConfigError
from repro.fs.layout import FileSystemLayout
from repro.units import KB, MB
from repro.workloads.trace import Trace

STRIPING_UNITS_KB = (4, 8, 16, 32, 64, 128, 256)
HDC_SIZES_KB = (0, 256, 512, 1024, 1536, 2048, 2560, 3072)
STRIPE_TECHNIQUES = (SEGM, SEGM_HDC, FOR, FOR_HDC)

#: Returns (layout, measured trace).
WorkloadBuilder = Callable[[], Tuple[FileSystemLayout, Trace]]

#: Per-process memo of built workloads: key -> ready TechniqueRunner.
#: ``None`` means memoisation is off (the serial default, which keeps
#: long test sessions from pinning every generated trace in memory).
_WORKLOAD_CACHE: Optional[Dict[tuple, TechniqueRunner]] = None


def enable_workload_cache() -> None:
    """Turn on per-process workload memoisation.

    The parallel sweep's pool initializer calls this in every worker,
    so the cells of one figure that land on the same worker share a
    single built workload — and with it the :class:`TechniqueRunner`'s
    memoised block-access profile, FOR bitmaps and HDC pin plans —
    instead of regenerating them per cell.
    """
    global _WORKLOAD_CACHE
    if _WORKLOAD_CACHE is None:
        _WORKLOAD_CACHE = {}


def clear_workload_cache() -> None:
    """Drop the memo and disable memoisation again."""
    global _WORKLOAD_CACHE
    _WORKLOAD_CACHE = None


def workload_cache_enabled() -> bool:
    """Whether per-process workload memoisation is currently on."""
    return _WORKLOAD_CACHE is not None


def _runner_for(
    workload_key: Optional[tuple], build_workload: WorkloadBuilder
) -> TechniqueRunner:
    """A TechniqueRunner for the workload, memoised when enabled."""
    if _WORKLOAD_CACHE is None or workload_key is None:
        layout, trace = build_workload()
        return TechniqueRunner(layout, trace)
    runner = _WORKLOAD_CACHE.get(workload_key)
    if runner is None:
        layout, trace = build_workload()
        runner = TechniqueRunner(layout, trace)
        _WORKLOAD_CACHE[workload_key] = runner
    return runner


def build_two_periods(make_workload: Callable[[int], object]):
    """Build the measured (period 1) and history (period 0) traces.

    ``make_workload(period)`` must return a workload object with a
    ``build()`` method; the layout is identical across periods because
    generators key layout/size/popularity streams off the seed only.
    """
    layout, trace = make_workload(1).build()
    _history_layout, history = make_workload(0).build()
    return layout, trace, history


def striping_sweep(
    exp_id: str,
    title: str,
    build_workload: WorkloadBuilder,
    units_kb: Sequence[int] = STRIPING_UNITS_KB,
    hdc_bytes: int = 2 * MB,
    seed: int = 1,
    hdc_pin_fraction: float = 1.0,
    workload_key: Optional[tuple] = None,
) -> SeriesResult:
    """I/O time (seconds) vs striping unit for the four systems."""
    runner = _runner_for(workload_key, build_workload)
    trace = runner.trace
    result = SeriesResult(
        exp_id=exp_id,
        title=title,
        x_label="unit_KB",
        x_values=list(units_kb),
    )
    for unit_kb in units_kb:
        config = ultrastar_36z15_config(
            array=ArrayParams(n_disks=8, striping_unit_bytes=unit_kb * KB),
            seed=seed,
        )
        for tech in STRIPE_TECHNIQUES:
            res = runner.run(
                config, tech, hdc_bytes=hdc_bytes,
                hdc_pin_fraction=hdc_pin_fraction, keep_raw_latencies=False,
            )
            result.add_point(tech.label, res.io_time_s)
            log(f"{exp_id} unit={unit_kb}KB {tech.label}: {res.io_time_s:.2f}s")
    result.notes.append(
        f"trace: {len(trace)} disk records, writes "
        f"{100 * trace.write_fraction:.1f}%, streams {trace.meta.n_streams}"
    )
    return result


def hdc_sweep(
    exp_id: str,
    title: str,
    build_workload: WorkloadBuilder,
    striping_unit_kb: int,
    hdc_sizes_kb: Sequence[int] = HDC_SIZES_KB,
    seed: int = 1,
    hdc_pin_fraction: float = 1.0,
    workload_key: Optional[tuple] = None,
) -> SeriesResult:
    """I/O time + HDC hit rate vs HDC size at a fixed striping unit.

    Points where a configuration is infeasible (e.g. FOR's bitmap plus
    the HDC region exhaust the controller cache) are reported as NaN —
    this is why the paper's FOR+HDC curve "does not touch the right
    side of the graph".
    """
    runner = _runner_for(workload_key, build_workload)
    result = SeriesResult(
        exp_id=exp_id,
        title=title,
        x_label="hdc_KB",
        x_values=list(hdc_sizes_kb),
    )
    config = ultrastar_36z15_config(
        array=ArrayParams(n_disks=8, striping_unit_bytes=striping_unit_kb * KB),
        seed=seed,
    )
    for hdc_kb in hdc_sizes_kb:
        hit_rate = 0.0
        for tech in (SEGM_HDC, FOR_HDC):
            try:
                res = runner.run(
                    config, tech, hdc_bytes=hdc_kb * KB,
                    hdc_pin_fraction=hdc_pin_fraction,
                    keep_raw_latencies=False,
                )
            except ConfigError as exc:
                result.add_point(tech.label, float("nan"))
                log(f"{exp_id} hdc={hdc_kb}KB {tech.label}: skipped ({exc})")
                continue
            hit_rate = max(hit_rate, res.hdc_hit_rate)
            result.add_point(tech.label, res.io_time_s)
            log(
                f"{exp_id} hdc={hdc_kb}KB {tech.label}: {res.io_time_s:.2f}s "
                f"hit={res.hdc_hit_rate:.3f}"
            )
        result.add_point("hdc_hit_rate", hit_rate)
    result.notes.append(f"striping unit fixed at {striping_unit_kb} KB")
    return result
