"""Shared helpers for the benchmark harness.

Every figure/table of the paper has a ``bench_figNN.py`` here that
re-runs the corresponding experiment driver at benchmark scale (small
enough for CI, large enough that the paper's qualitative shape is
visible) and records the reproduced series in ``benchmark.extra_info``
so a ``--benchmark-json`` dump carries the scientific result alongside
the timing.
"""

from __future__ import annotations

from typing import Callable


def run_once(benchmark, fn: Callable, **kwargs):
    """Benchmark ``fn(**kwargs)`` with a single timed round.

    Experiment drivers take seconds and are deterministic, so one round
    is both sufficient and necessary (pytest-benchmark's default
    auto-calibration would re-run them dozens of times).
    """
    return benchmark.pedantic(
        fn, kwargs=kwargs, rounds=1, iterations=1, warmup_rounds=0
    )


def record_series(benchmark, result) -> None:
    """Attach a SeriesResult's data to the benchmark report."""
    benchmark.extra_info["exp_id"] = result.exp_id
    benchmark.extra_info["x_values"] = list(map(str, result.x_values))
    for name, values in result.series.items():
        benchmark.extra_info[name] = [round(float(v), 4) for v in values]
