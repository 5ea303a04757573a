"""Continuous performance analytics over runs (the ROADMAP flywheel).

``repro.perfkit`` is the layer every speedup and every new scenario
reports through:

* :mod:`repro.perfkit.phases` — streaming workload-phase detection
  over trace/record streams (change-point detection on windowed
  arrival-rate / mix / sequentiality signals; deterministic, constant
  memory);
* :mod:`repro.perfkit.attribute` — cross-run latency attribution:
  diff two runs' per-component costs
  (seek/rotation/transfer/overhead/queue/cache) and rank which
  component explains a latency or throughput shift, whole-run and
  per phase;
* :mod:`repro.perfkit.report` — single-page markdown (optionally
  HTML) reports: phase table, technique table, attribution ranking,
  per-series sparklines. ``python -m repro.perfkit`` is the CLI.

Simulator speed and per-record work are measured by the end-to-end
benchmark (``python3 -m benchmarks.e2e``), not here.

Perfkit is a *consumer* of the obs/metrics surfaces and the
experiments registry; it never reaches into controller/disk/array
internals (layering rule 10 in ``tools/check_layering.py``).
"""

from repro.perfkit.attribute import (
    Attribution,
    AttributionReport,
    RunSummary,
    attribute_shift,
    summarize_run,
)
from repro.perfkit.phases import Phase, PhaseDetector, detect_phases

__all__ = [
    "Phase",
    "PhaseDetector",
    "detect_phases",
    "RunSummary",
    "Attribution",
    "AttributionReport",
    "summarize_run",
    "attribute_shift",
]
