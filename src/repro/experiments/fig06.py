"""Figure 6 — normalized I/O time vs percentage of writes.

Write fraction swept 0..60%; 16-KB requests; Zipf(0.4); 2-MB HDC.
Systems: Segm, Segm+HDC, FOR, FOR+HDC.
Expected shape: FOR's improvement shrinks as writes grow (the paper
reports 39% -> 19% between 0 and 60% writes) while HDC's contribution
stays roughly constant.
"""

from __future__ import annotations

import dataclasses
from typing import Sequence

from repro.config import ultrastar_36z15_config
from repro.experiments.base import SeriesResult, log, scaled_count
from repro.experiments.runner import TechniqueRunner
from repro.experiments.techniques import FOR, FOR_HDC, SEGM, SEGM_HDC
from repro.units import KB, MB
from repro.workloads.synthetic import SyntheticSpec, SyntheticWorkload

WRITE_FRACTIONS = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6)
TECHNIQUES = (SEGM, SEGM_HDC, FOR, FOR_HDC)


def run(
    scale: float = 1.0,
    seed: int = 1,
    write_fractions: Sequence[float] = WRITE_FRACTIONS,
    hdc_bytes: int = 2 * MB,
) -> SeriesResult:
    """Sweep the write percentage; normalize to Segm per point."""
    n_requests = scaled_count(10_000, scale, minimum=200)
    result = SeriesResult(
        exp_id="fig06",
        title="Normalized I/O time vs write percentage (Zipf 0.4, 2-MB HDC)",
        x_label="write_frac",
        x_values=list(write_fractions),
    )
    config = ultrastar_36z15_config(seed=seed)
    for write_frac in write_fractions:
        spec = SyntheticSpec(
            n_requests=n_requests,
            file_size_bytes=16 * KB,
            zipf_alpha=0.4,
            write_fraction=write_frac,
            seed=seed,
            period=1,
        )
        layout, trace = SyntheticWorkload(spec).build()
        # HDC profiles the previous period's accesses (§5).
        _, history = SyntheticWorkload(
            dataclasses.replace(spec, period=0)
        ).build()
        runner = TechniqueRunner(layout, trace, profile_trace=history)
        baseline = None
        for tech in TECHNIQUES:
            res = runner.run(config, tech, hdc_bytes=hdc_bytes)
            if tech is SEGM:
                baseline = res
            result.add_point(tech.label, res.io_time_ms / baseline.io_time_ms)
            log(f"fig06 w={write_frac} {tech.label}: {res.io_time_s:.2f}s")
    return result
