"""Figure 7 — Web server: I/O time vs striping unit size (2-MB HDC).

Expected shape: best striping unit between 16 and 32 KB; FOR cuts I/O
time 27-34% vs Segm across units; FOR+HDC reaches ~47%.
"""

from __future__ import annotations

from typing import Sequence

from repro.experiments.base import SeriesResult
from repro.experiments.servers import STRIPING_UNITS_KB, striping_sweep
from repro.workloads.webserver import WebServerSpec, WebServerWorkload

DEFAULT_SCALE = 0.05


def run(
    scale: float = DEFAULT_SCALE,
    seed: int = 1,
    units_kb: Sequence[int] = STRIPING_UNITS_KB,
) -> SeriesResult:
    """Striping-unit sweep over the web-server workload."""
    return striping_sweep(
        exp_id="fig07",
        title=f"Web server: I/O time vs striping unit (scale={scale})",
        build_workload=lambda: WebServerWorkload(
            WebServerSpec(scale=scale, seed=seed)
        ).build(),
        units_kb=units_kb,
        seed=seed,
        hdc_pin_fraction=scale,
        workload_key=("web", scale, seed),
    )
