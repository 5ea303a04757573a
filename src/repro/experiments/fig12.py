"""Figure 12 — File server: I/O time vs HDC size (128-KB striping unit).

Expected shape: modest HDC gains (~10% at the peak) and the lowest hit
rates of the three servers (largest footprint), again with the
read-ahead starvation knee near 2.5 MB.
"""

from __future__ import annotations

from typing import Sequence

from repro.experiments.base import SeriesResult
from repro.experiments.servers import HDC_SIZES_KB, hdc_sweep
from repro.workloads.fileserver import FileServerSpec, FileServerWorkload

DEFAULT_SCALE = 0.02
STRIPING_UNIT_KB = 128


def run(
    scale: float = DEFAULT_SCALE,
    seed: int = 1,
    hdc_sizes_kb: Sequence[int] = HDC_SIZES_KB,
) -> SeriesResult:
    """HDC-size sweep over the file-server workload."""
    return hdc_sweep(
        exp_id="fig12",
        title=f"File server: I/O time vs HDC size (scale={scale})",
        build_workload=lambda: FileServerWorkload(
            FileServerSpec(scale=scale, seed=seed)
        ).build(),
        striping_unit_kb=STRIPING_UNIT_KB,
        hdc_sizes_kb=hdc_sizes_kb,
        seed=seed,
        hdc_pin_fraction=scale,
        workload_key=("file", scale, seed),
    )
