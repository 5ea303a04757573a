"""Figure 1 — average sequential read vs fragmentation degree.

For file sizes of 2/4/8/16/32 blocks, sweep the fragmentation
probability and report the average physically sequential run length,
both *measured* on allocated layouts and from the closed-form model
``E[f/(B+1)] = (1-(1-p)^f)/p``. The paper's headline checkpoints:
5% fragmentation cuts 32-block files to ~12 sequential blocks (-62%)
and 8-block files to ~6 (-29%).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.analysis.sequential_run import expected_sequential_run_exact
from repro.array.striping import StripingLayout
from repro.experiments.base import SeriesResult, scaled_count
from repro.fs.bitmap_builder import measure_sequential_runs
from repro.fs.layout import FileSystemLayout

FILE_SIZES_BLOCKS = (2, 4, 8, 16, 32)
FRAG_POINTS = (0.0, 0.01, 0.02, 0.05, 0.08, 0.12, 0.16, 0.20)


def run(
    scale: float = 1.0,
    seed: int = 1,
    file_sizes_blocks: Sequence[int] = FILE_SIZES_BLOCKS,
    frag_points: Sequence[float] = FRAG_POINTS,
) -> SeriesResult:
    """Measure average sequential runs over fragmented layouts."""
    n_files = scaled_count(4000, scale, minimum=50)
    result = SeriesResult(
        exp_id="fig01",
        title="Average sequential read vs fragmentation",
        x_label="frag_%",
        x_values=[round(100 * p, 1) for p in frag_points],
    )
    # Single-disk, effectively unstriped layout isolates fragmentation.
    for size in file_sizes_blocks:
        total_blocks = int(n_files * size * 3 + 1024)
        striping = StripingLayout(1, 1 << 20, total_blocks)
        for p in frag_points:
            rng = np.random.default_rng(seed * 1000 + int(p * 1000))
            layout = FileSystemLayout.build(
                [size] * n_files, total_blocks, frag_prob=p, rng=rng
            )
            result.add_point(f"{size}blk_sim", measure_sequential_runs(layout, striping))
            result.add_point(
                f"{size}blk_model", expected_sequential_run_exact(size, p)
            )
    result.notes.append(
        "sim = measured on allocated layouts; model = E[f/(B+1)] closed form"
    )
    return result
