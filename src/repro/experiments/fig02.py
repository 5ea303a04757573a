"""Figure 2 — distribution of disk-block accesses in the three server
workloads, against a Zipf(0.43) reference.

The paper plots the access count of the 300000 most-accessed disk
blocks (log-scale y). We report the access counts at logarithmically
spaced ranks for each generated disk trace, plus a Zipf(alpha=0.43)
curve fitted to the same total volume. The defining property to
reproduce: popularity is *flat* — the hottest disk block is touched
only ~90 times — because the buffer cache absorbed the Zipf head.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.experiments.base import SeriesResult
from repro.workloads.fileserver import FileServerSpec, FileServerWorkload
from repro.workloads.proxy import ProxyServerSpec, ProxyServerWorkload
from repro.workloads.trace import count_block_accesses
from repro.workloads.webserver import WebServerSpec, WebServerWorkload

RANKS = (1, 3, 10, 30, 100, 300, 1_000, 3_000, 10_000, 30_000, 100_000)


def _sorted_counts(trace) -> np.ndarray:
    counts = count_block_accesses(trace)
    return np.array(sorted(counts.values(), reverse=True), dtype=np.int64)


def run(scale: float = 0.05, seed: int = 1, ranks: Sequence[int] = RANKS) -> SeriesResult:
    """Access counts at selected popularity ranks per workload."""
    workloads = {
        "Web": WebServerWorkload(WebServerSpec(scale=scale, seed=seed + 0)),
        "Proxy": ProxyServerWorkload(ProxyServerSpec(scale=scale, seed=seed + 1)),
        "File": FileServerWorkload(FileServerSpec(scale=scale / 4, seed=seed + 2)),
    }
    result = SeriesResult(
        exp_id="fig02",
        title="Distribution of disk block accesses (counts at rank)",
        x_label="rank",
        x_values=list(ranks),
    )
    reference_total = None
    reference_n = None
    for name, workload in workloads.items():
        _layout, trace = workload.build()
        counts = _sorted_counts(trace)
        if reference_total is None:
            reference_total = int(counts.sum())
            reference_n = len(counts)
        for rank in ranks:
            value = float(counts[rank - 1]) if rank <= len(counts) else 0.0
            result.add_point(name, value)
        result.notes.append(
            f"{name}: {len(counts)} distinct blocks, hottest={int(counts[0])}, "
            f"total accesses={int(counts.sum())}"
        )
    # Zipf(0.43) reference normalised to the web trace's volume.
    alpha = 0.43
    weights = np.arange(1, reference_n + 1, dtype=np.float64) ** (-alpha)
    zipf_counts = weights * (reference_total / weights.sum())
    for rank in ranks:
        value = float(zipf_counts[rank - 1]) if rank <= reference_n else 0.0
        result.add_point("zipf(0.43)", value)
    return result
