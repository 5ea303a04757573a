"""Table 2 — disk-throughput improvements at each server's best
striping unit.

For each server workload, at the paper's best striping unit (16 KB
Web, 64 KB proxy, 128 KB file server), report the I/O-time reduction of
FOR, Segm+HDC and FOR+HDC relative to the conventional system. Paper
values: Web 34/24/47%, proxy 17/18/33%, file server 12/10/21%.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Sequence, Tuple

from repro.config import ArrayParams, ultrastar_36z15_config
from repro.experiments.base import SeriesResult, log
from repro.experiments.runner import TechniqueRunner
from repro.experiments.techniques import FOR, FOR_HDC, SEGM, SEGM_HDC
from repro.units import KB, MB
from repro.workloads.fileserver import FileServerSpec, FileServerWorkload
from repro.workloads.proxy import ProxyServerSpec, ProxyServerWorkload
from repro.workloads.webserver import WebServerSpec, WebServerWorkload

#: (builder factory, best striping unit KB, workload-scale multiplier)
SERVERS: Dict[str, Tuple[Callable, int, float]] = {
    "Web": (lambda scale, seed: WebServerWorkload(
        WebServerSpec(scale=scale, seed=seed)).build(), 16, 1.0),
    "Proxy": (lambda scale, seed: ProxyServerWorkload(
        ProxyServerSpec(scale=scale, seed=seed)).build(), 64, 1.0),
    "File": (lambda scale, seed: FileServerWorkload(
        FileServerSpec(scale=scale, seed=seed)).build(), 128, 0.4),
}


def run(
    scale: float = 0.05,
    seed: int = 1,
    hdc_bytes: int = 2 * MB,
    servers: Optional[Sequence[str]] = None,
) -> SeriesResult:
    """Throughput improvements (fraction) per server at its best unit."""
    chosen = servers if servers is not None else list(SERVERS)
    result = SeriesResult(
        exp_id="table2",
        title="Disk throughput improvements at best striping units",
        x_label="server",
        x_values=list(chosen),
    )
    for name in chosen:
        build, unit_kb, mult = SERVERS[name]
        layout, trace = build(scale * mult, seed)
        runner = TechniqueRunner(layout, trace)
        config = ultrastar_36z15_config(
            array=ArrayParams(n_disks=8, striping_unit_bytes=unit_kb * KB),
            seed=seed,
        )
        baseline = runner.run(config, SEGM)
        log(f"table2 {name} Segm: {baseline.io_time_s:.2f}s")
        for tech in (FOR, SEGM_HDC, FOR_HDC):
            res = runner.run(
                config, tech, hdc_bytes=hdc_bytes,
                hdc_pin_fraction=scale * mult,
            )
            result.add_point(tech.label, res.speedup_vs(baseline))
            log(
                f"table2 {name} {tech.label}: {res.io_time_s:.2f}s "
                f"({100 * res.speedup_vs(baseline):.1f}%)"
            )
    result.notes.append("values are fractional I/O-time reductions vs Segm")
    result.notes.append("paper: Web .34/.24/.47, Proxy .17/.18/.33, File .12/.10/.21")
    return result
