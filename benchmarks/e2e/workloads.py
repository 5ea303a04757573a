"""The benchmark's three workloads, each run in a child process of its own.

Run as ``python -m benchmarks.e2e.workloads --workload W --seed N
--seconds S [--smoke] [--trace-dir DIR]`` with ``src`` and the
repository root on ``PYTHONPATH`` (the parent in :mod:`benchmarks.e2e.cli`
does this). The child prints one JSON object as its last line.

The simulator is driven only through its public entry points
(``repro.experiments.table2.run``, ``TechniqueRunner``, ``repro.ingest``,
``repro.loadgen``). Set-up time and per-replay results are captured by
wrapping public ``build`` methods and the result collector while the child runs
(:class:`Hooks`); nothing under ``src/`` knows about the benchmark.

Every workload runs in *simulated* time on the Ultrastar 36Z15 8-disk
array. Host time is what is measured.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import itertools
import json
import math
import random
import resource
import statistics
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import repro.experiments.runner as runner_module
from repro.config import ultrastar_36z15_config
from repro.experiments import table2
from repro.experiments.runner import TechniqueRunner
from repro.experiments.techniques import SEGM
from repro.ingest.detect import parse_source
from repro.ingest.remap import AddressRemapper, infer_layout
from repro.loadgen import build_layout, generate_records, preset_population
from repro.workloads.fileserver import FileServerWorkload
from repro.workloads.proxy import ProxyServerWorkload
from repro.workloads.trace import TimedAccess, Trace, TraceMeta
from repro.workloads.webserver import WebServerWorkload

from benchmarks.e2e import layers, metrics

ROOT = Path(__file__).resolve().parents[2]
FIO_SAMPLE = ROOT / "tests" / "data" / "sample_fio.log"

#: The rendered Table 2 each (scale, seed) must reproduce byte for byte.
EXPECTED_TABLES: Dict[Tuple[float, int], Path] = {
    (0.05, 1): ROOT / "tests" / "golden" / "table2_s0.05.txt",
}

#: The paper's Table 2: I/O-time reductions of FOR, Segm+HDC, FOR+HDC.
PAPER_TABLE2 = {
    "Web": (0.34, 0.24, 0.47),
    "Proxy": (0.17, 0.18, 0.33),
    "File": (0.12, 0.10, 0.21),
}

#: The Table 2 server a trace run re-times untraced for ``trace.overhead``
#: (the shortest row, about 6 s at full size).
PROBE_SERVER = "Proxy"

#: Set-up is timed at least this many times per run; the median is reported.
SETUP_SAMPLES = 3


@dataclass(frozen=True)
class Size:
    table2_scale: float
    fio_records: int
    clients: int
    requests: int


FULL = Size(table2_scale=0.05, fio_records=70_000, clients=20_000, requests=70_000)
SMOKE = Size(table2_scale=0.001, fio_records=1_000, clients=1_000, requests=1_000)


@dataclass
class Build:
    """One call of a server workload's ``build`` and the artifact calls after it."""

    started: float
    workload: object
    records: int
    calls: List[Tuple[str, tuple]] = field(default_factory=list)


@dataclass
class Replay:
    """One finished replay, as the result collector saw it."""

    result: object
    reads_merged: int
    commands_failed: int
    #: Records of the trace last made by a wrapped ``build`` (0 if none).
    built_records: int


class Hooks:
    """Timers and result capture around the simulator's public entry points.

    Wraps the three server workloads' ``build`` (``setup["workload"]``),
    ``TechniqueRunner.profile/bitmaps_for/plan_for`` (``setup["artifacts"]``)
    and the result collector ``TechniqueRunner.run`` calls (one
    :class:`Replay` per replay). Each wrapper runs a few times per replay,
    so the untraced overhead is a few microseconds per multi-second replay.
    """

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.setup = {"workload": 0.0, "artifacts": 0.0}
        self.builds: List[Build] = []
        self.replays: List[Replay] = []
        self._depth = 0

    @contextmanager
    def timed(self, kind: str):
        """Add the block's time to ``setup[kind]`` unless an outer block times it."""
        outer = self._depth == 0
        self._depth += 1
        started = time.perf_counter()
        try:
            yield
        finally:
            self._depth -= 1
            if outer:
                self.setup[kind] += time.perf_counter() - started

    @contextmanager
    def installed(self):
        """Install the wrappers for the block's duration, then restore the originals."""
        saved = []

        def patch(owner, name, make):
            original = getattr(owner, name)
            saved.append((owner, name, original))
            setattr(owner, name, make(original))

        for server in (WebServerWorkload, ProxyServerWorkload, FileServerWorkload):
            patch(server, "build", self._timed_build)
        for name in ("profile", "bitmaps_for", "plan_for"):
            patch(
                TechniqueRunner, name,
                lambda original, name=name: self._timed_artifact(name, original),
            )
        patch(runner_module, "collect_run_result", self._captured_collect)
        try:
            yield self
        finally:
            for owner, name, original in reversed(saved):
                setattr(owner, name, original)

    def _timed_build(self, original):
        def build(workload):
            started = time.perf_counter()
            with self.timed("workload"):
                layout, trace = original(workload)
            self.builds.append(Build(started, workload, len(trace)))
            return layout, trace

        return build

    def _timed_artifact(self, name, original):
        def artifact(runner, *args):
            if self.builds:
                self.builds[-1].calls.append((name, args))
            with self.timed("artifacts"):
                return original(runner, *args)

        return artifact

    def _captured_collect(self, original):
        def collect(system, replayer, elapsed_ms):
            result = original(system, replayer, elapsed_ms)
            built = self.builds[-1].records if self.builds else 0
            # Keep no raw latency list alive past its replay: the caller
            # drops it, and holding it would inflate peak_rss_mb.
            kept = replace(result, record_latencies_ms=[])
            self.replays.append(
                Replay(kept, replayer.reads_merged, replayer.commands_failed, built)
            )
            return result

        return collect


@dataclass
class Unit:
    """One timed unit of work: a whole Table 2 sweep, or set-up plus one replay."""

    seconds: float
    #: Set-up time inside the unit, split by kind (see :class:`Hooks`).
    setup: Dict[str, float]
    #: Records the unit fed to the simulator.
    records: int
    replays: List[Replay]
    #: The part of ``seconds`` a trace run's untraced probe repeats.
    probe_s: float

    @property
    def setup_s(self) -> float:
        return sum(self.setup.values())

    @property
    def krec_per_s(self) -> float:
        return self.records / (self.seconds - self.setup_s) / 1000.0


class Table2Sweep:
    """The paper's Table 2 sweep: ``table2.run(scale, seed)``.

    Web, proxy and file servers under Segm, FOR, Segm+HDC and FOR+HDC,
    closed loop at each trace's stream count (16/128/128): 12 replays.
    The only workload where FOR's block cache, the sequentiality bitmaps,
    HDC pin plans and the pinned region do any work, and the one that
    carries the paper-fidelity check. A sweep outlasts a run's budget,
    so a run measures one sweep and times set-up twice more on its own.
    """

    name = "table2"
    min_units = 1

    def __init__(self, seed: int, size: Size, hooks: Hooks):
        self.seed = seed
        self.scale = size.table2_scale
        self.hooks = hooks
        self.text = ""
        self.rows: Dict[str, List[float]] = {}
        self._builds: List[Build] = []

    def unit(self, servers: Optional[List[str]] = None) -> Unit:
        hooks = self.hooks
        hooks.reset()
        started = time.perf_counter()
        result = table2.run(scale=self.scale, seed=self.seed, servers=servers)
        text = result.to_text() + "\n"
        seconds = time.perf_counter() - started
        if servers is None:
            self.text = text
            self.rows = {
                server: [result.series[label][i] for label in result.series]
                for i, server in enumerate(result.x_values)
            }
        starts = [b.started for b in hooks.builds] + [started + seconds]
        probe = result.x_values.index(PROBE_SERVER)
        self._builds = hooks.builds
        return Unit(
            seconds=seconds,
            setup=dict(hooks.setup),
            records=sum(r.built_records for r in hooks.replays),
            replays=hooks.replays,
            probe_s=starts[probe + 1] - starts[probe],
        )

    def setup(self) -> float:
        """Redo the last sweep's set-up calls on fresh objects; their time."""
        self.hooks.reset()
        for build in self._builds:
            layout, trace = build.workload.build()
            runner = TechniqueRunner(layout, trace)
            for name, args in build.calls:
                getattr(runner, name)(*args)
        return sum(self.hooks.setup.values())

    def probe(self) -> float:
        return self.unit(servers=[PROBE_SERVER]).probe_s

    def checks(self, units: List[Unit]) -> Dict[str, bool]:
        values = [v for row in self.rows.values() for v in row]
        checks = {"table2.values_finite": all(math.isfinite(v) for v in values)}
        expected = EXPECTED_TABLES.get((self.scale, self.seed))
        if expected is not None:
            checks["table2.matches_expected"] = self.text == expected.read_text()
        return checks

    def details(self) -> Dict[str, float]:
        gaps = [
            abs(value - paper)
            for server, row in self.rows.items()
            for value, paper in zip(row, PAPER_TABLE2[server])
        ]
        return {"paper_gap_pp": 100.0 * sum(gaps) / len(gaps)}


def tiled_fio_trace(config, n_records: int, seed: int) -> Trace:
    """The bundled fio capture, placed on the array by ``seed``, tiled to ``n_records``.

    The seed shifts the capture by a whole number of stripes into the
    first half of the array, so each seed lands elsewhere on the disks
    while every record still splits into the same disk commands. Tiling
    repeats the capture end to end, shifting each copy's timestamps past
    the previous copy.
    """
    _fmt, records = parse_source(str(FIO_SAMPLE))
    stripe = config.array.n_disks * config.array.unit_blocks(config.block_size)
    shift = random.Random(seed).randrange(config.array_blocks // 2 // stripe) * stripe
    remapper = AddressRemapper(config.array_blocks, mode="fold")
    base = [
        remapper.map_record(
            TimedAccess([(s + shift, n) for s, n in r.runs], r.is_write, r.timestamp_ms)
        )
        for r in records
    ]
    span = max(r.timestamp_ms for r in base) + 1.0
    tiled = [
        TimedAccess(r.runs, r.is_write, r.timestamp_ms + (i // len(base)) * span)
        for i, r in zip(range(n_records), itertools.cycle(base))
    ]
    return Trace(tiled, TraceMeta(name="fio_tiled", n_streams=64))


class ReplayWorkload:
    """Set-up plus one replay per unit, repeated until the run's budget is spent."""

    name = ""
    min_units = 3

    def __init__(self, seed: int, size: Size, hooks: Hooks):
        self.seed = seed
        self.size = size
        self.hooks = hooks

    def prepare(self) -> Tuple[TechniqueRunner, int]:
        """Set up the replay; returns the runner and the records it will feed."""
        raise NotImplementedError

    def replay(self, runner: TechniqueRunner) -> None:
        raise NotImplementedError

    def unit(self) -> Unit:
        hooks = self.hooks
        hooks.reset()
        started = time.perf_counter()
        runner, records = self.prepare()
        self.replay(runner)
        seconds = time.perf_counter() - started
        return Unit(seconds, dict(hooks.setup), records, hooks.replays, seconds)

    def setup(self) -> float:
        self.hooks.reset()
        self.prepare()
        return sum(self.hooks.setup.values())

    def probe(self) -> float:
        return self.unit().probe_s

    def checks(self, units: List[Unit]) -> Dict[str, bool]:
        first = [metrics.signature(r) for r in units[0].replays]
        return {
            f"{self.name}.repeats_identical": all(
                [metrics.signature(r) for r in u.replays] == first for u in units[1:]
            )
        }

    def details(self) -> Dict[str, float]:
        return {}


class FioClosed(ReplayWorkload):
    """The bundled fio capture, tiled to 70k records, closed loop, 64 streams, Segm.

    60 records, a third writes, about 73 KB each: multi-stripe records
    give about 3.7 disk commands per record, so host decomposition, the
    coalescer and controller command handoffs dominate. No FOR and no
    HDC, so a cache-policy or read-ahead change predicts no change here.
    """

    name = "fio_closed"

    def __init__(self, seed: int, size: Size, hooks: Hooks):
        super().__init__(seed, size, hooks)
        self.config = ultrastar_36z15_config(seed=seed)

    def prepare(self):
        with self.hooks.timed("workload"):
            trace = tiled_fio_trace(self.config, self.size.fio_records, self.seed)
            layout = infer_layout(trace, self.config.array_blocks)
        return TechniqueRunner(layout, trace), self.size.fio_records

    def replay(self, runner):
        runner.run(self.config, SEGM, keep_raw_latencies=False)


class LoadgenSsd(ReplayWorkload):
    """The ``web3`` population streamed open loop at accel 4 onto 8 flash drives, Segm.

    20k clients, 70k requests, generated lazily inside the replay, so
    ``peak_rss_mb`` tests the constant-memory path. Flash has no seek or
    rotation: the bypass workload for drive-mechanics changes. Accel 4
    keeps it below the queueing knee.
    """

    name = "loadgen_ssd"

    def __init__(self, seed: int, size: Size, hooks: Hooks):
        super().__init__(seed, size, hooks)
        self.config = ultrastar_36z15_config(seed=seed, devices=("generic_ssd",) * 8)

    def prepare(self):
        seed = self.seed
        with self.hooks.timed("workload"):
            spec = preset_population(
                "web3", n_clients=self.size.clients, n_requests=self.size.requests
            )
            layout = build_layout(spec, seed)
        runner = TechniqueRunner(
            layout, None, trace_factory=lambda: generate_records(spec, seed, layout=layout)
        )
        return runner, spec.n_requests

    def replay(self, runner):
        runner.run(self.config, SEGM, keep_raw_latencies=False, open_loop=True, accel=4.0)


WORKLOADS = {w.name: w for w in (Table2Sweep, FioClosed, LoadgenSsd)}


def measure(workload, seconds: float) -> Tuple[Dict[str, float], List[Unit]]:
    """Untraced: repeat units until ``seconds`` pass (at least ``min_units``)."""
    units: List[Unit] = []
    deadline = time.perf_counter() + seconds
    while len(units) < workload.min_units or time.perf_counter() < deadline:
        gc.collect()
        units.append(workload.unit())
    setups = [u.setup_s for u in units]
    while len(setups) < SETUP_SAMPLES:
        gc.collect()
        setups.append(workload.setup())
    rates = [u.krec_per_s for u in units]
    values = {
        "wall_s": statistics.median(u.seconds for u in units),
        "krec_per_s": statistics.median(rates),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "krec_per_s_min": min(rates),
        "krec_per_s_max": max(rates),
        "repeats": float(len(units)),
    }
    return values, units


def traced(workload, trace_dir: Path) -> Tuple[Dict[str, float], List[Unit]]:
    """One untraced probe, then one unit under cProfile folded by layer."""
    gc.collect()
    probe_s = workload.probe()
    gc.collect()
    profiler = cProfile.Profile()
    profiler.enable()
    unit = workload.unit()
    profiler.disable()
    trace_dir.mkdir(parents=True, exist_ok=True)
    profiler.dump_stats(str(trace_dir / f"{workload.name}.pstats"))
    values = layers.fold(profiler, unit.records)
    values["trace.overhead"] = unit.probe_s / probe_s
    return values, [unit]


def run(name: str, seed: int, seconds: float, smoke: bool, trace_dir: Optional[Path]) -> dict:
    """Run one workload; the result the child prints."""
    hooks = Hooks()
    with hooks.installed():
        workload = WORKLOADS[name](seed, SMOKE if smoke else FULL, hooks)
        if trace_dir is None:
            values, units = measure(workload, seconds)
        else:
            values, units = traced(workload, trace_dir)
    first = units[0]
    values.update(metrics.model_counters(first.replays))
    values["setup.workload_s"] = first.setup["workload"]
    values["setup.artifacts_s"] = first.setup["artifacts"]
    values.update(workload.details())

    replays = [r for u in units for r in u.replays]
    records = sum(u.records for u in units)
    missing = abs(records - sum(r.result.records for r in replays))
    checks = workload.checks(units)
    attempted = records + sum(r.result.commands for r in replays) + len(checks)
    failed = missing + sum(r.commands_failed for r in replays) + sum(
        not ok for ok in checks.values()
    )
    values["failed_frac"] = failed / attempted
    return {
        "workload": name,
        "seed": seed,
        "smoke": smoke,
        "trace": trace_dir is not None,
        "attempted": attempted,
        "failed": failed,
        "checks": checks,
        "metrics": values,
    }


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--trace-dir", type=Path)
    args = parser.parse_args(argv)
    result = run(args.workload, args.seed, args.seconds, args.smoke, args.trace_dir)
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
