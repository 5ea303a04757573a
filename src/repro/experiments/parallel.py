"""Parallel experiment runner: fan a figure's sweep over processes.

Every figure/table in the paper is a sweep of independent
(workload, technique, config) cells; the serial drivers replay them
one after another in a single process. This module expands a
:data:`repro.experiments.registry.REGISTRY` record into its cells (one
per value of the record's ``axis``), dispatches them over a
``multiprocessing`` pool, and merges the per-cell
:class:`~repro.experiments.base.SeriesResult` slices back in axis
order — so the merged result is byte-identical to the serial path's.

Determinism: a cell is executed by calling the driver's ``run()`` with
the same ``seed`` the serial path would use; every workload generator
and the simulator derive *all* randomness from that seed, so no RNG
state needs to cross process boundaries and the partition of cells
over workers cannot change any result.

Cells are cheap to pickle (experiment name + axis value); the heavy
memoised artifacts (built traces, FOR bitmaps, HDC pin plans) are
instead recreated at most once per *worker* via the pool initializer,
which turns on :func:`repro.experiments.servers.enable_workload_cache`.

An optional :class:`~repro.experiments.cache.ResultCache` short-cuts
cells whose (identity, code-version) key already has a stored result,
so re-running a sweep after an interrupt or a one-figure code change
only recomputes dirty cells.
"""

from __future__ import annotations

import multiprocessing
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigError
from repro.experiments.base import SeriesResult, merge_series_results
from repro.experiments.cache import ResultCache, code_fingerprint
from repro.experiments.registry import REGISTRY
from repro.metrics.sweepstats import SweepMetrics


@dataclass(frozen=True)
class Cell:
    """One independent unit of a sweep: a driver call for a single x.

    ``scale``/``seed`` of ``None`` mean "use the driver's default", so
    cells reproduce exactly what the serial CLI would run when the user
    did not pass ``--scale``.
    """

    exp: str
    index: int
    axis: Optional[str] = None
    value: object = None
    scale: Optional[float] = None
    seed: Optional[int] = None
    #: Fault-profile *name* (``--faults``); a name rather than the
    #: profile object so cells stay cheap to pickle and the installed
    #: profile is resolved identically in every worker process.
    faults: Optional[str] = None

    def run_kwargs(self) -> Dict[str, object]:
        """Keyword arguments for the driver's ``run()``."""
        kwargs: Dict[str, object] = {}
        if self.scale is not None:
            kwargs["scale"] = self.scale
        if self.seed is not None:
            kwargs["seed"] = self.seed
        if self.axis is not None:
            kwargs[self.axis] = [self.value]
        return kwargs

    def label(self) -> str:
        """Short display name for progress/metrics output."""
        if self.axis is None:
            return self.exp
        return f"{self.exp}[{self.axis}={self.value}]"

    def cache_payload(self) -> Dict[str, object]:
        """Identity components hashed into the cell's cache key.

        ``scale`` and ``seed`` pin the generated trace and SimConfig
        (all generator randomness keys off the seed); the axis value
        pins the technique/config sweep point; the code fingerprint
        pins the implementation. Together these content-address the
        cell's result.
        """
        payload: Dict[str, object] = {
            "exp": self.exp,
            "axis": self.axis,
            "value": self.value,
            "scale": self.scale,
            "seed": self.seed,
            "code": code_fingerprint(self.exp),
        }
        # Only fault-injected cells carry the profile key, so every
        # pre-fault cache entry remains valid (and faults=None hashes
        # identically to a cache written before the key existed).
        if self.faults is not None:
            payload["faults"] = self.faults
        return payload


def expand_cells(
    name: str,
    scale: Optional[float] = None,
    seed: Optional[int] = None,
    values: Optional[Sequence[object]] = None,
    faults: Optional[str] = None,
) -> List[Cell]:
    """Expand one registry record into its independent cells.

    ``values`` overrides the axis points (handy for smoke sweeps and
    tests); experiments whose record declares no axis expand to a
    single whole-run cell. ``faults`` names the profile to
    install in every cell's process before running; ``"none"`` is
    normalised to ``None`` so an explicit no-faults run shares cache
    entries with runs that never passed the flag.
    """
    exp = REGISTRY.get(name)
    if exp is None:
        raise ConfigError(f"unknown experiment {name!r}")
    if faults is not None:
        from repro.faults.profile import get_profile

        get_profile(faults)  # fail fast on unknown names
        if faults == "none":
            faults = None
    if exp.axis is None:
        return [Cell(exp=name, index=0, scale=scale, seed=seed, faults=faults)]
    points = list(values if values is not None else exp.values)
    return [
        Cell(
            exp=name,
            index=i,
            axis=exp.axis,
            value=value,
            scale=scale,
            seed=seed,
            faults=faults,
        )
        for i, value in enumerate(points)
    ]


def _worker_init() -> None:
    """Pool initializer: share built workloads across a worker's cells."""
    from repro.experiments import servers

    servers.enable_workload_cache()


def run_cell(cell: Cell) -> Tuple[int, float, dict]:
    """Execute one cell; returns (index, wall seconds, result dict).

    Module-level so it pickles for ``multiprocessing``; the result
    crosses the process boundary as a plain dict.
    """
    start = time.perf_counter()
    run = REGISTRY[cell.exp].run
    if cell.faults is not None:
        from repro.faults.profile import fault_profile, get_profile

        # Resolve by name inside the executing process, so the same
        # profile is installed whether the cell runs inline, in a
        # forked worker, or in a spawned one.
        with fault_profile(get_profile(cell.faults)):
            result = run(**cell.run_kwargs())
    else:
        result = run(**cell.run_kwargs())
    return cell.index, time.perf_counter() - start, result.to_dict()


class ParallelSweep:
    """Expand, dispatch, and merge one experiment's sweep.

    Parameters
    ----------
    name:
        Registry id (``fig01`` … ``ext_frag``).
    scale, seed:
        Forwarded to every cell; ``None`` keeps driver defaults.
    jobs:
        Worker processes. ``1`` runs cells inline (still cache-aware).
    cache:
        Optional :class:`ResultCache`; hits skip the cell entirely.
    values:
        Optional x-axis override (smoke sweeps, tests).
    faults:
        Optional fault-profile name (``--faults``) installed in every
        cell's executing process; joins the cache key.
    """

    def __init__(
        self,
        name: str,
        scale: Optional[float] = None,
        seed: Optional[int] = None,
        jobs: int = 1,
        cache: Optional[ResultCache] = None,
        values: Optional[Sequence[object]] = None,
        faults: Optional[str] = None,
    ) -> None:
        if jobs < 1:
            raise ConfigError(f"jobs must be >= 1, got {jobs}")
        self.name = name
        self.scale = scale
        self.seed = seed
        self.jobs = jobs
        self.cache = cache
        self.values = values
        self.faults = faults
        self.metrics = SweepMetrics(exp_id=name, jobs=jobs)

    def run(self) -> SeriesResult:
        """Run the sweep; returns the merged (serial-identical) result."""
        start = time.perf_counter()
        cells = expand_cells(
            self.name, self.scale, self.seed, self.values, self.faults
        )
        slices: List[Optional[dict]] = [None] * len(cells)
        keys: Dict[int, str] = {}
        pending: List[Cell] = []

        for cell in cells:
            if self.cache is not None:
                key = self.cache.key_for(cell.cache_payload())
                keys[cell.index] = key
                hit = self.cache.get(key)
                if hit is not None:
                    slices[cell.index] = hit
                    self.metrics.record(cell.label(), 0.0, cached=True)
                    continue
            pending.append(cell)

        for index, wall_s, data in self._execute(pending):
            slices[index] = data
            self.metrics.record(cells[index].label(), wall_s, cached=False)
            if self.cache is not None:
                self.cache.put(keys[index], data)

        self.metrics.wall_s = time.perf_counter() - start
        return merge_series_results(
            [SeriesResult.from_dict(data) for data in slices]
        )

    def _execute(self, pending: List[Cell]):
        """Yield (index, wall_s, result dict) for every pending cell."""
        if not pending:
            return
        if self.jobs == 1 or len(pending) == 1:
            # Inline execution still gets the per-worker workload memo
            # (scoped to this sweep, so test sessions don't accumulate
            # every generated trace in memory).
            from repro.experiments import servers

            was_enabled = servers.workload_cache_enabled()
            servers.enable_workload_cache()
            try:
                for cell in pending:
                    yield run_cell(cell)
            finally:
                if not was_enabled:
                    servers.clear_workload_cache()
            return
        # fork shares the already-imported interpreter state cheaply;
        # fall back to the platform default where fork is unavailable.
        methods = multiprocessing.get_all_start_methods()
        ctx = multiprocessing.get_context(
            "fork" if "fork" in methods else None
        )
        workers = min(self.jobs, len(pending))
        with ctx.Pool(workers, initializer=_worker_init) as pool:
            for out in pool.imap_unordered(run_cell, pending):
                yield out


def sweep_experiment(
    name: str,
    scale: Optional[float] = None,
    seed: Optional[int] = None,
    jobs: int = 1,
    cache_dir: Optional[str] = None,
    values: Optional[Sequence[object]] = None,
    faults: Optional[str] = None,
) -> Tuple[SeriesResult, SweepMetrics]:
    """Convenience wrapper: run one sweep, return (result, metrics)."""
    cache = ResultCache(cache_dir) if cache_dir else None
    sweep = ParallelSweep(
        name,
        scale=scale,
        seed=seed,
        jobs=jobs,
        cache=cache,
        values=values,
        faults=faults,
    )
    result = sweep.run()
    return result, sweep.metrics
