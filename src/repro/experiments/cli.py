"""Command-line entry point: ``repro-exp <experiment> [options]``.

Also reachable as ``python -m repro <experiment>``. With ``all``, every
experiment runs in sequence (slow at full scale; pass ``--scale``).

Every run takes one path: the result comes from the experiment's
``run()`` — or, when a parallel flag is given, from
:class:`~repro.experiments.parallel.ParallelSweep` — and the
experiment's registered ``render`` text goes to stdout, followed by
the optional chart and report. Serial and parallel runs therefore
print the same bytes. Driver progress lines go to stderr.

Parsing is strict argparse: an unknown flag, a flag missing its value,
a malformed number, or an unknown experiment or fault profile exits 2
with a usage message on stderr and runs nothing.

``--chart`` appends an ASCII rendering of the series, so curve shapes
can be eyeballed without a plotting stack. ``--report PATH`` writes a
:func:`repro.perfkit.report.series_report` markdown page for the run —
the rendered text plus per-series sparklines.

Parallel sweeps: ``--jobs N`` fans the experiment's independent cells
over N worker processes and ``--cache-dir``/``--no-cache`` control the
content-addressed result cache (default ``.repro_cache``; cells whose
inputs and code are unchanged are served from disk). Per-cell wall
times and cache hit/miss counters go to stderr.

Fault injection: ``--faults <profile>`` installs a named
:mod:`repro.faults` profile (``none``, ``light``, ``flaky``,
``heavy``) for the run — every :class:`~repro.host.system.System` the
experiment builds picks it up and injects the profile's deterministic,
seed-keyed fault schedule. The profile name joins the result-cache key
for parallel runs, so faulted and fault-free results never collide;
``--faults none`` (and omitting the flag) keeps the machinery entirely
detached and the output byte-identical to a build without the
subsystem.

Tracing: ``--trace`` records the run's request lifecycle with
:class:`repro.obs.tracer.Tracer` and exports it on exit —
Chrome-trace JSON by default (load in Perfetto / ``chrome://tracing``),
or JSONL when ``--trace-out`` ends in ``.jsonl``. ``--trace-limit N``
caps the event count; either flag implies ``--trace``. The experiment
tables on stdout stay byte-identical to an untraced run; the trace
summary and per-disk time-in-state table go to stderr. Tracing forces
a serial in-process run (worker processes would record into their own
tracers), so ``--jobs`` is ignored with a warning.
"""

from __future__ import annotations

import argparse
import logging
import math
import sys
from contextlib import ExitStack
from typing import Callable, Optional, Sequence

from repro.experiments.base import LOGGER
from repro.experiments.parallel import sweep_experiment
from repro.experiments.registry import REGISTRY
from repro.faults.profile import PROFILES, fault_profile, get_profile
from repro.obs.tracer import Tracer, tracing

#: Default on-disk location of the result cache for parallel runs.
DEFAULT_CACHE_DIR = ".repro_cache"

EXAMPLES = """\
example: repro-exp fig03 --scale 0.2 --chart
example: repro-exp fig07 --jobs 4          # parallel + cached
example: repro-exp fig07 --jobs 4 --no-cache
example: repro-exp availability --faults heavy --scale 0.2
example: repro-exp fig07 --scale 0.05 --trace   # fig07.trace.json
example: repro-exp scale_sweep --scale 0.02 --report sweep.md"""


def _experiment_id(text: str) -> str:
    if text != "all" and text not in REGISTRY:
        raise argparse.ArgumentTypeError(f"unknown experiment {text!r}")
    return text


def positive(kind: type) -> Callable[[str], float]:
    """argparse type: a finite number of ``kind`` greater than zero."""

    def parse(text: str) -> float:
        try:
            value = kind(text)
            if 0 < value < math.inf:
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(
            f"expected a positive {kind.__name__}, got {text!r}"
        )

    return parse


def build_parser() -> argparse.ArgumentParser:
    """The strict parser behind :func:`main`."""
    parser = argparse.ArgumentParser(
        prog="repro-exp",
        description="Regenerate a figure or table of the paper ('all' runs every one).",
        epilog=f"experiments: {' '.join(sorted(REGISTRY))} all\n"
        f"fault profiles: {' '.join(PROFILES)}\n{EXAMPLES}",
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("experiment", type=_experiment_id, help="experiment id, or 'all'")
    parser.add_argument(
        "--scale", type=positive(float), help="workload scale (default: the driver's)"
    )
    parser.add_argument("--chart", action="store_true", help="append an ASCII chart")
    parser.add_argument(
        "--jobs", type=positive(int), metavar="N", help="parallel sweep over N workers"
    )
    parser.add_argument(
        "--cache-dir", metavar="DIR",
        help=f"parallel-sweep result cache (default {DEFAULT_CACHE_DIR})",
    )
    parser.add_argument(
        "--no-cache", action="store_true", help="parallel sweep without the result cache"
    )
    parser.add_argument(
        "--faults", choices=list(PROFILES), metavar="PROFILE",
        help="install a named fault profile",
    )
    parser.add_argument("--report", metavar="PATH", help="write a perfkit markdown report")
    parser.add_argument("--trace", action="store_true", help="record the request lifecycle")
    parser.add_argument(
        "--trace-out", metavar="PATH", help="trace file (.jsonl for JSONL; implies --trace)"
    )
    parser.add_argument(
        "--trace-limit", type=positive(int), metavar="N",
        help="cap recorded trace events (implies --trace)",
    )
    return parser


def _write_report(result, path) -> None:
    """Render the result as a perfkit markdown report at ``path``."""
    from pathlib import Path

    from repro.perfkit.report import series_report

    Path(path).write_text(series_report(result), encoding="utf-8")
    print(f"report -> {path}", file=sys.stderr)


def _print_chart(result) -> None:
    from repro.errors import ReproError
    from repro.metrics.ascii_chart import render_series_result

    try:
        print()
        print(render_series_result(result))
    except ReproError as exc:
        print(f"(no chart: {exc})")


def _export_trace(tracer: Tracer, path: str) -> None:
    """Write the recorded trace and a stderr summary."""
    from repro.metrics.report import format_time_in_state
    from repro.obs.export import write_chrome_trace, write_jsonl
    from repro.obs.timeline import spans_time_in_state

    if path.endswith(".jsonl"):
        write_jsonl(tracer, path)
    else:
        write_chrome_trace(tracer, path)
    dropped = f" ({tracer.dropped} dropped at --trace-limit)" if tracer.dropped else ""
    print(
        f"trace: {len(tracer.events)} events over {len(tracer.runs)} run(s)"
        f"{dropped} -> {path}",
        file=sys.stderr,
    )
    states = spans_time_in_state(tracer.events)
    if states:
        disks = sorted(states, key=lambda t: int(t[4:]) if t[4:].isdigit() else 0)
        print("media time-in-state (ms, all runs):", file=sys.stderr)
        print(format_time_in_state([states[d] for d in disks]), file=sys.stderr)


def _run(name: str, opts: argparse.Namespace) -> None:
    """Run one experiment, print its rendered result, then the extras."""
    exp = REGISTRY[name]
    trace = opts.trace or opts.trace_out is not None or opts.trace_limit is not None
    parallel = opts.jobs is not None or opts.cache_dir is not None or opts.no_cache
    if trace and parallel:
        print(
            "--trace records in-process; ignoring --jobs/--cache-dir "
            "and running serially",
            file=sys.stderr,
        )
        parallel = False
    tracer = Tracer(limit=opts.trace_limit) if trace else None
    metrics = None
    with ExitStack() as stack:
        if tracer is not None:
            stack.enter_context(tracing(tracer))
        if parallel:
            # Workers resolve and install the fault profile by name.
            cache_dir = None if opts.no_cache else opts.cache_dir or DEFAULT_CACHE_DIR
            result, metrics = sweep_experiment(
                name,
                scale=opts.scale,
                jobs=opts.jobs or 1,
                cache_dir=cache_dir,
                faults=opts.faults,
            )
        else:
            if opts.faults is not None:
                stack.enter_context(fault_profile(get_profile(opts.faults)))
            result = exp.run(**({} if opts.scale is None else {"scale": opts.scale}))
    print(exp.render(result))
    if opts.chart:
        _print_chart(result)
    if opts.report is not None:
        _write_report(result, opts.report)
    if metrics is not None:
        print(metrics.to_text(), file=sys.stderr)
    if tracer is not None:
        _export_trace(tracer, opts.trace_out or f"{name}.trace.json")


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one (or every) experiment; returns the exit status."""
    args = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    if not args:
        parser.print_help()
        return 0
    try:
        opts = parser.parse_args(args)
    except SystemExit as exc:  # argparse already printed the diagnosis
        return int(exc.code or 0)
    names = sorted(REGISTRY) if opts.experiment == "all" else [opts.experiment]
    handler = logging.StreamHandler(sys.stderr)
    level = LOGGER.level
    LOGGER.addHandler(handler)
    LOGGER.setLevel(logging.INFO)
    try:
        for name in names:
            _run(name, opts)
            if opts.experiment == "all":
                print()
    finally:
        LOGGER.removeHandler(handler)
        LOGGER.setLevel(level)
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
