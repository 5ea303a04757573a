"""CLI: ``python -m repro.perfkit <command>``.

Commands:

* ``report`` — render the fixed-seed smoke-sweep report (markdown; or
  HTML with ``--html``). Byte-stable for a given ``--seed``/``--scale``,
  which the golden test relies on.
* ``phases`` — phase-detect the smoke workload and print the table
  (a quick detector sanity check without running the simulator).

Argument parsing is strict argparse: an unknown flag, a flag with a
missing value, or a ``--scale`` that is not a positive finite number
exits 2 with a usage message instead of being silently ignored.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional, Sequence

from repro.errors import ReproError
from repro.experiments.cli import positive
from repro.perfkit.phases import detect_phases, phase_table
from repro.perfkit.report import (
    SMOKE_SEED,
    SMOKE_WINDOW,
    markdown_to_html,
    smoke_report,
    smoke_workload,
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.perfkit",
        description="performance analytics: reports and phase detection",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    report = sub.add_parser(
        "report", help="render the fixed-seed smoke-sweep report"
    )
    report.add_argument("--seed", type=int, default=SMOKE_SEED)
    report.add_argument("--scale", type=positive(float), default=1.0)
    report.add_argument("--out", default=None, help="write here instead of stdout")
    report.add_argument("--html", action="store_true")

    phases = sub.add_parser(
        "phases", help="phase-detect the smoke workload and print the table"
    )
    phases.add_argument("--seed", type=int, default=SMOKE_SEED)
    phases.add_argument("--scale", type=positive(float), default=1.0)
    phases.add_argument("--window", type=int, default=SMOKE_WINDOW)
    return parser


def _cmd_report(args: argparse.Namespace) -> int:
    text = smoke_report(scale=args.scale, seed=args.seed)
    if args.html:
        text = markdown_to_html(text)
    if args.out is not None:
        Path(args.out).write_text(text, encoding="utf-8")
        print(f"report -> {args.out}", file=sys.stderr)
    else:
        print(text, end="")
    return 0


def _cmd_phases(args: argparse.Namespace) -> int:
    _layout, trace = smoke_workload(scale=args.scale, seed=args.seed)
    phases = detect_phases(trace.records, window_records=args.window)
    print(phase_table(phases))
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    if not args:
        parser.print_help()
        return 0
    try:
        namespace = parser.parse_args(args)
    except SystemExit as exc:  # argparse already printed the diagnosis
        return int(exc.code or 0)
    handlers = {"report": _cmd_report, "phases": _cmd_phases}
    try:
        return handlers[namespace.command](namespace)
    except (ReproError, OSError) as exc:
        print(f"perfkit: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
