"""End-to-end simulator benchmark: Table 2 sweep, ingested replay, streamed flash replay.

Usage (from the repository root)::

    python -m benchmarks.e2e [--workload W]... [--seed N] [--seconds S]
                             [--trace 0|1] [--trace-dir DIR] [--out FILE] [--smoke]

Each workload runs in a fresh child process (:mod:`benchmarks.e2e.workloads`),
one at a time. Prints ``workload metric value unit`` for every metric,
then one JSON summary line; exits 1 if any correctness check failed,
2 if the simulator's source is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path
from typing import List, Optional

from benchmarks.e2e.metrics import END_TO_END, PER_LAYER, UNITS

ROOT = Path(__file__).resolve().parents[2]
WORKLOADS = ("table2", "fio_closed", "loadgen_ssd")
#: A child that runs longer than this is killed and the run fails.
CHILD_TIMEOUT_S = 600


class ChildFailed(RuntimeError):
    """A workload's child process crashed or timed out."""


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.e2e", description=__doc__.splitlines()[0]
    )
    parser.add_argument(
        "--workload", action="append", choices=WORKLOADS,
        help="workload to run (repeatable; default: all three)",
    )
    parser.add_argument("--seed", type=int, default=1, help="input seed (default 1)")
    parser.add_argument(
        "--seconds", type=float, default=20.0,
        help="measuring budget per workload; replays repeat until it is spent"
        " (--smoke: 0, the minimum repeats only)",
    )
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), default=0,
        help="1: a cProfile pass reporting per-layer metrics instead",
    )
    parser.add_argument(
        "--trace-dir", type=Path, default=ROOT / "benchmarks" / "e2e" / "out",
        help="where a traced run writes <workload>.pstats and layers.json",
    )
    parser.add_argument("--out", type=Path, help="merge the full results into this JSON file")
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for tests")
    return parser.parse_args(argv)


def run_child(name: str, args: argparse.Namespace) -> dict:
    """Run one workload in a fresh interpreter; its parsed JSON result."""
    seconds = 0.0 if args.smoke else args.seconds
    cmd = [
        sys.executable, "-m", "benchmarks.e2e.workloads",
        "--workload", name, "--seed", str(args.seed), "--seconds", str(seconds),
    ]
    if args.smoke:
        cmd.append("--smoke")
    if args.trace:
        cmd += ["--trace-dir", str(args.trace_dir.resolve())]
    path = [str(ROOT / "src"), str(ROOT)]
    if os.environ.get("PYTHONPATH"):
        path.append(os.environ["PYTHONPATH"])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"{name}: timed out after {CHILD_TIMEOUT_S} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"{name}: child exited with status {proc.returncode}")
    return json.loads(lines[-1])


def merge_json(path: Path, key: str, results: List[dict], field: Optional[str]) -> None:
    """Set ``data[key][workload] = result[field]`` in the JSON file at ``path``."""
    data = json.loads(path.read_text()) if path.exists() else {}
    section = data.setdefault(key, {})
    for result in results:
        section[result["workload"]] = result if field is None else result[field]
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


def report(results: List[dict], trace: bool) -> int:
    """Print every metric and the summary line; the exit status."""
    for result in results:
        for name, value in result["metrics"].items():
            print(f"{result['workload']} {name} {value!r} {UNITS[name]}")
        for check, ok in result["checks"].items():
            if not ok:
                print(f"{result['workload']} FAILED check {check}")
    declared = [name for name, _unit, _better in (PER_LAYER if trace else END_TO_END)]
    summary = {}
    for result in results:
        prefix = f"{result['workload']}." if len(results) > 1 else ""
        for name in declared:
            summary[prefix + name] = {"value": result["metrics"][name], "unit": UNITS[name]}
    failed = sum(r["failed"] for r in results)
    line = {
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in results),
        "failed": failed,
        "metrics": summary,
    }
    print(json.dumps(line))
    return 0 if failed == 0 else 1


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"e2e: no simulator source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    results = []
    for name in args.workload or WORKLOADS:
        try:
            results.append(run_child(name, args))
        except ChildFailed as exc:
            print(f"e2e: {exc}", file=sys.stderr)
            return 1
    if args.trace:
        merge_json(args.trace_dir / "layers.json", "workloads", results, "metrics")
    if args.out is not None:
        merge_json(args.out, "traced" if args.trace else "untraced", results, None)
    return report(results, bool(args.trace))
