"""Run a command, report its peak resident set size, fail above a limit.

    python tools/peak_rss.py --max-mb 120 -- python -m repro table2 --scale 0.05

The command inherits stdin, stdout and stderr, so its output can be
redirected as usual. The report goes to stderr. The peak is
``ru_maxrss`` over the command and its descendants: the largest single
process, not their sum. Exits with the command's status if it failed,
1 if the peak exceeds ``--max-mb``, else 0.
"""

from __future__ import annotations

import argparse
import resource
import shlex
import subprocess
import sys
from typing import List, Optional


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-mb", type=float, help="fail if the peak exceeds this")
    parser.add_argument("command", nargs="+", help="the command to run (after --)")
    args = parser.parse_args(argv)
    status = subprocess.run(args.command).returncode
    peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    limit = f" (limit {args.max_mb:g} MB)" if args.max_mb is not None else ""
    print(f"peak RSS {peak_mb:.1f} MB{limit}: {shlex.join(args.command)}", file=sys.stderr)
    if status != 0:
        return status
    return 1 if args.max_mb is not None and peak_mb > args.max_mb else 0


if __name__ == "__main__":
    sys.exit(main())
