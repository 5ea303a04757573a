"""``tools/peak_rss.py``: a command's peak RSS, gated by a limit."""

import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "peak_rss.py"
#: Holds 64 MB of written (so resident) memory.
ALLOCATE_64MB = "data = b'x' * (64 << 20)"


def peak_rss(*args):
    return subprocess.run(
        [sys.executable, str(TOOL), *args], capture_output=True, text=True, timeout=60
    )


def test_reports_the_commands_peak_and_passes_under_the_limit():
    proc = peak_rss("--max-mb", "1000", "--", sys.executable, "-c", ALLOCATE_64MB)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.startswith("peak RSS ")
    assert 64 <= float(proc.stderr.split()[2]) < 1000


def test_fails_above_the_limit():
    proc = peak_rss("--max-mb", "32", "--", sys.executable, "-c", ALLOCATE_64MB)
    assert proc.returncode == 1


def test_passes_through_the_commands_output_and_failure():
    proc = peak_rss("--", sys.executable, "-c", "print('out'); raise SystemExit(3)")
    assert proc.stdout == "out\n"
    assert proc.returncode == 3
