"""Exact per-record work of the end-to-end benchmark's smoke run.

Runs ``python -m benchmarks.e2e --smoke --trace 1`` and compares its
deterministic values for all three workloads exactly against
``tests/data/work_counts_smoke.json``: every layer's calls per record,
simulator events per record, and the model counters read off the
results. Self-time shares are host timings and are not compared.

A change that adds or removes work per record, even one call, fails
here. If the change is intended, the failure message gives the ``cp``
command that re-baselines the file; say why in the change log.

Builtin call counts can shift between Python minor versions, so the
file records the version it was made on. On any other version only
the events and model counters are compared.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from benchmarks.e2e.metrics import MODEL_COUNTERS

ROOT = Path(__file__).resolve().parents[1]
EXPECTED = ROOT / "tests" / "data" / "work_counts_smoke.json"
PYTHON = f"{sys.version_info.major}.{sys.version_info.minor}"
COUNTERS = {"sim.events_per_rec"} | {name for name, _unit, _better in MODEL_COUNTERS}


def _is_work(key: str) -> bool:
    """Whether ``workload.metric`` is a deterministic count."""
    metric = key.split(".", 1)[1]
    return metric.endswith(".calls_per_rec") or metric in COUNTERS


def test_smoke_work_counts_match_committed_file(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "benchmarks.e2e", "--smoke", "--trace", "1",
         "--trace-dir", str(tmp_path)],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True,
    )
    summary = json.loads(proc.stdout.splitlines()[-1])
    assert summary["correct"], proc.stdout
    fresh = {key: m["value"] for key, m in summary["metrics"].items() if _is_work(key)}

    expected = json.loads(EXPECTED.read_text())
    same_python = expected["python"] == PYTHON
    old, new = (
        {k: v for k, v in counts.items() if same_python or not k.endswith(".calls_per_rec")}
        for counts in (expected["counts"], fresh)
    )
    if new != old:
        out = tmp_path / EXPECTED.name
        out.write_text(
            json.dumps({"python": PYTHON, "counts": fresh}, indent=2, sort_keys=True) + "\n"
        )
        changed = "\n".join(
            f"  {key}: {old.get(key)} -> {new.get(key)}"
            for key in sorted(old.keys() | new.keys())
            if old.get(key) != new.get(key)
        )
        pytest.fail(
            f"per-record work changed (Python {PYTHON}, file made on "
            f"{expected['python']}):\n{changed}\n"
            f"If intended, re-baseline with:\n  cp {out} {EXPECTED.relative_to(ROOT)}",
            pytrace=False,
        )
