"""Smoke tests of the end-to-end benchmark: ``PYTHONPATH=src pytest benchmarks/e2e``."""

from __future__ import annotations

import json
import subprocess
import sys

import pytest

from benchmarks.e2e import cli, workloads
from benchmarks.e2e.metrics import END_TO_END, MODEL_COUNTERS, PER_LAYER, model_counters
from repro.experiments import table2
from repro.workloads.trace import Trace

SPEC = json.loads((cli.ROOT / "BENCHMARK.json").read_text())


def _run_cli(out, *extra):
    proc = subprocess.run(
        [sys.executable, "-m", "benchmarks.e2e", "--smoke", "--out", str(out), *extra],
        cwd=cli.ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines(), json.loads(out.read_text())


@pytest.fixture(scope="module")
def untraced(tmp_path_factory):
    return _run_cli(tmp_path_factory.mktemp("untraced") / "out.json")


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """Two traced smoke runs, each workload in a fresh process."""
    runs = []
    for i in range(2):
        tmp = tmp_path_factory.mktemp(f"traced{i}")
        runs.append(_run_cli(tmp / "out.json", "--trace", "1", "--trace-dir", str(tmp)))
        assert (tmp / "layers.json").exists()
        assert all((tmp / f"{w}.pstats").exists() for w in cli.WORKLOADS)
    return runs


def _counters(result):
    return {name: result["metrics"][name] for name, _u, _b in MODEL_COUNTERS}


def test_benchmark_json_declares_the_emitted_metrics():
    assert [w["name"] for w in SPEC["workloads"]] == list(cli.WORKLOADS)
    assert list(workloads.WORKLOADS) == list(cli.WORKLOADS)
    for key, table in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        declared = [(m["name"], m["unit"], m["better"]) for m in SPEC[key]]
        assert declared == list(table)


def _assert_emitted(lines, key):
    summary = json.loads(lines[-1])
    assert summary["correct"] and summary["failed"] == 0 and summary["attempted"] > 0
    expected = {f"{w}.{m['name']}" for w in cli.WORKLOADS for m in SPEC[key]}
    assert set(summary["metrics"]) == expected
    for workload in cli.WORKLOADS:
        for metric in SPEC[key]:
            name, unit = metric["name"], metric["unit"]
            assert summary["metrics"][f"{workload}.{name}"]["unit"] == unit
            assert any(
                line.startswith(f"{workload} {name} ") and line.endswith(f" {unit}")
                for line in lines
            )


def test_untraced_run_emits_every_end_to_end_metric(untraced):
    _assert_emitted(untraced[0], "end_to_end")


def test_traced_run_emits_every_per_layer_metric(traced):
    _assert_emitted(traced[0][0], "per_layer")


def test_seed_one_repeats_and_seed_two_changes_model_counters(untraced):
    _lines, data = untraced
    for name, workload_cls in workloads.WORKLOADS.items():
        by_seed = {}
        for seed in (1, 2):
            hooks = workloads.Hooks()
            with hooks.installed():
                unit = workload_cls(seed, workloads.SMOKE, hooks).unit()
            by_seed[seed] = model_counters(unit.replays)
        assert by_seed[1] == _counters(data["untraced"][name])
        assert by_seed[2] != by_seed[1]


def _fails(result, capsys):
    assert result["failed"] > 0 and result["metrics"]["failed_frac"] > 0
    assert cli.report([result], trace=False) != 0
    assert json.loads(capsys.readouterr().out.splitlines()[-1])["correct"] is False


def test_corrupted_expected_table_fails(tmp_path, monkeypatch, capsys):
    scale = workloads.SMOKE.table2_scale
    text = table2.run(scale=scale, seed=1).to_text() + "\n"
    expected = tmp_path / "table2.txt"
    monkeypatch.setitem(workloads.EXPECTED_TABLES, (scale, 1), expected)

    expected.write_text(text)
    good = workloads.run("table2", 1, 0, True, None)
    assert good["checks"] == {"table2.values_finite": True, "table2.matches_expected": True}
    assert good["failed"] == 0

    expected.write_text(text.replace("Web ", "Web0", 1))
    bad = workloads.run("table2", 1, 0, True, None)
    assert bad["checks"]["table2.matches_expected"] is False
    _fails(bad, capsys)


def test_dropped_record_fails(monkeypatch, capsys):
    original = workloads.tiled_fio_trace

    def dropping(config, n_records, seed):
        trace = original(config, n_records, seed)
        return Trace(trace.records[:-1], trace.meta)

    monkeypatch.setattr(workloads, "tiled_fio_trace", dropping)
    result = workloads.run("fio_closed", 1, 0, True, None)
    assert all(result["checks"].values())
    _fails(result, capsys)


def test_self_shares_sum_to_one(traced):
    for _lines, data in traced:
        for name, result in data["traced"].items():
            shares = [v for k, v in result["metrics"].items() if k.endswith(".self_share")]
            assert sum(shares) == pytest.approx(1.0, abs=0.01), name


def test_traced_call_counts_repeat_exactly(traced):
    (_l1, first), (_l2, second) = traced
    for name in cli.WORKLOADS:
        a, b = first["traced"][name]["metrics"], second["traced"][name]["metrics"]
        counts = [k for k in a if k.endswith("_per_rec")]
        assert counts and {k: a[k] for k in counts} == {k: b[k] for k in counts}, name
