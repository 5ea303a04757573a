"""Report rendering: golden-diffed smoke report, series reports, CLI."""

import json
from pathlib import Path

from repro.experiments import trace_replay
from repro.experiments.base import SeriesResult
from repro.perfkit.__main__ import main as perfkit_main
from repro.perfkit.report import (
    markdown_to_html,
    series_report,
    smoke_report,
    smoke_workload,
    trajectory_section,
)

GOLDEN = Path(__file__).parent / "golden" / "perfkit_report_smoke.md"
FIXTURE_TRAJECTORY = Path(__file__).parent / "data" / "perfkit_trajectory.json"


def test_smoke_report_matches_golden_byte_for_byte():
    """The acceptance gate: fixed-seed report is byte-stable."""
    md = smoke_report(scale=0.5, trajectory_path=FIXTURE_TRAJECTORY)
    assert md == GOLDEN.read_text(encoding="utf-8")


def test_smoke_report_has_required_sections():
    md = GOLDEN.read_text(encoding="utf-8")
    assert "## Workload phases" in md
    assert "## Attribution ranking" in md
    assert "## Benchmark trajectory" in md
    assert "## Per-phase media attribution" in md


def test_smoke_workload_is_two_phase_by_construction():
    _layout, trace = smoke_workload(scale=0.5)
    half = len(trace.records) // 2
    assert all(not r.is_write for r in trace.records[:half])
    assert any(r.is_write for r in trace.records[half:])
    ts = [r.timestamp_ms for r in trace.records]
    assert ts == sorted(ts)


def test_trajectory_section_missing_file():
    lines = trajectory_section("does/not/exist.json")
    assert any("no trajectory" in line for line in lines)


def test_series_report_renders_sparklines_and_hook():
    result = SeriesResult(
        exp_id="trace_replay",
        title="demo",
        x_label="technique",
        x_values=["Segm", "FOR"],
        series={"mean_lat_ms": [5.0, 3.0], "cache_hit": [0.4, 0.4]},
    )
    md = series_report(result)
    assert "# perfkit report — trace_replay" in md
    assert "## Sparklines" in md
    # the Series block is trace_replay's registered render: the table,
    # then the ranking of FOR (3.0ms) above Segm (5.0ms)
    series = md.split("## Series")[1].split("## Sparklines")[0]
    assert trace_replay.render(result) in series
    ranking = series.split("techniques by delivered mean latency")[1]
    assert ranking.index("FOR") < ranking.index("Segm")


def test_series_report_without_hook_omits_analysis():
    result = SeriesResult(
        exp_id="figZZ", title="t", x_label="x", x_values=[1], series={"y": [2.0]}
    )
    md = series_report(result)
    # an unregistered id has no render of its own: the plain table
    assert f"```text\n{result.to_text()}\n```" in md
    assert "## Experiment analysis" not in md


def test_markdown_to_html_escapes_and_fences():
    html = markdown_to_html("# T<itle\n\n```text\na & b\n```\n\npara <x>\n")
    assert "<h1>T&lt;itle</h1>" in html
    assert "<pre>" in html and "</pre>" in html
    assert "a &amp; b" in html
    assert "<p>para &lt;x&gt;</p>" in html
    assert "<x>" not in html


def test_markdown_to_html_closes_unterminated_fence():
    html = markdown_to_html("```text\ndangling")
    assert html.count("<pre>") == html.count("</pre>") == 1


# -- CLI ---------------------------------------------------------------


def test_cli_report_writes_file(tmp_path, capsys):
    out = tmp_path / "report.md"
    rc = perfkit_main(
        [
            "report",
            "--scale",
            "0.25",
            "--trajectory",
            str(FIXTURE_TRAJECTORY),
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    assert "## Attribution ranking" in out.read_text(encoding="utf-8")


def test_cli_gate_passes_appends_and_fails_on_regression(tmp_path, capsys):
    traj = tmp_path / "traj.json"
    good = tmp_path / "bench.json"
    good.write_text(
        json.dumps(
            {
                "calibration_s": 0.1,
                "scenarios": {"s": {"records_per_s": 1000.0}},
            }
        )
    )
    # seed run: no history, passes, appends
    assert (
        perfkit_main(
            [
                "gate",
                "--bench",
                "sim",
                "--input",
                str(good),
                "--trajectory",
                str(traj),
                "--append",
            ]
        )
        == 0
    )
    assert traj.exists()
    # identical rerun: passes against the seeded history
    assert (
        perfkit_main(
            [
                "gate",
                "--bench",
                "sim",
                "--input",
                str(good),
                "--trajectory",
                str(traj),
                "--append",
            ]
        )
        == 0
    )
    # injected 2x regression: exits 1, does not poison the history
    bad = tmp_path / "bad.json"
    bad.write_text(
        json.dumps(
            {
                "calibration_s": 0.1,
                "scenarios": {"s": {"records_per_s": 500.0}},
            }
        )
    )
    report_md = tmp_path / "gate.md"
    rc = perfkit_main(
        [
            "gate",
            "--bench",
            "sim",
            "--input",
            str(bad),
            "--trajectory",
            str(traj),
            "--append",
            "--report",
            str(report_md),
        ]
    )
    assert rc == 1
    assert "REGRESSED" in report_md.read_text(encoding="utf-8")
    runs = json.loads(traj.read_text())["benches"]["sim"]
    assert len(runs) == 2  # the regressed run was not appended
    assert "REGRESSED" in capsys.readouterr().out


def test_cli_phases_prints_two_phases(capsys):
    assert perfkit_main(["phases", "--scale", "0.5"]) == 0
    out = capsys.readouterr().out
    assert out.count("\n") >= 4  # header + rule + 2 phase rows
    assert "write_frac" in out


def test_cli_usage_and_unknown_command(capsys):
    assert perfkit_main([]) == 0
    assert "usage" in capsys.readouterr().out
    assert perfkit_main(["bogus"]) == 2
    assert perfkit_main(["gate", "--bench", "nope"]) == 2


def test_cli_rejects_malformed_invocations(capsys):
    """Strict parsing: typos and dangling flags exit 2 instead of
    being silently ignored (a misconfigured CI gate must not pass
    vacuously)."""
    # unknown flag
    assert perfkit_main(["report", "--seeed", "3"]) == 2
    # flag with its value missing at end-of-args
    assert perfkit_main(["gate", "--bench", "sim", "--input"]) == 2
    assert perfkit_main(["report", "--out"]) == 2
    # required flag absent entirely
    assert perfkit_main(["gate", "--bench", "sim"]) == 2
    capsys.readouterr()


def test_cli_gate_missing_input_file(tmp_path, capsys):
    rc = perfkit_main(
        ["gate", "--bench", "sim", "--input", str(tmp_path / "absent.json")]
    )
    assert rc == 2
    assert "perfkit:" in capsys.readouterr().err
