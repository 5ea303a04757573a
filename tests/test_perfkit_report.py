"""Report rendering: golden-diffed smoke report, series reports, CLI."""

from pathlib import Path

from repro.experiments import trace_replay
from repro.experiments.base import SeriesResult
from repro.perfkit.__main__ import main as perfkit_main
from repro.perfkit.report import (
    markdown_to_html,
    series_report,
    smoke_report,
    smoke_workload,
)

GOLDEN = Path(__file__).parent / "golden" / "perfkit_report_smoke.md"


def test_smoke_report_matches_golden_byte_for_byte():
    """The acceptance gate: fixed-seed report is byte-stable."""
    md = smoke_report(scale=0.5)
    assert md == GOLDEN.read_text(encoding="utf-8")


def test_smoke_report_has_required_sections():
    md = GOLDEN.read_text(encoding="utf-8")
    assert "## Workload phases" in md
    assert "## Attribution ranking" in md
    assert "## Per-phase media attribution" in md


def test_smoke_workload_is_two_phase_by_construction():
    _layout, trace = smoke_workload(scale=0.5)
    half = len(trace.records) // 2
    assert all(not r.is_write for r in trace.records[:half])
    assert any(r.is_write for r in trace.records[half:])
    ts = [r.timestamp_ms for r in trace.records]
    assert ts == sorted(ts)


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
    rc = perfkit_main(["report", "--scale", "0.25", "--out", str(out)])
    assert rc == 0
    assert "## Attribution ranking" in out.read_text(encoding="utf-8")


def test_cli_phases_prints_two_phases(capsys):
    assert perfkit_main(["phases", "--scale", "0.5"]) == 0
    out = capsys.readouterr().out
    assert out.count("\n") >= 4  # header + rule + 2 phase rows
    assert "write_frac" in out


def test_cli_usage_and_unknown_command(capsys):
    assert perfkit_main([]) == 0
    assert "usage" in capsys.readouterr().out
    assert perfkit_main(["bogus"]) == 2
    assert perfkit_main(["phases", "--window", "nope"]) == 2


def test_cli_rejects_malformed_invocations(capsys):
    """Strict parsing: typos, dangling flags and bad values exit 2 with
    usage on stderr instead of being ignored or ending in a traceback."""
    for argv in (
        ["report", "--seeed", "3"],  # unknown flag
        ["phases", "--window"],  # value missing at end-of-args
        ["phases", "--scale"],
        ["report", "--out"],
        ["phases", "--scale", "nan"],  # --scale must be positive and finite
        ["report", "--scale", "inf"],
        ["phases", "--scale", "0"],
        ["report", "--scale", "-1"],
    ):
        assert perfkit_main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "" and "usage:" in captured.err, argv
