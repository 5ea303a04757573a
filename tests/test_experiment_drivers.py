"""Smoke-run every figure driver at tiny scale; check series shapes."""

import math

import pytest

from repro.experiments import (
    ext_frag,
    fig01,
    fig02,
    fig03,
    fig04,
    fig05,
    fig06,
    fig07,
    fig08,
    fig09,
    fig11,
    table1,
    table2,
    validation,
)


class TestFig01:
    def test_series_and_paper_trends(self):
        result = fig01.run(scale=0.1, frag_points=(0.0, 0.05, 0.2))
        assert result.x_values == [0.0, 5.0, 20.0]
        for size in (2, 4, 8, 16, 32):
            sim = result.get(f"{size}blk_sim")
            # zero fragmentation recovers the full file size
            assert sim[0] == pytest.approx(size, rel=0.01)
            # runs shrink monotonically with fragmentation
            assert sim[0] >= sim[1] >= sim[2]


class TestFig02:
    def test_counts_decrease_with_rank(self):
        result = fig02.run(scale=0.004, ranks=(1, 10, 100))
        for name in ("Web", "Proxy", "File", "zipf(0.43)"):
            series = result.get(name)
            assert series[0] >= series[1] >= series[2]


class TestFig03:
    def test_for_never_loses_and_is_normalized(self):
        result = fig03.run(scale=0.05, file_sizes_kb=(8, 16, 64))
        assert all(v == pytest.approx(1.0) for v in result.get("Segm"))
        for v in result.get("FOR"):
            assert v <= 1.05
        # FOR clearly ahead at 16-KB files
        assert result.get("FOR")[1] < 0.85

    def test_nora_loses_badly_for_large_files(self):
        result = fig03.run(scale=0.05, file_sizes_kb=(16, 128))
        assert result.get("No-RA")[1] > 1.1


class TestFig04:
    def test_for_gains_grow_with_streams(self):
        result = fig04.run(scale=0.1, stream_counts=(64, 512))
        for_series = result.get("FOR")
        assert for_series[0] < 0.9
        assert for_series[1] <= for_series[0] + 0.05
        # and FOR still wins at 1024 streams
        result = fig04.run(scale=0.05, stream_counts=(64, 256, 1024))
        assert all(v < 1.0 for v in result.get("FOR"))


class TestFig05:
    def test_hit_rate_monotone_in_alpha(self):
        result = fig05.run(scale=0.08, alphas=(0.0, 1.0))
        hits = result.get("hdc_hit_rate")
        assert hits[1] > hits[0]

    def test_hdc_helps(self):
        result = fig05.run(scale=0.08, alphas=(0.8,))
        assert result.get("Segm+HDC")[0] < 1.0
        assert result.get("FOR+HDC")[0] < result.get("FOR")[0] + 0.02


class TestFig06:
    def test_for_gains_shrink_with_writes(self):
        result = fig06.run(scale=0.08, write_fractions=(0.0, 0.6))
        for_series = result.get("FOR")
        assert for_series[1] > for_series[0]


class TestServerFigures:
    def test_fig07_reports_four_systems(self):
        result = fig07.run(scale=0.003, units_kb=(16, 64))
        for name in ("Segm", "Segm+HDC", "FOR", "FOR+HDC"):
            series = result.get(name)
            assert len(series) == 2
            assert all(v > 0 for v in series)

    def test_fig07_for_beats_segm(self):
        result = fig07.run(scale=0.003, units_kb=(16,))
        assert result.get("FOR")[0] < result.get("Segm")[0]

    def test_fig08_reports_hit_rate_growth(self):
        result = fig08.run(scale=0.003, hdc_sizes_kb=(256, 2048))
        hits = result.get("hdc_hit_rate")
        assert hits[1] >= hits[0]

    def test_fig09_for_beats_segm_on_proxy(self):
        # below this scale the proxy trace is too short for FOR to win
        result = fig09.run(scale=0.012, units_kb=(64,))
        assert result.get("FOR")[0] < result.get("Segm")[0]

    def test_fig11_for_beats_segm_on_file_server(self):
        result = fig11.run(scale=0.003, units_kb=(128,))
        assert result.get("FOR")[0] < result.get("Segm")[0]

    def test_fig08_infeasible_points_are_nan_not_crash(self):
        # 3.75 MB HDC + FOR bitmap exceeds the 4-MB cache.
        result = fig08.run(scale=0.003, hdc_sizes_kb=(3840,))
        assert math.isnan(result.get("FOR+HDC")[0])


class TestTables:
    def test_table1_runs(self):
        result = table1.run()
        assert len(result.x_values) > 5

    def test_table2_single_server(self):
        result = table2.run(scale=0.004, servers=("Web",))
        assert result.x_values == ["Web"]
        assert result.get("FOR")[0] > 0  # FOR improves on Segm

    def test_validation_experiment(self):
        result = validation.run(scale=0.3)
        assert all(e < 0.1 for e in result.get("error_frac"))
        # at full scale, within the paper's tolerances (8% reads, 3% writes)
        result = validation.run(scale=1.0)
        assert all(e < 0.08 for e in result.get("error_frac"))


class TestExtFrag:
    def test_for_gains_hold_and_blind_pollution_grows(self):
        result = ext_frag.run(scale=0.08, frag_points=(0.0, 0.1, 0.2))
        gains = result.get("FOR_gain")
        # §4: FOR's benefit must not shrink as fragmentation grows
        assert gains[-1] >= gains[0] - 0.05
        # blind read-ahead pollutes more on fragmented layouts
        pollution = result.get("useless_RA_blind")
        assert pollution[-1] > pollution[0]
