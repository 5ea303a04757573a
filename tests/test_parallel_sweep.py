"""Parallel sweep runner, content-addressed result cache, CLI flags."""

import inspect
import json
import math

import pytest

from repro.errors import ConfigError
from repro.experiments import cli
from repro.experiments.base import SeriesResult, merge_series_results
from repro.experiments.cache import ResultCache, code_fingerprint
from repro.experiments.parallel import (
    Cell,
    ParallelSweep,
    expand_cells,
    run_cell,
    sweep_experiment,
)
from repro.experiments.registry import REGISTRY

# restricted axes keep the simulation-backed checks fast
FIG01_POINTS = (0.0, 0.05)


class TestExpansion:
    def test_default_axis_values(self):
        cells = expand_cells("fig01")
        assert len(cells) == 8
        assert [c.index for c in cells] == list(range(8))
        assert all(c.axis == "frag_points" for c in cells)

    def test_values_override(self):
        cells = expand_cells("fig03", scale=0.1, seed=7, values=[4, 16])
        assert [c.value for c in cells] == [4, 16]
        assert cells[0].run_kwargs() == {
            "scale": 0.1, "seed": 7, "file_sizes_kb": [4],
        }

    def test_axisless_experiments_are_single_cells(self):
        for name in ("fig02", "table1", "validation"):
            cells = expand_cells(name)
            assert len(cells) == 1
            assert cells[0].axis is None
            assert cells[0].run_kwargs() == {}

    def test_unknown_experiment_raises(self):
        with pytest.raises(ConfigError):
            expand_cells("fig99")

    def test_every_runner_has_a_sweep_spec(self):
        # an axis comes with its sweep points; an axis-less record has none
        for name, exp in REGISTRY.items():
            assert bool(exp.axis) == bool(exp.values), name

    def test_axis_names_are_real_run_kwargs(self):
        for name, exp in REGISTRY.items():
            if exp.axis is None:
                continue
            params = inspect.signature(exp.run).parameters
            assert exp.axis in params, f"{name}: {exp.axis}"

    def test_default_values_match_driver_defaults(self):
        for name, exp in REGISTRY.items():
            if exp.axis is None:
                continue
            default = inspect.signature(exp.run).parameters[exp.axis].default
            if default is None:  # table2: None means "all servers"
                continue
            assert tuple(default) == exp.values, name


class TestMerge:
    def part(self, xs, values, notes=()):
        result = SeriesResult("e", "t", "x", x_values=list(xs))
        for name, vals in values.items():
            result.series[name] = list(vals)
        result.notes = list(notes)
        return result

    def test_concatenates_in_order(self):
        merged = merge_series_results([
            self.part([1], {"a": [10.0], "b": [0.1]}),
            self.part([2], {"a": [20.0], "b": [0.2]}),
        ])
        assert merged.x_values == [1, 2]
        assert merged.series == {"a": [10.0, 20.0], "b": [0.1, 0.2]}

    def test_notes_deduplicated_preserving_order(self):
        merged = merge_series_results([
            self.part([1], {}, notes=["shared", "first"]),
            self.part([2], {}, notes=["shared", "second"]),
        ])
        assert merged.notes == ["shared", "first", "second"]

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            merge_series_results([])


class TestByteIdentity:
    def serial(self, name, **kwargs):
        return REGISTRY[name].run(**kwargs)

    def test_fig01_inline_matches_serial(self):
        serial = self.serial(
            "fig01", scale=0.02, frag_points=list(FIG01_POINTS)
        )
        par = ParallelSweep(
            "fig01", scale=0.02, jobs=1, values=FIG01_POINTS
        ).run()
        assert par.to_json() == serial.to_json()

    def test_fig01_pool_matches_serial(self):
        serial = self.serial(
            "fig01", scale=0.02, frag_points=list(FIG01_POINTS)
        )
        par = ParallelSweep(
            "fig01", scale=0.02, jobs=2, values=FIG01_POINTS
        ).run()
        assert par.to_json() == serial.to_json()

    def test_simulator_backed_cells_match_serial(self):
        # ext_frag replays the full event-driven stack per cell
        serial = self.serial(
            "ext_frag", scale=0.01, frag_points=[0.0, 0.2]
        )
        par = ParallelSweep(
            "ext_frag", scale=0.01, jobs=2, values=[0.0, 0.2]
        ).run()
        assert par.to_json() == serial.to_json()

    def test_single_cell_experiment_matches_serial(self):
        serial = self.serial("validation", scale=0.2)
        par = ParallelSweep("validation", scale=0.2, jobs=2).run()
        assert par.to_json() == serial.to_json()


class TestResultCache:
    def test_second_sweep_is_all_hits_and_identical(self, tmp_path):
        first, m1 = sweep_experiment(
            "fig01", scale=0.02, jobs=1,
            cache_dir=tmp_path, values=FIG01_POINTS,
        )
        second, m2 = sweep_experiment(
            "fig01", scale=0.02, jobs=1,
            cache_dir=tmp_path, values=FIG01_POINTS,
        )
        assert m1.cache_hits == 0 and m1.cache_misses == len(FIG01_POINTS)
        assert m2.cache_hits == len(FIG01_POINTS) and m2.cache_misses == 0
        assert second.to_json() == first.to_json()

    def test_corrupt_entry_is_recomputed(self, tmp_path):
        _, m1 = sweep_experiment(
            "fig01", scale=0.02, jobs=1,
            cache_dir=tmp_path, values=FIG01_POINTS,
        )
        for path in tmp_path.rglob("*.json"):
            path.write_text("{not json", encoding="utf-8")
        result, m2 = sweep_experiment(
            "fig01", scale=0.02, jobs=1,
            cache_dir=tmp_path, values=FIG01_POINTS,
        )
        assert m2.cache_misses == len(FIG01_POINTS)
        assert result.x_values  # recomputed fine

    def test_key_varies_with_cell_identity(self):
        base = Cell("fig01", 0, "frag_points", 0.05, scale=0.1, seed=1)
        variants = [
            Cell("fig01", 0, "frag_points", 0.08, scale=0.1, seed=1),
            Cell("fig01", 0, "frag_points", 0.05, scale=0.2, seed=1),
            Cell("fig01", 0, "frag_points", 0.05, scale=0.1, seed=2),
            Cell("fig03", 0, "file_sizes_kb", 0.05, scale=0.1, seed=1),
        ]
        base_key = ResultCache.key_for(base.cache_payload())
        for other in variants:
            assert ResultCache.key_for(other.cache_payload()) != base_key

    def test_key_is_deterministic(self):
        cell = Cell("fig01", 3, "frag_points", 0.05, scale=0.1, seed=1)
        assert ResultCache.key_for(cell.cache_payload()) == ResultCache.key_for(
            cell.cache_payload()
        )

    def test_code_fingerprint_distinguishes_drivers(self):
        # per-driver fingerprints: editing fig07 must not dirty fig03
        assert code_fingerprint("fig03") != code_fingerprint("fig07")

    def test_round_trips_nan(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("ab" * 32, {"series": {"y": [float("nan"), 1.0]}})
        loaded = cache.get("ab" * 32)
        assert math.isnan(loaded["series"]["y"][0])
        assert loaded["series"]["y"][1] == 1.0

    def test_miss_returns_none(self, tmp_path):
        assert ResultCache(tmp_path).get("00" * 32) is None


class TestRunCell:
    def test_returns_index_wall_and_dict(self):
        index, wall_s, data = run_cell(
            Cell("fig01", 4, "frag_points", 0.05, scale=0.02, seed=1)
        )
        assert index == 4
        assert wall_s >= 0.0
        assert data["exp_id"] == "fig01"
        assert data["x_values"] == [5.0]
        # the dict is what crosses the process boundary: JSON-safe
        json.dumps(data)


class TestSweepValidation:
    def test_jobs_must_be_positive(self):
        with pytest.raises(ConfigError):
            ParallelSweep("fig01", jobs=0)


class TestCli:
    def test_parallel_flags_round_trip(self, tmp_path, capsys):
        cache_dir = tmp_path / "cache"
        argv = [
            "validation", "--scale", "0.2",
            "--jobs", "2", "--cache-dir", str(cache_dir),
        ]
        assert cli.main(argv) == 0
        first = capsys.readouterr()
        serial = REGISTRY["validation"].run(scale=0.2)
        assert first.out.rstrip("\n") == serial.to_text()
        assert "0 hit / 1 miss" in first.err

        assert cli.main(argv) == 0
        second = capsys.readouterr()
        assert second.out == first.out
        assert "1 hit / 0 miss" in second.err

    def test_no_cache_flag_skips_cache(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert cli.main(["validation", "--scale", "0.2", "--no-cache"]) == 0
        capsys.readouterr()
        assert not (tmp_path / cli.DEFAULT_CACHE_DIR).exists()

    def test_serial_path_unchanged_without_flags(self, capsys):
        assert cli.main(["validation", "--scale", "0.2"]) == 0
        out = capsys.readouterr().out
        assert out.rstrip("\n") == REGISTRY["validation"].run(scale=0.2).to_text()

    def test_usage_mentions_parallel_flags(self, capsys):
        cli.main(["--help"])
        out = capsys.readouterr().out
        assert "--jobs" in out and "--cache-dir" in out and "--no-cache" in out
