"""Load generation: specs, shaping, streams, CLI, characterization."""

import math
from itertools import islice

import numpy as np
import pytest

from repro.errors import WorkloadError
from repro.ingest.characterize import characterize
from repro.loadgen import (
    ClientClass,
    PopulationSpec,
    RateShaper,
    ShaperSpec,
    build_layout,
    expand_burst_windows,
    generate_records,
    population_trace,
    preset_population,
    spec_meta,
)
from repro.loadgen.cli import main as loadgen_main
from repro.sim.rng import RandomStreams
from repro.workloads.trace import TimedAccess, open_trace, record_to_json
from repro.workloads.zipf import ZipfSampler

GOLDEN_DIR = "tests/golden"


def small_spec(**overrides):
    defaults = dict(n_clients=400, n_requests=300, n_files=120, mean_file_kb=32.0)
    defaults.update(overrides)
    return preset_population("web3", **defaults)


class TestSpec:
    def test_presets_validate(self):
        for name in ("web3", "uniform"):
            preset_population(name).validate()

    def test_unknown_preset_rejected(self):
        with pytest.raises(WorkloadError, match="unknown population preset"):
            preset_population("nope")

    def test_class_population_sums_exactly(self):
        for n in (1, 7, 999, 12_345):
            spec = preset_population("web3", n_clients=n)
            counts = spec.class_population()
            assert sum(counts.values()) == n

    def test_class_population_follows_weights(self):
        counts = preset_population("web3", n_clients=100_000).class_population()
        assert counts["interactive"] == 70_000
        assert counts["api"] == 25_000
        assert counts["batch"] == 5_000

    def test_offered_rate_scales_linearly(self):
        small = preset_population("web3", n_clients=10_000).offered_rate_req_s()
        large = preset_population("web3", n_clients=1_000_000).offered_rate_req_s()
        assert large == pytest.approx(100 * small, rel=1e-6)

    def test_bad_class_rejected(self):
        with pytest.raises(WorkloadError, match="write_fraction"):
            ClientClass(name="x", write_fraction=1.5).validate()
        with pytest.raises(WorkloadError, match="mean_session_requests"):
            ClientClass(name="x", mean_session_requests=0.5).validate()

    def test_duplicate_class_names_rejected(self):
        cls = ClientClass(name="dup")
        with pytest.raises(WorkloadError, match="duplicate"):
            PopulationSpec(classes=(cls, cls)).validate()

    def test_amplitude_cap(self):
        with pytest.raises(WorkloadError, match="diurnal_amplitude"):
            ShaperSpec(diurnal_period_ms=1000.0, diurnal_amplitude=0.99).validate()

    def test_nan_diurnal_period_rejected(self):
        with pytest.raises(WorkloadError, match="diurnal_period_ms"):
            ShaperSpec(diurnal_period_ms=float("nan")).validate()

    def test_nan_burst_rate_rejected(self):
        with pytest.raises(WorkloadError, match="burst_rate_per_hour"):
            ShaperSpec(burst_rate_per_hour=float("nan")).validate()


class TestRateShaper:
    def test_identity_when_unconfigured(self):
        shaper = RateShaper(ShaperSpec())
        for u in (0.0, 1.5, 100.0, 1e6):
            assert shaper.warp(u) == u

    def test_warp_inverts_cumulative(self):
        spec = ShaperSpec(
            diurnal_period_ms=10_000.0,
            diurnal_amplitude=0.8,
            burst_rate_per_hour=600.0,
            burst_magnitude=5.0,
            burst_duration_ms=2_000.0,
            horizon_ms=120_000.0,
        )
        shaper = RateShaper(spec, seed=3)
        assert shaper.windows  # the schedule actually has bursts
        us = np.cumsum(np.random.default_rng(0).exponential(50.0, size=500))
        last_t = 0.0
        for u in us:
            t = shaper.warp(float(u))
            assert t >= last_t  # warped arrivals stay ordered
            assert shaper.cumulative(t) == pytest.approx(float(u), abs=1e-3)
            last_t = t

    def test_bursts_compress_arrivals(self):
        """Equal u-gaps map to shorter t-gaps inside a burst window."""
        spec = ShaperSpec(
            burst_rate_per_hour=3600.0,  # gap mean 1s, 30s windows
            burst_magnitude=9.0,
            burst_duration_ms=30_000.0,
            horizon_ms=60_000.0,
        )
        shaper = RateShaper(spec, seed=1)
        start, end = shaper.windows[0]
        inside = shaper.cumulative(min(end, start + 10.0)) - shaper.cumulative(start)
        before = shaper.cumulative(start) - shaper.cumulative(max(0.0, start - 10.0))
        assert inside > before  # more warped time accrues during the burst

    def test_burst_schedule_deterministic(self):
        spec = ShaperSpec(burst_rate_per_hour=120.0)
        assert expand_burst_windows(spec, 7) == expand_burst_windows(spec, 7)
        assert expand_burst_windows(spec, 7) != expand_burst_windows(spec, 8)

    def test_diurnal_integral_closed_form(self):
        spec = ShaperSpec(diurnal_period_ms=1000.0, diurnal_amplitude=0.5)
        shaper = RateShaper(spec)
        # Over a whole period the sinusoid integrates to zero.
        assert shaper.cumulative(1000.0) == pytest.approx(1000.0)
        # Quarter period: t + A*(P/2pi)*(1 - cos(pi/2))
        expected = 250.0 + 0.5 * (1000.0 / (2 * math.pi))
        assert shaper.cumulative(250.0) == pytest.approx(expected)


class TestZipfSharing:
    def test_iter_ranks_matches_sample_draw_for_draw(self):
        """One Zipf implementation: the lazy stream consumes the RNG
        exactly like the vectorised ``sample`` call."""
        seed = 99
        lazy = ZipfSampler(500, 0.8, rng=RandomStreams(seed).stream("z"))
        eager = ZipfSampler(500, 0.8, rng=RandomStreams(seed).stream("z"))
        assert list(islice(lazy.iter_ranks(chunk=7), 100)) == list(
            eager.sample(100)
        )

    def test_iter_ranks_rejects_bad_chunk(self):
        with pytest.raises(WorkloadError, match="chunk"):
            next(ZipfSampler(10, 1.0).iter_ranks(chunk=0))


class TestGeneration:
    def test_deterministic_byte_for_byte(self):
        spec = small_spec()
        a = [record_to_json(r) for r in generate_records(spec, 5)]
        b = [record_to_json(r) for r in generate_records(spec, 5)]
        assert a == b

    def test_seed_changes_stream(self):
        spec = small_spec()
        a = [record_to_json(r) for r in generate_records(spec, 5)]
        b = [record_to_json(r) for r in generate_records(spec, 6)]
        assert a != b

    def test_timestamps_nondecreasing_and_capped(self):
        spec = small_spec()
        records = list(generate_records(spec, 2))
        assert len(records) == spec.n_requests
        ts = [r.timestamp_ms for r in records]
        assert all(a <= b for a, b in zip(ts, ts[1:]))
        assert all(isinstance(r, TimedAccess) for r in records)

    def test_records_stay_inside_layout(self):
        spec = small_spec()
        layout = build_layout(spec, 11)
        for record in generate_records(spec, 11, layout=layout):
            for start, length in record.runs:
                assert 0 <= start < layout.total_blocks
                assert length >= 1

    def test_write_only_class_writes(self):
        spec = PopulationSpec(
            name="writers",
            n_clients=50,
            classes=(ClientClass(name="w", write_fraction=1.0),),
            n_requests=80,
            n_files=40,
        )
        assert all(r.is_write for r in generate_records(spec, 1))

    def test_population_scales_offered_rate(self):
        """10x the clients => roughly 10x the arrival rate."""

        def span(n_clients):
            spec = small_spec(n_clients=n_clients, n_requests=250)
            records = list(generate_records(spec, 3))
            return records[-1].timestamp_ms - records[0].timestamp_ms

        ratio = span(200) / span(2000)
        assert 4.0 < ratio < 25.0  # ~10x, loose statistical bounds

    def test_zero_weight_rounding_raises_cleanly(self):
        spec = PopulationSpec(
            name="tiny",
            n_clients=1,
            classes=(
                ClientClass(name="a", weight=1.0),
                ClientClass(name="b", weight=1e-9),
            ),
            n_requests=10,
            n_files=10,
        )
        # class b rounds to zero seats; class a still generates
        assert len(list(generate_records(spec, 1))) == 10

    def test_all_classes_appear(self):
        """Every class with seats eventually emits (merge interleaves)."""
        spec = small_spec(n_requests=400)
        layout, trace = population_trace(spec, 4)
        # batch is 5% of 400 clients = 20 seats; its 256-KB requests are
        # unmistakably larger than interactive/api ones.
        sizes = {sum(n for _, n in r.runs) for r in trace}
        assert len(sizes) > 3

    def test_meta_records_population(self):
        spec = small_spec()
        layout = build_layout(spec, 1)
        meta = spec_meta(spec, layout)
        assert meta.name == "loadgen:web3"
        assert meta.extra["n_clients"] == spec.n_clients
        assert meta.footprint_blocks == layout.footprint_blocks


class TestCharacterization:
    def test_characterize_golden_three_class(self):
        """The small 3-class population's report is pinned byte-for-byte."""
        spec = small_spec()
        report = characterize(
            generate_records(spec, 7), name="loadgen:web3 small"
        ).describe()
        golden = f"{GOLDEN_DIR}/loadgen_stats_small.txt"
        with open(golden) as fh:
            assert report == fh.read().rstrip("\n")

    def test_characterization_deterministic(self):
        spec = small_spec()
        a = characterize(generate_records(spec, 7), name="x").describe()
        b = characterize(generate_records(spec, 7), name="x").describe()
        assert a == b


class TestCli:
    def test_emit_roundtrip(self, tmp_path, capsys):
        out = tmp_path / "pop.jsonl.gz"
        rc = loadgen_main(
            ["emit", "--spec", "web3", "--clients", "300", "--requests", "120",
             "--files", "80", "--seed", "3", str(out)]
        )
        assert rc == 0
        assert "120 records" in capsys.readouterr().out
        meta, records = open_trace(out)
        records = list(records)
        assert meta.name == "loadgen:web3"
        assert len(records) == 120
        assert all(isinstance(r, TimedAccess) for r in records)

    def test_stats_deterministic(self, tmp_path, capsys):
        argv = ["stats", "--spec", "web3", "--clients", "300",
                "--requests", "150", "--files", "80", "--seed", "9"]
        assert loadgen_main(argv) == 0
        first = capsys.readouterr().out
        assert loadgen_main(argv) == 0
        assert capsys.readouterr().out == first
        assert "workload characterization" in first

    def test_emitted_trace_replays(self, tmp_path, small_config, capsys):
        """End to end: emit -> ingest replay path accepts the file."""
        from repro.ingest.cli import main as ingest_main

        out = tmp_path / "pop.jsonl"
        assert loadgen_main(
            ["emit", "--clients", "200", "--requests", "60", "--files", "50",
             str(out)]
        ) == 0
        capsys.readouterr()
        assert ingest_main(
            ["replay", str(out), "--technique", "segm", "--accel", "4"]
        ) == 0
        assert "records=60" in capsys.readouterr().out
