"""Workload generation: Zipf, traces, file sizes, the §6.2 synthetic."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import WorkloadError
from repro.workloads.filesize import (
    constant_file_sizes_blocks,
    sample_file_sizes_blocks,
)
from repro.workloads.synthetic import SyntheticSpec, SyntheticWorkload
from repro.workloads.trace import (
    DiskAccess,
    Trace,
    TraceMeta,
    count_block_accesses,
)
from repro.workloads.zipf import ZipfSampler, zipf_accumulated
from repro.units import KB


class TestZipf:
    def test_uniform_when_alpha_zero(self):
        sampler = ZipfSampler(100, 0.0, rng=np.random.default_rng(0))
        draws = sampler.sample(20_000)
        counts = np.bincount(draws, minlength=100)
        assert counts.min() > 100  # every item drawn plenty

    def test_skew_increases_with_alpha(self):
        rng = np.random.default_rng(0)
        flat = ZipfSampler(1000, 0.2, rng=rng).sample(20_000)
        steep = ZipfSampler(1000, 1.0, rng=np.random.default_rng(0)).sample(20_000)
        assert (steep == 0).sum() > (flat == 0).sum()

    def test_probability_sums_to_one(self):
        sampler = ZipfSampler(50, 0.7)
        total = sum(sampler.probability(i) for i in range(50))
        assert total == pytest.approx(1.0)

    def test_probability_monotone_decreasing(self):
        sampler = ZipfSampler(50, 0.7)
        probs = [sampler.probability(i) for i in range(50)]
        assert probs == sorted(probs, reverse=True)

    def test_accumulated_extremes(self):
        assert zipf_accumulated(0, 100, 0.5) == 0.0
        assert zipf_accumulated(100, 100, 0.5) == pytest.approx(1.0)
        assert zipf_accumulated(200, 100, 0.5) == pytest.approx(1.0)

    def test_accumulated_uniform(self):
        assert zipf_accumulated(10, 100, 0.0) == pytest.approx(0.1)

    def test_accumulated_increases_with_alpha(self):
        low = zipf_accumulated(10, 1000, 0.2)
        high = zipf_accumulated(10, 1000, 1.0)
        assert high > low

    def test_bad_params(self):
        with pytest.raises(WorkloadError):
            ZipfSampler(0, 0.5)
        with pytest.raises(WorkloadError):
            ZipfSampler(10, -0.1)
        with pytest.raises(WorkloadError):
            ZipfSampler(10, float("nan"))
        with pytest.raises(WorkloadError):
            ZipfSampler(10, 0.5).sample(-1)
        with pytest.raises(WorkloadError):
            ZipfSampler(10, 0.5).probability(10)

    @given(
        n=st.integers(min_value=1, max_value=500),
        alpha=st.floats(min_value=0.0, max_value=2.0),
        k=st.integers(min_value=0, max_value=600),
    )
    @settings(max_examples=60)
    def test_accumulated_in_unit_interval_and_monotone(self, n, alpha, k):
        z = zipf_accumulated(k, n, alpha)
        assert 0.0 <= z <= 1.0 + 1e-12
        assert zipf_accumulated(k + 1, n, alpha) >= z - 1e-12


class TestTrace:
    def test_disk_access_validation(self):
        with pytest.raises(WorkloadError):
            DiskAccess([])
        with pytest.raises(WorkloadError):
            DiskAccess([(0, 0)])
        with pytest.raises(WorkloadError):
            DiskAccess([(-1, 4)])

    def test_block_iteration_and_count(self):
        access = DiskAccess([(10, 2), (20, 1)])
        assert list(access.blocks()) == [10, 11, 20]
        assert access.n_blocks == 3

    def test_equality_and_hash(self):
        a = DiskAccess([(1, 2)], is_write=True)
        b = DiskAccess([(1, 2)], is_write=True)
        c = DiskAccess([(1, 2)], is_write=False)
        assert a == b and hash(a) == hash(b)
        assert a != c

    def test_trace_stats(self):
        records = [DiskAccess([(0, 4)]), DiskAccess([(4, 4)], is_write=True)]
        trace = Trace(records, TraceMeta(name="t"))
        assert len(trace) == 2
        assert trace.total_blocks == 8
        assert trace.write_fraction == pytest.approx(0.5)

    def test_save_load_roundtrip(self, tmp_path):
        records = [
            DiskAccess([(0, 4), (10, 1)]),
            DiskAccess([(4, 4)], is_write=True),
        ]
        meta = TraceMeta(name="rt", n_files=2, n_streams=7, coalesce_prob=0.5)
        path = tmp_path / "trace.jsonl"
        Trace(records, meta).save(path)
        loaded = Trace.load(path)
        assert list(loaded) == records
        assert loaded.meta.name == "rt"
        assert loaded.meta.n_streams == 7

    def test_load_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("")
        with pytest.raises(WorkloadError):
            Trace.load(path)
        path.write_text('{"not_meta": 1}\n')
        with pytest.raises(WorkloadError):
            Trace.load(path)

    def test_count_block_accesses(self):
        trace = Trace(
            [DiskAccess([(0, 2)]), DiskAccess([(1, 2)])], TraceMeta()
        )
        counts = count_block_accesses(trace)
        assert counts[0] == 1
        assert counts[1] == 2
        assert counts[2] == 1


class TestFileSizes:
    def test_constant_sizes(self):
        sizes = constant_file_sizes_blocks(10, 16 * KB, 4 * KB)
        assert (sizes == 4).all()

    def test_sub_block_rounds_to_one(self):
        sizes = constant_file_sizes_blocks(3, 100, 4 * KB)
        assert (sizes == 1).all()

    def test_lognormal_mean_approximates_target(self):
        sizes = sample_file_sizes_blocks(
            50_000, 21.5 * KB, 4 * KB, rng=np.random.default_rng(0), sigma=1.2
        )
        mean_bytes = sizes.mean() * 4 * KB
        # ceiling-to-blocks inflates the mean somewhat
        assert 21.5 * KB * 0.8 < mean_bytes < 21.5 * KB * 1.8
        assert sizes.min() >= 1

    def test_max_clamp(self):
        sizes = sample_file_sizes_blocks(
            1000, 64 * KB, 4 * KB, rng=np.random.default_rng(0), max_blocks=8
        )
        assert sizes.max() <= 8

    def test_bad_params(self):
        with pytest.raises(WorkloadError):
            sample_file_sizes_blocks(0, 16 * KB, 4 * KB)
        with pytest.raises(WorkloadError):
            sample_file_sizes_blocks(10, 1, 4 * KB)
        with pytest.raises(WorkloadError):
            sample_file_sizes_blocks(10, 16 * KB, 4 * KB, sigma=0)


class TestSynthetic:
    def test_build_matches_spec(self):
        spec = SyntheticSpec(n_requests=500, n_files=200, file_size_bytes=16 * KB)
        layout, trace = SyntheticWorkload(spec).build()
        assert layout.n_files == 200
        assert len(trace) == 500
        assert all(r.n_blocks == 4 for r in trace)
        assert trace.write_fraction == 0.0

    def test_write_fraction_respected(self):
        spec = SyntheticSpec(n_requests=2000, write_fraction=0.3)
        _, trace = SyntheticWorkload(spec).build()
        assert trace.write_fraction == pytest.approx(0.3, abs=0.04)

    def test_deterministic_per_seed(self):
        spec = SyntheticSpec(n_requests=100, seed=5)
        _, a = SyntheticWorkload(spec).build()
        _, b = SyntheticWorkload(spec).build()
        assert list(a) == list(b)

    def test_periods_share_layout_but_differ_in_draws(self):
        import dataclasses

        spec = SyntheticSpec(n_requests=300, seed=5, period=0)
        layout0, t0 = SyntheticWorkload(spec).build()
        layout1, t1 = SyntheticWorkload(
            dataclasses.replace(spec, period=1)
        ).build()
        assert layout0.footprint_blocks == layout1.footprint_blocks
        assert [f.extents for f in layout0.files] == [
            f.extents for f in layout1.files
        ]
        assert list(t0) != list(t1)

    def test_fragmented_spec_produces_multi_run_records(self):
        spec = SyntheticSpec(
            n_requests=200, n_files=200, file_size_bytes=32 * KB, frag_prob=0.5
        )
        _, trace = SyntheticWorkload(spec).build()
        assert any(len(r.runs) > 1 for r in trace)

    def test_bad_spec_rejected(self):
        with pytest.raises(WorkloadError):
            SyntheticSpec(n_requests=0).validate()
        with pytest.raises(WorkloadError):
            SyntheticSpec(write_fraction=2.0).validate()
