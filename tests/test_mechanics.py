"""Seek, rotation, transfer and combined service-time models."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.config import DiskParams, SeekParams
from repro.errors import ConfigError
from repro.geometry.disk_geometry import DiskGeometry
from repro.mechanics.rotation import RotationModel
from repro.mechanics.seek import SeekModel, fit_seek_params
from repro.mechanics.service import HddDeviceModel
from repro.mechanics.transfer import TransferModel
from repro.units import KB


@pytest.fixture
def paper_seek():
    return SeekModel(SeekParams())


class TestSeekModel:
    def test_zero_distance_is_free(self, paper_seek):
        assert paper_seek.seek_time(0) == 0.0

    def test_short_regime_sqrt_law(self, paper_seek):
        p = paper_seek.params
        assert paper_seek.seek_time(100) == pytest.approx(
            p.alpha + p.beta * math.sqrt(100)
        )

    def test_long_regime_linear_law(self, paper_seek):
        p = paper_seek.params
        assert paper_seek.seek_time(5000) == pytest.approx(p.gamma + p.delta * 5000)

    def test_boundary_at_theta(self, paper_seek):
        p = paper_seek.params
        assert paper_seek.seek_time(p.theta) == pytest.approx(
            p.alpha + p.beta * math.sqrt(p.theta)
        )
        assert paper_seek.seek_time(p.theta + 1) == pytest.approx(
            p.gamma + p.delta * (p.theta + 1)
        )

    def test_negative_distance_rejected(self, paper_seek):
        with pytest.raises(ConfigError):
            paper_seek.seek_time(-1)

    @given(st.integers(min_value=1, max_value=100_000))
    def test_monotone_nondecreasing(self, n):
        model = SeekModel(SeekParams())
        assert model.seek_time(n + 1) >= model.seek_time(n) - 1e-12

    def test_average_seek_matches_datasheet(self):
        """The fitted curve must reproduce the 36Z15's 3.4-ms average."""
        disk = DiskParams()
        geometry = DiskGeometry(disk, 4 * KB)
        avg = SeekModel(disk.seek).average_seek_time(geometry.n_cylinders)
        assert avg == pytest.approx(3.4, rel=0.15)

    def test_average_seek_degenerate_cases(self, paper_seek):
        assert paper_seek.average_seek_time(0) == 0.0
        assert paper_seek.average_seek_time(1) == 0.0

    def test_max_seek_is_full_stroke(self, paper_seek):
        assert paper_seek.max_seek_time(1000) == paper_seek.seek_time(999)


class TestSeekFit:
    def test_recovers_known_parameters(self):
        true = SeekParams(alpha=1.0, beta=0.05, gamma=2.0, delta=0.001, theta=500)
        model = SeekModel(true)
        distances = list(range(1, 2000, 7))
        times = [model.seek_time(d) for d in distances]
        fitted = fit_seek_params(distances, times, theta=500)
        assert fitted.alpha == pytest.approx(true.alpha, abs=1e-6)
        assert fitted.beta == pytest.approx(true.beta, abs=1e-6)
        assert fitted.gamma == pytest.approx(true.gamma, abs=1e-6)
        assert fitted.delta == pytest.approx(true.delta, abs=1e-9)

    def test_fit_tolerates_noise(self):
        rng = np.random.default_rng(0)
        true = SeekParams()
        model = SeekModel(true)
        distances = list(range(1, 5000, 11))
        times = [model.seek_time(d) + rng.normal(0, 0.01) for d in distances]
        fitted = fit_seek_params(distances, times, theta=true.theta)
        assert fitted.alpha == pytest.approx(true.alpha, rel=0.1)
        assert fitted.delta == pytest.approx(true.delta, rel=0.1)

    def test_fit_needs_samples_both_sides(self):
        with pytest.raises(ConfigError):
            fit_seek_params([1, 2, 3], [1.0, 1.1, 1.2], theta=500)

    def test_fit_rejects_nonpositive_distances(self):
        with pytest.raises(ConfigError):
            fit_seek_params([0, 1, 600, 700], [0, 1, 2, 3], theta=500)


class TestRotation:
    def test_mean_is_half_rotation(self):
        disk = DiskParams()
        model = RotationModel(disk, rng=np.random.default_rng(0))
        samples = [model.latency() for _ in range(4000)]
        assert np.mean(samples) == pytest.approx(2.0, rel=0.05)
        assert 0.0 <= min(samples)
        assert max(samples) <= disk.rotation_ms

    def test_deterministic_mode_returns_mean(self):
        model = RotationModel(DiskParams(), deterministic=True)
        assert model.latency() == pytest.approx(2.0)
        assert model.latency() == model.latency()


class TestTransfer:
    def test_rate_matches_datasheet(self):
        disk = DiskParams()
        model = TransferModel(disk, 4 * KB)
        # 128 KB at 54 MB/s ~ 2.43 ms
        assert model.transfer_time(32) == pytest.approx(
            32 * 4096 / 54_000, rel=1e-9
        )

    def test_zero_blocks_is_free(self):
        assert TransferModel(DiskParams(), 4 * KB).transfer_time(0) == 0.0

    def test_negative_rejected(self):
        with pytest.raises(ConfigError):
            TransferModel(DiskParams(), 4 * KB).transfer_time(-1)

    def test_track_switch_penalty_counted(self):
        disk = DiskParams()
        geometry = DiskGeometry(disk, 4 * KB)
        model = TransferModel(disk, 4 * KB, geometry, track_switch_ms=0.5)
        per_track = geometry.blocks_per_track
        base = TransferModel(disk, 4 * KB).transfer_time(per_track + 1)
        assert model.transfer_time(per_track + 1, start_block=0) == pytest.approx(
            base + 0.5
        )


class TestServiceTime:
    def test_components_add_up(self):
        disk = DiskParams()
        model = HddDeviceModel(disk, 4 * KB, deterministic_rotation=True)
        t = model.breakdown(from_block=0, start_block=0, n_blocks=32).total_ms
        expected = (
            disk.command_overhead_ms
            + 0.0  # same cylinder
            + 2.0
            + 32 * 4096 / 54_000
        )
        assert t == pytest.approx(expected)

    def test_expected_service_time_uses_average_seek(self):
        disk = DiskParams()
        model = HddDeviceModel(disk, 4 * KB, deterministic_rotation=True)
        t = model.expected_service_time(32)
        assert t == pytest.approx(0.1 + 3.4 + 2.0 + 32 * 4096 / 54_000, rel=0.1)

    def test_larger_reads_take_longer(self):
        model = HddDeviceModel(DiskParams(), 4 * KB, deterministic_rotation=True)
        t_small = model.breakdown(0, 1000, 4).total_ms
        t_large = model.breakdown(0, 1000, 32).total_ms
        assert t_large > t_small
