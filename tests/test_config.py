"""Configuration validation and Table 1 derived quantities."""


import pytest

from repro.config import (
    ArrayParams,
    BusParams,
    CacheParams,
    DiskParams,
    ReadAheadKind,
    SeekParams,
    SimConfig,
    SsdParams,
    make_config,
    ultrastar_36z15_config,
)
from repro.errors import ConfigError
from repro.faults.profile import FaultProfile, RetryPolicy
from repro.units import KB, MB


class TestTable1Defaults:
    def test_default_matches_paper_table1(self):
        config = ultrastar_36z15_config()
        assert config.array.n_disks == 8
        assert config.disk.capacity_bytes == 18_000_000_000
        assert config.disk.transfer_rate_mb_s == 54.0
        assert config.cache.size_bytes == 4 * MB
        assert config.block_size == 4 * KB
        assert config.cache.segment_size_bytes == 128 * KB
        assert config.cache.n_segments == 27
        assert config.array.striping_unit_bytes == 128 * KB

    def test_rotational_latency_is_2ms(self):
        config = ultrastar_36z15_config()
        assert config.disk.avg_rotational_latency_ms == pytest.approx(2.0)

    def test_bitmap_overhead_matches_paper(self):
        # Table 1: "Disk-resident bitmap: 546 KBytes" (decimal KB).
        config = ultrastar_36z15_config(readahead=ReadAheadKind.FILE_ORIENTED)
        overhead = config.bitmap_overhead_bytes
        assert overhead == pytest.approx(546_000, rel=0.02)

    def test_bitmap_overhead_zero_for_blind(self):
        config = ultrastar_36z15_config(readahead=ReadAheadKind.BLIND)
        assert config.bitmap_overhead_bytes == 0

    def test_bitmap_overhead_ratio_is_0003_percent(self):
        # §4: one bit per 4-KB block = 100%/(8*4096) ~ 0.003%.
        config = ultrastar_36z15_config(readahead=ReadAheadKind.FILE_ORIENTED)
        ratio = config.bitmap_overhead_bytes / config.disk.capacity_bytes
        assert ratio == pytest.approx(1 / (8 * 4096), rel=0.01)

    def test_describe_contains_key_rows(self):
        text = ultrastar_36z15_config().describe()
        assert "Number of disks" in text
        assert "27" in text
        assert "128 KBytes" in text


class TestDerivedQuantities:
    def test_disk_blocks(self):
        config = ultrastar_36z15_config()
        assert config.disk_blocks == 18_000_000_000 // 4096
        assert config.array_blocks == config.disk_blocks * 8

    def test_effective_cache_shrinks_with_hdc(self):
        base = ultrastar_36z15_config()
        hdc = ultrastar_36z15_config(hdc_bytes=2 * MB)
        assert hdc.effective_cache_bytes == base.effective_cache_bytes - 2 * MB
        assert hdc.hdc_blocks == (2 * MB) // (4 * KB)

    def test_effective_segments_capped_by_configured_count(self):
        config = ultrastar_36z15_config()
        assert config.effective_segments == 27
        squeezed = ultrastar_36z15_config(hdc_bytes=2 * MB)
        assert squeezed.effective_segments == (4 * MB - 2 * MB) // (128 * KB)

    def test_for_bitmap_reduces_effective_cache(self):
        blind = ultrastar_36z15_config()
        fo = ultrastar_36z15_config(readahead=ReadAheadKind.FILE_ORIENTED)
        assert fo.effective_cache_bytes < blind.effective_cache_bytes

    def test_with_returns_validated_copy(self):
        config = ultrastar_36z15_config()
        other = config.with_(hdc_bytes=1 * MB)
        assert other.hdc_bytes == 1 * MB
        assert config.hdc_bytes == 0  # original untouched


class TestValidation:
    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError, match="unknown"):
            make_config(bogus=1)

    def test_hdc_cannot_consume_whole_cache(self):
        with pytest.raises(ConfigError):
            make_config(hdc_bytes=4 * MB)

    def test_hdc_must_be_block_multiple(self):
        with pytest.raises(ConfigError):
            make_config(hdc_bytes=4 * KB + 1)

    def test_striping_unit_must_be_block_multiple(self):
        with pytest.raises(ConfigError):
            make_config(array=ArrayParams(striping_unit_bytes=6 * KB + 1))

    def test_zero_disks_rejected(self):
        with pytest.raises(ConfigError):
            make_config(array=ArrayParams(n_disks=0))

    def test_segment_overflow_rejected(self):
        with pytest.raises(ConfigError):
            CacheParams(size_bytes=1 * MB, n_segments=100).validate()

    def test_negative_seek_params_rejected(self):
        with pytest.raises(ConfigError):
            SeekParams(alpha=-1).validate()

    def test_bus_bandwidth_positive(self):
        with pytest.raises(ConfigError):
            BusParams(bandwidth_mb_s=0).validate()

    @pytest.mark.parametrize(
        "cls, field",
        [
            (DiskParams, "rpm"),
            (DiskParams, "transfer_rate_mb_s"),
            (DiskParams, "command_overhead_ms"),
            (SeekParams, "alpha"),
            (SeekParams, "beta"),
            (SeekParams, "gamma"),
            (SeekParams, "delta"),
            (SsdParams, "read_latency_ms"),
            (SsdParams, "write_latency_ms"),
            (SsdParams, "transfer_rate_mb_s"),
            (SsdParams, "command_overhead_ms"),
            (BusParams, "bandwidth_mb_s"),
            (BusParams, "per_command_overhead_ms"),
            (SimConfig, "anticipatory_wait_ms"),
            (RetryPolicy, "backoff_base_ms"),
            (RetryPolicy, "backoff_cap_ms"),
            (RetryPolicy, "command_timeout_ms"),
            (FaultProfile, "slow_factor"),
            (FaultProfile, "mtbf_ms"),
            (FaultProfile, "repair_ms"),
            (FaultProfile, "horizon_ms"),
        ],
        ids=lambda v: v if isinstance(v, str) else v.__name__,
    )
    def test_nan_fails_every_float_bound(self, cls, field):
        """NaN compares false both ways, so a ``x < 0`` guard lets it
        through (a NaN bus overhead used to replay to ``io_time = nan``)."""
        with pytest.raises(ConfigError):
            cls(**{field: float("nan")}).validate()

    def test_disk_geometry_plausibility(self):
        with pytest.raises(ConfigError):
            DiskParams(sector_size=100).validate()

    def test_for_bitmap_plus_hdc_can_exhaust_cache(self):
        # 3.5 MB HDC + ~533 KB bitmap > 4 MB cache: must be rejected.
        with pytest.raises(ConfigError):
            make_config(
                readahead=ReadAheadKind.FILE_ORIENTED,
                hdc_bytes=3584 * KB,
            )

    @pytest.mark.parametrize(
        "changes",
        [
            {"readahead": "file_oriented"},
            {"scheduler": "fcfs"},
            {"cache": CacheParams(organization="block")},
            {"cache": CacheParams(segment_policy="fifo")},
            {"cache": CacheParams(block_policy="lru")},
        ],
        ids=["readahead", "scheduler", "organization", "segment_policy", "block_policy"],
    )
    def test_enum_field_rejects_its_value_as_a_string(self, changes):
        """Components are picked by identity against enum members, so a
        string spelling of a valid value must fail loudly rather than
        fall through to a default (or skip FOR's bitmap charge)."""
        with pytest.raises(ConfigError, match="member"):
            make_config(**changes)

    def test_table1_segment_variants(self):
        # Table 1: segments of 128/256/512 KB come as 27/13/6.
        for seg_kb, count in ((128, 27), (256, 13), (512, 6)):
            cache = CacheParams(
                segment_size_bytes=seg_kb * KB, n_segments=count
            )
            cache.validate()
            config = make_config(cache=cache)
            assert config.effective_segments == count
