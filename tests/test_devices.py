"""The device-model layer: presets, per-kind assembly, flash models.

Two contracts are pinned here:

* :class:`~repro.host.system.System` builds the right model per
  :class:`DeviceKind` and the named presets carry the paper's Table 1
  figures;
* :class:`FlashServiceModel` is flat (address-independent), asymmetric
  (writes cost more than reads) and seekless, and its
  :class:`FlatGeometry` collapses the cylinder space so cylinder-aware
  schedulers degrade to FIFO.
"""

import pytest

from repro.config import (
    DEVICE_PRESETS,
    GENERIC_NVME,
    GENERIC_SSD,
    ULTRASTAR_36Z15,
    DeviceKind,
    DiskParams,
    SsdParams,
    device_preset,
    ultrastar_36z15_config,
)
from repro.devices import FlashServiceModel, FlatGeometry, HddDeviceModel
from repro.errors import AddressError, ConfigError
from repro.host.system import System
from repro.units import KB

BLOCK = 4 * KB


# -- presets ------------------------------------------------------------


def test_ultrastar_preset_matches_paper_table1():
    """The named preset carries the §6.1 / Table 1 datasheet figures."""
    spec = device_preset("ultrastar_36z15")
    assert spec is ULTRASTAR_36Z15
    assert spec.kind is DeviceKind.HDD
    hdd = spec.hdd
    assert hdd is not None
    assert hdd.capacity_bytes == 18_000_000_000
    assert hdd.rpm == 15000.0
    assert hdd.rotation_ms == pytest.approx(4.0)
    assert hdd.sectors_per_track == 440
    assert hdd.transfer_rate_mb_s == 54.0
    # The fitted three-regime seek curve (Ruemmler & Wilkes form).
    assert hdd.seek.alpha == pytest.approx(0.9336)
    assert hdd.seek.beta == pytest.approx(0.0364)
    assert hdd.seek.gamma == pytest.approx(1.5503)
    assert hdd.seek.delta == pytest.approx(0.00054)
    assert hdd.seek.theta == 1150
    # ZBR refinement figures ride on the same preset.
    assert spec.zoning is not None
    assert (spec.zoning.outer_sectors, spec.zoning.inner_sectors) == (504, 376)


def test_presets_share_capacity_for_uniform_striping():
    capacities = {spec.capacity_bytes for spec in DEVICE_PRESETS.values()}
    assert capacities == {18_000_000_000}


def test_unknown_preset_rejected():
    with pytest.raises(ConfigError):
        device_preset("quantum_bigfoot")


def test_preset_shape_validation():
    from repro.config import DeviceSpec, ZoningParams

    with pytest.raises(ConfigError):  # SSD kind with HDD params
        DeviceSpec(
            name="x", kind=DeviceKind.SSD, hdd=DiskParams()
        ).validate()
    with pytest.raises(ConfigError):  # zoning on a flash device
        DeviceSpec(
            name="x", kind=DeviceKind.SSD, ssd=SsdParams(), zoning=ZoningParams()
        ).validate()


# -- per-kind assembly --------------------------------------------------


def test_system_builds_device_model_per_kind():
    config = ultrastar_36z15_config().with_(
        devices=("ultrastar_36z15",) * 4 + ("generic_ssd",) * 4
    )
    devices = [c.drive.device for c in System(config).controllers]
    for hdd in devices[:4]:
        assert type(hdd) is HddDeviceModel and hdd.kind is DeviceKind.HDD
        assert hdd.channels == 1
    for ssd in devices[4:]:
        assert type(ssd) is FlashServiceModel and ssd.kind is DeviceKind.SSD
        assert ssd.channels == GENERIC_SSD.ssd.channels == 4


# -- flash model --------------------------------------------------------


@pytest.fixture
def flash():
    return FlashServiceModel(GENERIC_SSD.ssd, BLOCK)


def test_flash_latency_is_flat_across_addresses(flash):
    far = flash.geometry.n_blocks - 9
    assert flash.breakdown(0, 8, 8) == flash.breakdown(0, far, 8)
    assert flash.breakdown(0, 8, 8) == flash.breakdown(far, 8, 8)


def test_flash_phases_are_seekless(flash):
    b = flash.breakdown(0, 1000, 8)
    assert b.seek_ms == 0.0 and b.rotation_ms == 0.0
    ssd = GENERIC_SSD.ssd
    assert b.overhead_ms == pytest.approx(
        ssd.command_overhead_ms + ssd.read_latency_ms
    )
    assert b.transfer_ms == pytest.approx(
        8 * BLOCK / ssd.transfer_rate_bytes_ms
    )
    assert b.total_ms == pytest.approx(
        b.overhead_ms + b.transfer_ms
    )


def test_flash_write_asymmetry(flash):
    read = flash.breakdown(0, 0, 4, is_write=False)
    write = flash.breakdown(0, 0, 4, is_write=True)
    ssd = GENERIC_SSD.ssd
    assert write.total_ms - read.total_ms == pytest.approx(
        ssd.write_latency_ms - ssd.read_latency_ms
    )
    assert write.transfer_ms == read.transfer_ms


def test_flash_expected_service_time_matches_read(flash):
    assert flash.expected_service_time(8) == pytest.approx(
        flash.breakdown(0, 0, 8).total_ms
    )
    # seek_distance is part of the shared signature but meaningless here
    assert flash.expected_service_time(8, seek_distance=500) == pytest.approx(
        flash.expected_service_time(8)
    )


def test_nvme_preset_is_faster_than_sata(flash):
    nvme = FlashServiceModel(GENERIC_NVME.ssd, BLOCK)
    assert nvme.breakdown(0, 0, 8).total_ms < flash.breakdown(0, 0, 8).total_ms
    assert nvme.channels > flash.channels


# -- flat geometry ------------------------------------------------------


def test_flat_geometry_collapses_cylinders(flash):
    g = flash.geometry
    assert isinstance(g, FlatGeometry)
    assert g.n_cylinders == 1
    assert g.cylinder_of(0) == 0
    assert g.cylinder_of(g.n_blocks - 1) == 0
    assert g.seek_distance(0, g.n_blocks - 1) == 0
    assert g.seek_distance(g.n_blocks - 1, 0) == 0  # trivially symmetric


def test_flat_geometry_bounds_and_clamp(flash):
    g = flash.geometry
    assert g.n_blocks == GENERIC_SSD.ssd.capacity_bytes // BLOCK
    with pytest.raises(AddressError):
        g.check_block(g.n_blocks)
    with pytest.raises(AddressError):
        g.check_block(-1)
    assert g.clamp_run(g.n_blocks - 3, 10) == 3
    assert g.clamp_run(0, 10) == 10


# -- channel concurrency ------------------------------------------------


def test_ssd_drive_overlaps_operations_up_to_channels():
    """An SSD slot services up to ``channels`` media ops concurrently;
    a spinning disk stays a serial server."""
    from repro.disk.drive import DiskDrive
    from repro.errors import SimulationError
    from repro.sim.engine import Simulator

    channels = GENERIC_SSD.ssd.channels
    sim = Simulator()
    drive = DiskDrive(0, sim, FlashServiceModel(GENERIC_SSD.ssd, BLOCK))
    done = []
    for i in range(channels):
        assert not drive.busy  # a free channel remains
        drive.execute(i * 64, 8, False, lambda *a, i=i: done.append(i))
    assert drive.busy and drive.in_flight == channels
    with pytest.raises(SimulationError):
        drive.execute(channels * 64, 8, False, lambda *a: None)
    sim.run()
    assert done == list(range(channels))
    assert drive.max_concurrent == channels
    assert drive.in_flight == 0 and not drive.busy

    # The spinning-disk preset stays a strict serial server.
    sim2 = Simulator()
    hdd = DiskDrive(
        1,
        sim2,
        HddDeviceModel(ULTRASTAR_36Z15.hdd, BLOCK, deterministic_rotation=True),
    )
    hdd.execute(0, 8, False, lambda *a: None)
    assert hdd.busy and hdd.n_channels == 1
    sim2.run()
    assert hdd.max_concurrent == 1


def test_hybrid_config_reports_device_kinds():
    config = ultrastar_36z15_config().with_(
        devices=("ultrastar_36z15",) * 4 + ("generic_ssd",) * 4
    )
    config.validate()
    assert config.device_kinds == (DeviceKind.HDD,) * 4 + (DeviceKind.SSD,) * 4
    assert config.device_spec(0).kind is DeviceKind.HDD
    assert config.device_spec(7).kind is DeviceKind.SSD


def test_device_list_length_must_match_array():
    with pytest.raises(ConfigError):
        ultrastar_36z15_config().with_(devices=("generic_ssd",) * 3)
