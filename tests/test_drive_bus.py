"""Disk drive media loop and SCSI bus model."""

import pytest

from repro.bus.scsi import ScsiBus
from repro.config import BusParams, DiskParams
from repro.disk.drive import DiskDrive
from repro.errors import SimulationError
from repro.mechanics.service import HddDeviceModel
from repro.sim.engine import Simulator
from repro.units import KB, MB


def make_drive(sim=None):
    sim = sim or Simulator()
    disk = DiskParams(capacity_bytes=64 * MB)
    service = HddDeviceModel(disk, 4 * KB, deterministic_rotation=True)
    return sim, DiskDrive(0, sim, service)


class TestDrive:
    def test_execute_updates_head_and_accounting(self):
        sim, drive = make_drive()
        done = []
        duration = drive.execute(100, 4, False, lambda: done.append(sim.now))
        assert drive.busy
        sim.run()
        assert done == [pytest.approx(duration)]
        assert not drive.busy
        assert drive.head_block == 103
        assert drive.operations == 1
        assert drive.blocks_transferred == 4
        assert drive.busy_time == pytest.approx(duration)

    def test_busy_drive_rejects_second_op(self):
        sim, drive = make_drive()
        drive.execute(0, 1, False, lambda: None)
        with pytest.raises(SimulationError):
            drive.execute(10, 1, False, lambda: None)

    def test_bounds_checked(self):
        _sim, drive = make_drive()
        from repro.errors import ReproError

        with pytest.raises(ReproError):
            drive.execute(drive.geometry.n_blocks, 1, False, lambda: None)
        with pytest.raises(SimulationError):
            drive.execute(drive.geometry.n_blocks - 1, 5, False, lambda: None)
        with pytest.raises(SimulationError):
            drive.execute(0, 0, False, lambda: None)

    def test_longer_seek_takes_longer(self):
        sim, drive = make_drive()
        t_near = drive.execute(0, 1, False, lambda: None)
        sim.run()
        drive.head_block = 0
        t_far = drive.execute(drive.geometry.n_blocks - 2, 1, False, lambda: None)
        assert t_far > t_near

    def test_utilization(self):
        sim, drive = make_drive()
        duration = drive.execute(0, 4, False, lambda: None)
        sim.run()
        sim.schedule(duration, lambda: None)  # idle for the same span
        sim.run()
        assert drive.utilization(sim.now) == pytest.approx(0.5)

    def test_seek_time_accumulated(self):
        sim, drive = make_drive()
        drive.execute(drive.geometry.blocks_per_cylinder * 10, 1, False, lambda: None)
        sim.run()
        assert drive.seek_time_total > 0


class TestBus:
    def test_transfer_time_is_bytes_over_rate_plus_overhead(self):
        sim = Simulator()
        bus = ScsiBus(sim, BusParams(bandwidth_mb_s=160, per_command_overhead_ms=0.02))
        done = []
        bus.transfer(160_000, lambda: done.append(sim.now))
        sim.run()
        assert done == [pytest.approx(1.0 + 0.02)]

    def test_contention_serializes(self):
        sim = Simulator()
        bus = ScsiBus(sim, BusParams(bandwidth_mb_s=160, per_command_overhead_ms=0.0))
        done = []
        bus.transfer(160_000, lambda: done.append(sim.now))
        bus.transfer(160_000, lambda: done.append(sim.now))
        sim.run()
        assert done == [pytest.approx(1.0), pytest.approx(2.0)]

    def test_counters(self):
        sim = Simulator()
        bus = ScsiBus(sim, BusParams())
        bus.transfer(1000, lambda: None)
        bus.transfer(2000, lambda: None)
        sim.run()
        assert bus.transfers == 2
        assert bus.bytes_transferred == 3000

    def test_utilization_reported(self):
        sim = Simulator()
        bus = ScsiBus(sim, BusParams(per_command_overhead_ms=0.0))
        bus.transfer(160_000, lambda: None)
        sim.run()
        sim.schedule(1.0, lambda: None)
        sim.run()
        assert bus.utilization(sim.now) == pytest.approx(0.5)

    def test_idle_bus_transfer_is_one_event(self):
        sim = Simulator()
        bus = ScsiBus(sim, BusParams(bandwidth_mb_s=160, per_command_overhead_ms=0.0))
        bus.transfer(160_000, lambda: None)
        sim.run()
        assert sim.events_fired == 1

    def test_back_to_back_transfers_are_one_event_each(self):
        sim = Simulator()
        bus = ScsiBus(sim, BusParams(bandwidth_mb_s=160, per_command_overhead_ms=0.0))
        done = []
        bus.transfer(1_600_000, lambda: done.append(sim.now))  # 10 ms
        bus.transfer(800_000, lambda: done.append(sim.now))  # 5 ms
        sim.run()
        assert sim.events_fired == 2
        assert done == [10.0, 10.0 + 5.0]

    def test_waiters_are_served_fifo(self):
        sim = Simulator()
        bus = ScsiBus(sim, BusParams())
        order = []
        for name in "abc":
            bus.transfer(4096, order.append, name)
        sim.run()
        assert order == ["a", "b", "c"]

    def test_back_to_back_busy_time(self):
        sim = Simulator()
        bus = ScsiBus(sim, BusParams(bandwidth_mb_s=160, per_command_overhead_ms=0.0))
        bus.transfer(1_600_000, lambda: None)
        bus.transfer(1_600_000, lambda: None)
        sim.run()
        assert bus.busy_time == pytest.approx(20.0)
        assert bus.utilization(sim.now) == pytest.approx(1.0)

    def test_utilization_fraction_of_elapsed(self):
        sim = Simulator()
        bus = ScsiBus(sim, BusParams(bandwidth_mb_s=160, per_command_overhead_ms=0.0))
        bus.transfer(1_600_000, lambda: None)  # 10 ms
        sim.run()
        sim.schedule(30.0, lambda: None)  # then idle for 30 ms
        sim.run()
        assert bus.utilization(sim.now) == pytest.approx(0.25)
