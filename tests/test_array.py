"""Disk array fan-out, gather and HDC orchestration."""

import pytest

from repro.errors import SimulationError
from repro.host.system import System
from repro.units import KB


@pytest.fixture
def system(small_config):
    return System(small_config)


def test_array_width_matches_config(system, small_config):
    assert system.array.n_disks == small_config.array.n_disks


def test_submit_logical_completes_once(system):
    done = []
    system.array.submit_logical(0, 4, on_complete=lambda: done.append(system.sim.now))
    system.sim.run()
    assert len(done) == 1


def test_cross_disk_fanout_runs_in_parallel(small_config):
    """A run spanning both disks should take ~one disk's time."""
    system = System(small_config, deterministic_rotation=True)
    sim = system.sim
    unit = system.striping.unit_blocks

    t_single = []
    system.array.submit_logical(0, unit, on_complete=lambda: t_single.append(sim.now))
    sim.run()
    start = sim.now
    t_double = []
    system.array.submit_logical(
        2 * unit * 2, 2 * unit, on_complete=lambda: t_double.append(sim.now)
    )
    sim.run()
    parallel_time = t_double[0] - start
    # two disks in parallel: well under 2x a single-disk access
    assert parallel_time < 1.8 * t_single[0]


def test_controller_stats_aggregation(system):
    system.array.submit_logical(0, 8)
    system.sim.run()
    stats = system.array.controller_stats()
    assert stats.commands >= 1
    assert stats.blocks_requested == 8


def test_cache_stats_aggregation(system):
    system.array.submit_logical(0, 4)
    system.sim.run()
    assert system.array.cache_stats().blocks_filled > 0


def test_media_busy_times_per_disk(system):
    system.array.submit_logical(0, 4)
    system.sim.run()
    busy = system.array.media_busy_times()
    assert len(busy) == 2
    assert any(b > 0 for b in busy)


def test_mismatched_controllers_rejected(system):
    from repro.array.array import DiskArray
    from repro.array.striping import StripingLayout

    bad = StripingLayout(3, 4, 100)
    with pytest.raises(SimulationError):
        DiskArray(system.sim, bad, system.array.controllers, system.bus)


def test_pin_logical_blocks_routes_to_home_disks(small_config):
    config = small_config.with_(hdc_bytes=32 * KB)
    system = System(config)
    unit = system.striping.unit_blocks
    # one block on each disk
    count = system.array.pin_logical_blocks([0, unit])
    assert count == 2
    assert 0 in system.controllers[0].pinned
    assert 0 in system.controllers[1].pinned


def test_flush_all_hdc_completes(small_config):
    config = small_config.with_(hdc_bytes=32 * KB)
    system = System(config)
    system.array.pin_logical_blocks([0, 1])
    done = []
    system.array.flush_all_hdc(lambda: done.append(1))
    system.sim.run()
    assert done == [1]
