"""The controller's HDC pinned region (§5): pin/unpin/flush and dirty semantics.

The region is ``DiskController.pinned``, a ``block → dirty`` dict driven
by the host's ``pin_blk`` / ``unpin_blk`` / ``flush_hdc`` commands
(``pin_blocks``, ``unpin_blocks``, ``flush_hdc``).
"""

import pytest

from repro.bus.scsi import ScsiBus
from repro.cache.block import BlockCache
from repro.config import BusParams, DiskParams
from repro.controller.commands import DiskCommand
from repro.controller.controller import DiskController
from repro.disk.drive import DiskDrive
from repro.errors import CacheError
from repro.mechanics.service import HddDeviceModel
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.readahead.none import NoReadAhead
from repro.scheduling.look import LookScheduler
from repro.sim.engine import Simulator
from repro.units import KB, MB


def make_controller(hdc_blocks, tracer=NULL_TRACER):
    sim = Simulator()
    service = HddDeviceModel(DiskParams(capacity_bytes=64 * MB), 4 * KB)
    controller = DiskController(
        disk_id=0,
        sim=sim,
        drive=DiskDrive(0, sim, service),
        scheduler=LookScheduler(),
        cache=BlockCache(64),
        readahead=NoReadAhead(),
        bus=ScsiBus(sim, BusParams()),
        block_size=4 * KB,
        hdc_blocks=hdc_blocks,
        tracer=tracer,
    )
    return sim, controller


def write(sim, controller, block):
    """Host write of one block, run to completion."""
    controller.submit(DiskCommand(0, block, 1, is_write=True, on_complete=lambda c: None))
    sim.run()


def test_pin_and_membership():
    _sim, controller = make_controller(4)
    controller.pin_blocks([10])
    assert 10 in controller.pinned
    assert len(controller.pinned) == 1


def test_pin_is_idempotent():
    _sim, controller = make_controller(2)
    controller.pin_blocks([1])
    controller.pin_blocks([1, 1])
    assert len(controller.pinned) == 1


def test_capacity_enforced():
    _sim, controller = make_controller(2)
    controller.pin_blocks([1, 2])
    with pytest.raises(CacheError):
        controller.pin_blocks([3])


def test_negative_capacity_rejected():
    with pytest.raises(CacheError):
        make_controller(-1)


def test_unpin_clean_block():
    _sim, controller = make_controller(2)
    controller.pin_blocks([1])
    controller.unpin_blocks([1])
    assert 1 not in controller.pinned


def test_unpin_unknown_is_noop():
    _sim, controller = make_controller(2)
    controller.pin_blocks([1])
    controller.unpin_blocks([99])
    assert controller.pinned == {1: False}


def test_unpin_dirty_refused():
    """A dirty pinned block holds the only up-to-date copy."""
    sim, controller = make_controller(2)
    controller.pin_blocks([1])
    write(sim, controller, 1)
    with pytest.raises(CacheError):
        controller.unpin_blocks([1])
    controller.flush_hdc()
    sim.run()
    controller.unpin_blocks([1])  # clean after flush
    assert 1 not in controller.pinned


def test_flush_returns_and_clears_dirty():
    sim, controller = make_controller(4)
    controller.pin_blocks([1, 2, 3])
    write(sim, controller, 1)
    write(sim, controller, 3)
    assert sum(controller.pinned.values()) == 2
    assert controller.flush_hdc() == 2
    sim.run()
    assert sum(controller.pinned.values()) == 0
    # Blocks 1 and 3 went to the media as two single-block runs.
    assert controller.stats.media_writes == 2
    assert controller.stats.media_blocks_written == 2
    assert controller.flush_hdc() == 0


def test_blocks_stay_pinned_after_flush():
    sim, controller = make_controller(2)
    controller.pin_blocks([1])
    write(sim, controller, 1)
    controller.flush_hdc()
    sim.run()
    assert controller.pinned == {1: False}


def test_pinned_blocks_listing():
    _sim, controller = make_controller(4)
    controller.pin_blocks([6, 5])
    assert sorted(controller.pinned) == [5, 6]


def test_hdc_commands_trace_their_instants():
    tracer = Tracer()
    sim, controller = make_controller(4, tracer=tracer)
    controller.pin_blocks([5, 6])
    controller.unpin_blocks([6])
    write(sim, controller, 5)
    controller.flush_hdc()
    sim.run()
    # events: (run, ph, track, name, ts, dur, span_id, args)
    hdc = [(e[2], e[3], e[7]) for e in tracer.events if e[3].startswith("hdc.")]
    assert hdc == [
        ("ctrl0", "hdc.pin", {"blocks": 2, "pinned": 2}),
        ("ctrl0", "hdc.unpin", {"block": 6}),
        ("ctrl0", "hdc.flush", {"dirty": 1, "pinned": 1}),
    ]
