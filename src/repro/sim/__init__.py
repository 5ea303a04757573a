"""Discrete-event simulation core.

This subpackage provides the minimal machinery every other component is
built on: an event heap with a monotonically advancing clock
(:class:`~repro.sim.engine.Simulator`) and deterministic named random
streams (:class:`~repro.sim.rng.RandomStreams`). Contended components
queue on their own (the SCSI bus keeps its FIFO in
:class:`~repro.bus.scsi.ScsiBus`).
"""

from repro.sim.events import Event, EventQueue
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams

__all__ = ["Event", "EventQueue", "Simulator", "RandomStreams"]
