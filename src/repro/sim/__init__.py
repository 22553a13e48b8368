"""Discrete-event simulation kernel.

Everything in the reproduction runs on a single virtual clock owned by a
:class:`~repro.sim.simulator.Simulator`. Components never sleep or read wall
time; they schedule callbacks. Determinism is guaranteed by (a) a stable
tie-break on simultaneous events and (b) named, seeded random streams from
:class:`~repro.sim.random.RandomStreams`.
"""

from repro.sim.events import EventCallback, EventHandle, EventQueue
from repro.sim.random import RandomStreams, stable_seed
from repro.sim.simulator import Simulator
from repro.sim.timers import Timer

__all__ = [
    "EventCallback",
    "EventHandle",
    "EventQueue",
    "RandomStreams",
    "Simulator",
    "Timer",
    "stable_seed",
]
