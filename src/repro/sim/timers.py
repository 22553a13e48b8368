"""Restartable timers built on the simulator.

TCP needs a retransmission timer that is armed, re-armed, and cancelled
constantly; it lives here so the rest of the code never touches raw event
handles.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.sim.events import EventHandle
from repro.sim.simulator import Simulator


class Timer:
    """A single-shot, restartable timer.

    ``start(delay)`` arms the timer; starting an armed timer re-arms it
    (the previous deadline is cancelled). ``stop`` disarms it. The callback
    fires at most once per arming.
    """

    __slots__ = ("_sim", "_callback", "_event")

    def __init__(self, sim: Simulator, callback: Callable[[], Any]) -> None:
        self._sim = sim
        self._callback = callback
        self._event: Optional[EventHandle] = None

    @property
    def armed(self) -> bool:
        """True if the timer is currently counting down."""
        return self._event is not None

    @property
    def deadline(self) -> Optional[float]:
        """Virtual time at which the timer will fire, or None if disarmed."""
        event = self._event
        if event is not None:
            return event[0]
        return None

    def start(self, delay: float) -> None:
        """Arm (or re-arm) the timer to fire ``delay`` seconds from now."""
        self.stop()
        self._event = self._sim.schedule(delay, self._fire)

    def stop(self) -> None:
        """Disarm the timer if armed; no-op otherwise."""
        if self._event is not None:
            self._sim.cancel(self._event)
            self._event = None

    def _fire(self) -> None:
        self._event = None
        self._callback()
