"""The discrete-event simulator.

One :class:`Simulator` instance owns the virtual clock and the event queue
for an entire emulated world (all namespaces, links, connections, browsers).
Components schedule callbacks; ``run`` drains the queue in causal order.

Every packet, timer, and browser action passes through two short pieces
of code: :meth:`EventQueue.push <repro.sim.events.EventQueue.push>`, which
every scheduling entry point calls, and :meth:`Simulator._drain`, the one
loop under ``run``, ``run_for``, ``run_until`` and ``step``, which pops
the queue's heap of event records directly (see :mod:`repro.sim.events`
for the record layout and its invariants). The trace hook, the predicate
countdown, the deadline and the ``max_events`` guard are ``is not None``
tests inside that loop, so a traced run executes the same code as an
untraced one — the determinism sanitizer digests (time, seq, callback)
per executed event of the loop production runs.
"""

from __future__ import annotations

import heapq
from typing import TYPE_CHECKING, Any, Callable, Optional

from repro.errors import SimulationError
from repro.sim.clock import VirtualClock
from repro.sim.events import EventCallback, EventHandle, EventQueue
from repro.sim.random import RandomStreams

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.obs.registry import MetricsRegistry

#: A trace hook: called as ``hook(time, seq, callback)`` per executed event.
TraceHook = Callable[[float, int, EventCallback], None]


class Simulator:
    """Single-clock discrete-event simulator.

    Args:
        seed: master seed for the simulation's random streams. Two simulators
            built with the same seed and the same scheduling calls produce
            bit-identical behaviour.

    Example:
        >>> sim = Simulator(seed=1)
        >>> fired = []
        >>> _ = sim.schedule(0.5, fired.append, "hello")
        >>> sim.run()
        >>> (sim.now, fired)
        (0.5, ['hello'])
    """

    def __init__(self, seed: int = 0) -> None:
        self._clock = VirtualClock()
        self._queue = EventQueue()
        self._streams = RandomStreams(seed)
        self._running = False
        self._events_processed = 0
        self._trace: Optional[TraceHook] = None
        #: Observability registry (None = uninstrumented). Components read
        #: this at construction to capture their probe handles, so attach
        #: a registry *before* building the world (see repro.obs).
        self.metrics: Optional["MetricsRegistry"] = None

    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        # Reads the clock's slot directly: this property is the single
        # most-called function in a simulation, and going through
        # Clock.now would stack a second property frame on every read.
        return self._clock._now

    @property
    def streams(self) -> RandomStreams:
        """Named, seeded random streams for this simulation."""
        return self._streams

    @property
    def events_processed(self) -> int:
        """Total events executed so far (diagnostic).

        Updated when a drain loop exits, not per event — a callback that
        reads it mid-run sees the count as of the loop's entry.
        """
        return self._events_processed

    @property
    def pending_events(self) -> int:
        """Live events still queued."""
        return len(self._queue)

    def schedule(
        self, delay: float, callback: EventCallback, *args: Any
    ) -> EventHandle:
        """Schedule ``callback(*args)`` to run ``delay`` seconds from now.

        Raises:
            SimulationError: if ``delay`` is negative.
        """
        if delay < 0.0:
            raise SimulationError(f"cannot schedule into the past: delay={delay!r}")
        return self._queue.push(self._clock._now + delay, callback, args)

    def schedule_at(
        self, time: float, callback: EventCallback, *args: Any
    ) -> EventHandle:
        """Schedule ``callback(*args)`` at absolute virtual time ``time``.

        Raises:
            SimulationError: if ``time`` is before the current time.
        """
        if time < self._clock._now:
            raise SimulationError(
                f"cannot schedule into the past: "
                f"t={time!r} < now={self._clock._now!r}"
            )
        return self._queue.push(time, callback, args)

    def call_soon(self, callback: EventCallback, *args: Any) -> EventHandle:
        """Schedule ``callback(*args)`` at the current instant (after pending
        same-time events already in the queue)."""
        return self._queue.push(self._clock._now, callback, args)

    def cancel(self, event: EventHandle) -> None:
        """Cancel a scheduled event. Cancelling twice (or cancelling a
        handle whose event already fired) is a no-op."""
        self._queue.cancel(event)

    def use_metrics(self, registry: Optional["MetricsRegistry"]) -> None:
        """Attach (or, with None, detach) an observability registry.

        The registry is observer-owned state: probes only ever *read*
        simulation state and append observations, so attaching one must
        not change the executed event stream in any way (the
        zero-observer-effect contract, checked by
        ``repro.analysis.sanitizer --obs-check``). Attach before
        building the world — instrumented components capture their probe
        handles when constructed.
        """
        self.metrics = registry

    def set_trace(self, hook: Optional[TraceHook]) -> None:
        """Install (or, with None, remove) an execution observer.

        The hook is called as ``hook(time, seq, callback)`` once per
        executed event, after the clock has advanced to the event's time
        and immediately before its callback runs. The drain loop reads it
        once on entry, so install it before calling :meth:`run` /
        :meth:`run_until`. The intended consumer is the determinism
        sanitizer (:class:`repro.analysis.sanitizer.EventStreamDigest`).
        """
        self._trace = hook

    def _drain(
        self,
        deadline: Optional[float],
        max_events: Optional[int] = None,
        predicate: Optional[Callable[[], bool]] = None,
        check_every: int = 1,
    ) -> bool:
        """Execute due events in (time, seq) order: the one event loop.

        Stops — returning True — as soon as ``predicate`` holds, tested
        after every ``check_every``-th executed event; returns False once
        no live event is due by ``deadline`` (None: no deadline).

        Raises:
            SimulationError: when more than ``max_events`` events execute.
        """
        queue = self._queue
        clock = self._clock
        trace = self._trace
        # Cached once: the queue compacts and clears its heap in place,
        # never rebinding it (EventQueue._compact).
        heap = queue._heap
        heappop = heapq.heappop
        executed = 0
        countdown = check_every
        try:
            while heap:
                entry = heappop(heap)
                callback = entry[2]
                if callback is None:  # cancelled: discard lazily
                    queue._dead -= 1
                    continue
                time = entry[0]
                if deadline is not None and time > deadline:
                    heapq.heappush(heap, entry)  # overshot: un-pop
                    return False
                if time > clock._now:
                    # Direct store: pop order is monotone by construction,
                    # so this cannot move backwards.
                    clock._now = time
                # Nulling the slots is what makes a retained handle inert
                # once its event has fired.
                args = entry[3]
                entry[2] = None
                entry[3] = None
                queue._live -= 1
                executed += 1
                if max_events is not None and executed > max_events:
                    raise SimulationError(
                        f"run() exceeded max_events={max_events}; "
                        "likely an event loop that never drains"
                    )
                if trace is not None:
                    trace(time, entry[1], callback)
                callback(*args)
                if predicate is not None:
                    countdown -= 1
                    if countdown == 0:
                        if predicate():
                            return True
                        countdown = check_every
            return False
        finally:
            self._events_processed += executed

    def step(self) -> bool:
        """Execute the single earliest event. Returns False if queue empty."""
        return self._drain(None, predicate=lambda: True)

    def run(
        self, until: Optional[float] = None, max_events: Optional[int] = None
    ) -> None:
        """Run until the queue is empty.

        Args:
            until: stop once the next event would be after this virtual time;
                the clock is then advanced exactly to ``until``.
            max_events: safety valve — raise SimulationError if more than this
                many events execute (catches accidental infinite loops).

        Raises:
            SimulationError: on re-entrant run, or when max_events is hit.
        """
        if self._running:
            raise SimulationError("Simulator.run() is not re-entrant")
        self._running = True
        try:
            self._drain(until, max_events)
            if until is not None and until > self._clock._now:
                self._clock.advance_to(until)
        finally:
            self._running = False

    def run_for(self, duration: float) -> None:
        """Run for ``duration`` seconds of virtual time from now."""
        self.run(until=self._clock._now + duration)

    def run_until(
        self,
        predicate: Callable[[], bool],
        timeout: Optional[float] = None,
        check_every: int = 1,
    ) -> bool:
        """Run until ``predicate()`` becomes true.

        Args:
            predicate: checked after each executed event by default.
            timeout: virtual-time budget; on expiry the clock is advanced
                to the deadline and the predicate's final value returned.
            check_every: evaluate the predicate only every N events —
                a cached check interval for hot loops where the predicate
                is monotonic (a completed page load stays completed) and
                checking it each event costs more than overshooting by a
                few events. Always checked on exhaustion and deadline.

        Returns True if the predicate fired, False on queue exhaustion or
        timeout expiry.
        """
        if check_every < 1:
            raise ValueError(f"check_every must be >= 1, got {check_every!r}")
        deadline = None if timeout is None else self._clock._now + timeout
        if predicate():
            return True
        if self._drain(deadline, None, predicate, check_every):
            return True
        if deadline is not None and self._queue:
            # Events remain, but all after the deadline.
            self._clock.advance_to(deadline)
        return predicate()

    def reset(self) -> None:
        """Drop all pending events (the clock keeps its value)."""
        self._queue.clear()

    def __repr__(self) -> str:
        return (
            f"Simulator(now={self.now:.6f}, pending={self.pending_events}, "
            f"processed={self._events_processed})"
        )
