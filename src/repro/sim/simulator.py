"""The discrete-event simulator.

One :class:`Simulator` instance owns the virtual clock and the event queue
for an entire emulated world (all namespaces, links, connections, browsers).
Components schedule callbacks; ``run`` drains the queue in causal order.

The scheduling entry points and the drain loops are the hottest code in the
toolkit — every packet, timer, and browser action passes through them — so
they work on the queue's lanes and event records directly (see
:mod:`repro.sim.events` for the layout and its invariants) instead of
through per-event method calls. ``run`` and ``run_until`` each have two
drain loops: an allocation-lean fast loop used when no trace hook or event
budget is installed, and a checked loop that replicates the exact same
dispatch order while honouring ``max_events`` and the trace hook. Both
produce bit-identical event streams — the determinism sanitizer digests
(time, seq, callback) per executed event and is run against both paths.
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

        This is :meth:`EventQueue.push` inlined (the single hottest call
        in a simulation): monotone pushes — zero delays and chained
        timeouts — append to the queue's tail lane in O(1).

        Raises:
            SimulationError: if ``delay`` is negative.
        """
        if delay < 0.0:
            raise SimulationError(f"cannot schedule into the past: delay={delay!r}")
        time = self._clock._now + delay
        queue = self._queue
        seq = queue._seq
        queue._seq = seq + 1
        queue._live += 1
        entry: EventHandle = [time, seq, callback, args]
        tail = queue._tail
        if not tail or time >= tail[-1][0]:
            tail.append(entry)
        else:
            heapq.heappush(queue._heap, entry)
        return entry

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
        queue = self._queue
        seq = queue._seq
        queue._seq = seq + 1
        queue._live += 1
        entry: EventHandle = [time, seq, callback, args]
        tail = queue._tail
        if not tail or time >= tail[-1][0]:
            tail.append(entry)
        else:
            heapq.heappush(queue._heap, entry)
        return entry

    def call_soon(self, callback: EventCallback, *args: Any) -> EventHandle:
        """Schedule ``callback(*args)`` at the current instant (after pending
        same-time events already in the queue)."""
        time = self._clock._now
        queue = self._queue
        seq = queue._seq
        queue._seq = seq + 1
        queue._live += 1
        entry: EventHandle = [time, seq, callback, args]
        tail = queue._tail
        if not tail or time >= tail[-1][0]:
            tail.append(entry)
        else:
            heapq.heappush(queue._heap, entry)
        return entry

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
        and immediately before its callback runs. The main loops read it
        once per drain, so install it before calling :meth:`run` /
        :meth:`run_until`. The intended consumer is the determinism
        sanitizer (:class:`repro.analysis.sanitizer.EventStreamDigest`);
        when no hook is installed the drain takes an allocation-lean fast
        loop with zero per-event hook cost.
        """
        self._trace = hook

    def step(self) -> bool:
        """Execute the single earliest event. Returns False if queue empty."""
        queue = self._queue
        entry = queue.pop_due(None)
        if entry is None:
            return False
        self._clock.advance_to(entry[0])
        callback, args = queue.consume(entry)
        self._events_processed += 1
        if self._trace is not None:
            self._trace(entry[0], entry[1], callback)
        callback(*args)
        return True

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
        executed = 0
        queue = self._queue
        clock = self._clock
        trace = self._trace
        try:
            if trace is None and max_events is None:
                # Fast loop: EventQueue.pop_due / consume inlined onto the
                # lanes. Containers are cached once — the queue compacts
                # them in place, never rebinding (EventQueue._compact).
                heap = queue._heap
                tail = queue._tail
                heappop = heapq.heappop
                while True:
                    if tail:
                        head = tail[0]
                        if heap and heap[0] < head:
                            head = heappop(heap)
                        else:
                            tail.popleft()
                    elif heap:
                        head = heappop(heap)
                    else:
                        break
                    callback = head[2]
                    if callback is None:  # cancelled: discard lazily
                        queue._dead -= 1
                        continue
                    time = head[0]
                    if until is not None and time > until:
                        # Overshot: un-pop (lane choice only affects cost).
                        heapq.heappush(heap, head)
                        break
                    if time > clock._now:
                        # Direct store: pop order is monotone by
                        # construction, so this cannot move backwards.
                        clock._now = time
                    args = head[3]
                    head[2] = None
                    head[3] = None
                    queue._live -= 1
                    executed += 1
                    if args:
                        callback(*args)
                    else:
                        callback()
            else:
                while True:
                    entry = queue.pop_due(until)
                    if entry is None:
                        break
                    clock.advance_to(entry[0])
                    callback, cb_args = queue.consume(entry)
                    executed += 1
                    if max_events is not None and executed > max_events:
                        raise SimulationError(
                            f"run() exceeded max_events={max_events}; "
                            "likely an event loop that never drains"
                        )
                    if trace is not None:
                        trace(entry[0], entry[1], callback)
                    callback(*cb_args)
            if until is not None and until > clock._now:
                clock.advance_to(until)
        finally:
            self._events_processed += executed
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
        queue = self._queue
        clock = self._clock
        trace = self._trace
        executed = 0
        countdown = check_every
        try:
            if trace is None:
                # Fast loop: same two-lane drain as ``run``'s, plus the
                # predicate countdown.
                heap = queue._heap
                tail = queue._tail
                heappop = heapq.heappop
                while True:
                    if tail:
                        head = tail[0]
                        if heap and heap[0] < head:
                            head = heappop(heap)
                        else:
                            tail.popleft()
                    elif heap:
                        head = heappop(heap)
                    else:
                        return predicate()
                    callback = head[2]
                    if callback is None:
                        queue._dead -= 1
                        continue
                    time = head[0]
                    if deadline is not None and time > deadline:
                        # Events remain, but all after the deadline.
                        heapq.heappush(heap, head)
                        clock.advance_to(deadline)
                        return predicate()
                    if time > clock._now:
                        clock._now = time
                    args = head[3]
                    head[2] = None
                    head[3] = None
                    queue._live -= 1
                    executed += 1
                    if args:
                        callback(*args)
                    else:
                        callback()
                    countdown -= 1
                    if countdown == 0:
                        if predicate():
                            return True
                        countdown = check_every
            else:
                while True:
                    entry = queue.pop_due(deadline)
                    if entry is None:
                        if deadline is not None and queue.peek_time() is not None:
                            # Events remain, but all after the deadline.
                            clock.advance_to(deadline)
                        return predicate()
                    clock.advance_to(entry[0])
                    callback, cb_args = queue.consume(entry)
                    executed += 1
                    trace(entry[0], entry[1], callback)
                    callback(*cb_args)
                    countdown -= 1
                    if countdown == 0:
                        if predicate():
                            return True
                        countdown = check_every
        finally:
            self._events_processed += executed

    def reset(self) -> None:
        """Drop all pending events (the clock keeps its value)."""
        self._queue.clear()

    def __repr__(self) -> str:
        return (
            f"Simulator(now={self.now:.6f}, pending={self.pending_events}, "
            f"processed={self._events_processed})"
        )
