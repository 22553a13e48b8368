"""The pending-event queue: slotted event records in one binary heap.

The queue orders events by ``(time, sequence)``. The sequence number is a
global insertion counter, so two events scheduled for the same instant fire
in the order they were scheduled — the property that makes the whole
simulation deterministic.

Each pending event is one *record*: a four-slot list
``[time, seq, callback, args]`` that doubles as the caller's handle
(:data:`EventHandle`). Records compare element-wise exactly like
``(time, seq, …)`` tuples — ``seq`` is unique, so a comparison never
reaches the callback slot — and they are mutable: cancellation nulls the
callback slot in place (O(1), no tombstone objects), and executing an
event or clearing the queue nulls the same slots, so a stale handle can
never corrupt a later event. A parallel-array layout with free-list slot
recycling was benchmarked here and lost: four array writes per push plus
free-list churn cost more than CPython's small-object allocator, which
*is* a free list (see DESIGN.md §10 for the measurements).

The records sit in one ``heapq``. This class is the producer side —
push, cancel, compact, clear — and the accounting; the consumer side is
the one loop in :meth:`Simulator._drain <repro.sim.simulator.Simulator>`,
which pops the heap directly (a ``pop`` method per event would be two
call frames on the hottest path in the toolkit; DESIGN.md §10 has the
measurement). Why one heap and not a heap plus an append-only lane for
monotone pushes: DESIGN.md §10, *Why not two lanes*.

Cancellation is lazy: the dead record stays in the heap until it surfaces
at the top and the drain loop discards it. To stop dead records from
bloating the heap during long loads, the queue runs a compaction sweep —
filter and re-heapify, O(n) — whenever cancelled records outnumber live
ones in a heap of at least :data:`COMPACT_MIN_SIZE` entries. Compaction
and ``clear`` mutate the heap list *in place*: the drain loop holds a
direct reference to it across callbacks.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, List, Tuple

#: Heap size below which compaction is never worth the O(n) rebuild.
COMPACT_MIN_SIZE = 512

#: A scheduled callback's signature.
EventCallback = Callable[..., Any]

#: The handle returned by ``push``: the ``[time, seq, callback, args]``
#: record itself. Opaque to callers except for ``handle[0]`` (the
#: scheduled time) and ``handle[1]`` (the insertion sequence).
EventHandle = List[Any]


class EventQueue:
    """Binary heap of event records ordered by (time, sequence)."""

    __slots__ = ("_heap", "_seq", "_live", "_dead")

    def __init__(self) -> None:
        self._heap: List[EventHandle] = []
        self._seq = 0
        self._live = 0
        self._dead = 0

    def __len__(self) -> int:
        """Number of live (non-cancelled) events."""
        return self._live

    def __bool__(self) -> bool:
        return self._live > 0

    def push(
        self, time: float, callback: EventCallback, args: Tuple[Any, ...]
    ) -> EventHandle:
        """Insert a callback to fire at ``time``; returns a cancellable handle."""
        seq = self._seq
        self._seq = seq + 1
        self._live += 1
        entry: EventHandle = [time, seq, callback, args]
        heapq.heappush(self._heap, entry)
        return entry

    def cancel(self, handle: EventHandle) -> bool:
        """Cancel a scheduled event; returns False if it already fired.

        O(1): the record's callback slot is nulled and the heap entry is
        left to be discarded lazily. Executing an event nulls the same
        slot, so cancelling twice — or cancelling after the event fired or
        the queue was cleared — is a safe no-op.
        """
        if handle[2] is None:
            return False
        handle[2] = None
        handle[3] = None
        self._live -= 1
        self._dead += 1
        if self._dead > self._live and len(self._heap) >= COMPACT_MIN_SIZE:
            self._compact()
        return True

    def _compact(self) -> None:
        """Drop cancelled records and re-heapify (O(n)), **in place**."""
        heap = self._heap
        heap[:] = [entry for entry in heap if entry[2] is not None]
        heapq.heapify(heap)
        self._dead = 0

    def clear(self) -> None:
        """Drop every pending event (the sequence counter keeps counting).

        The dropped records' slots are nulled like a cancelled or executed
        record's, so a handle that outlives the clear is inert.
        """
        for entry in self._heap:
            entry[2] = None
            entry[3] = None
        self._heap.clear()
        self._live = 0
        self._dead = 0
