"""How fast is this machine right now? — a fixed kernel timed between batches.

The sandbox runs the same batch of page loads in 1.6 or 2.4 CPU-seconds
depending on the minute (other tenants of the host share its cores and
caches; the guest sees slower instructions, not steal), and the drift
lasts minutes, so no statistic over the batches of one run removes it.
Ten runs of a workload at ten seeds spread by up to 34 % (interquartile
÷ median) and the medians of two such sets an hour apart differ by up to
16 %. What helps: time a piece of work that never changes, beside the
work under test, and report the run's times in units of it — 14 % and
5 % on the same runs (README.md, *The sandbox*).

The kernel is a miniature of the simulator's inner loop — a heap of
``(time, seq, bound method, argument)`` events over slotted objects that
touch a deque and a dict and schedule their successor — because a machine
that is slow for one instruction mix is not equally slow for another: per
batch, an arithmetic loop tracked the page-load batches with r = 0.68,
this shape with r = 0.76. It lives in this directory, imports nothing
from ``repro``, and is stationary (every table is full from the start),
so its cost moves with the machine and with nothing else. It is small
(~2 MB) because it shares the process whose peak RSS is a metric and
whose forks copy its page tables.

A run's *slowdown* is the mean chunk time over :data:`REFERENCE_S`; the
run's host times are divided by it (``harness.run_untraced``).
"""

from __future__ import annotations

import heapq
import time
from collections import deque
from typing import Any, Callable, List, Tuple

#: Events per chunk, and the CPU seconds one chunk takes on the 2-core
#: sandbox in an ordinary minute — the machine every reported time is
#: rescaled to. A constant, not a measurement: changing it rescales
#: every time metric by the same factor.
CHUNK_EVENTS = 120_000
REFERENCE_S = 0.16

_NODES = 1024
_TOKENS = 64


class _Node:
    __slots__ = ("peer", "recent", "received", "table")

    def __init__(self, index: int) -> None:
        self.peer: "_Node" = self
        self.recent: deque = deque(((0.0, index),) * 4, maxlen=4)
        self.received = 0
        self.table = {key: key for key in range(8)}

    def receive(self, kernel: "Kernel", now: float, size: int) -> None:
        self.received += 1
        self.recent.append((now, size))
        table = self.table
        key = size & 7
        table[key] = (table[key] + size) & 0xFFFF
        kernel.schedule(now + 0.001 * (1 + (size & 3)), self.peer.receive,
                        (size * 1103515245 + 12345) & 0xFFFF)


class Kernel:
    """The fixed work. ``chunk()`` runs :data:`CHUNK_EVENTS` events (a
    tenth of that when ``quick``) and returns their CPU seconds scaled to
    a full chunk."""

    def __init__(self, quick: bool = False) -> None:
        self.events = CHUNK_EVENTS // 10 if quick else CHUNK_EVENTS
        nodes = [_Node(index) for index in range(_NODES)]
        # A fixed scatter of the ring over memory (389 is coprime to it).
        order = [(index * 389) % _NODES for index in range(_NODES)]
        for here, there in zip(order, order[1:] + order[:1]):
            nodes[here].peer = nodes[there]
        self._heap: List[Tuple[float, int, Callable[..., None], Any]] = []
        self._seq = 0
        for token in range(_TOKENS):
            self.schedule(0.001 * token,
                          nodes[order[token * (_NODES // _TOKENS)]].receive,
                          token)
        self.chunk()  # first touches and the interpreter's own warm-up

    def schedule(self, when: float, callback: Callable[..., None],
                 argument: Any) -> None:
        self._seq += 1
        heapq.heappush(self._heap, (when, self._seq, callback, argument))

    def chunk(self) -> float:
        heap, pop = self._heap, heapq.heappop
        started = time.process_time()
        for _ in range(self.events):
            when, _seq, callback, argument = pop(heap)
            callback(self, when, argument)
        spent = time.process_time() - started
        return spent * CHUNK_EVENTS / self.events
