"""Property test: the simulator dispatches in exactly the order a plain
tuple-heap would, under interleaved schedule / cancel / compact / step
sequences.

The record heap (DESIGN.md §10) replaced the original ``heapq``-of-tuples
event queue. Its correctness contract is that the rewrite is
*observationally identical*: same (time, seq) dispatch order, same cancel
semantics, for every interleaving. The determinism digests check that for
the worlds we ship; this checks it for adversarial schedules hypothesis
invents, through ``Simulator.schedule`` / ``cancel`` / ``step`` / ``run``
with a recording trace hook — ``Simulator._drain``, the one loop every
production run executes, is the only code that pops. The second test is
the workload that defeated PR 6's monotone lane, as a generator: one
far-future timer re-armed (cancel + push) between bursts of near-future
pushes, which is also what keeps the compaction sweep busy.
"""

from __future__ import annotations

import heapq
from typing import List, Optional, Set, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

import repro.sim.events as events_mod
from repro.sim.events import EventQueue
from repro.sim.simulator import Simulator


class ReferenceHeap:
    """The original design: one tuple heap plus a cancelled-seq set."""

    def __init__(self) -> None:
        self._heap: List[Tuple[float, int]] = []
        self._seq = 0
        self._cancelled: Set[int] = set()
        self._fired: Set[int] = set()

    def push(self, time: float) -> int:
        seq = self._seq
        self._seq = seq + 1
        heapq.heappush(self._heap, (time, seq))
        return seq

    def cancel(self, seq: int) -> bool:
        if seq in self._fired or seq in self._cancelled:
            return False
        self._cancelled.add(seq)
        return True

    def pop(self) -> Optional[Tuple[float, int]]:
        while self._heap:
            time, seq = heapq.heappop(self._heap)
            if seq in self._cancelled:
                continue
            self._fired.add(seq)
            return (time, seq)
        return None


class CountingQueue(EventQueue):
    """The queue under test, counting its organic compaction sweeps."""

    __slots__ = ("sweeps",)

    def __init__(self) -> None:
        super().__init__()
        self.sweeps = 0

    def _compact(self) -> None:
        self.sweeps += 1
        super()._compact()


def _noop() -> None:
    return None


#: Far enough ahead that no near-future push of the same burst reaches it.
_FAR = 1000.0

#: Delays, not times: a simulator refuses to schedule into its past.
_times = st.floats(
    min_value=0.0, max_value=64.0, allow_nan=False, allow_infinity=False
)

_ops = st.lists(
    st.one_of(
        st.tuples(st.just("push"), _times),
        st.tuples(st.just("cancel"), st.integers(0, 4095)),
        st.tuples(st.just("pop"), st.just(0.0)),
        st.tuples(st.just("compact"), st.just(0.0)),
        st.tuples(st.just("rearm"), _times),
    ),
    max_size=300,
)

#: One burst: near-future push times and the index of one to cancel.
_bursts = st.lists(
    st.tuples(st.lists(_times, min_size=1, max_size=12), st.integers(0, 11)),
    min_size=9,
    max_size=30,
)


def _drive(operations) -> int:
    """Run ``operations`` on a simulator and the reference side by side.

    Returns the number of sweeps the cancel path triggered on its own.
    """
    # Shrink the organic-compaction threshold so hypothesis-sized heaps
    # trigger the cancel-path sweep, not just the explicit compact op.
    saved = events_mod.COMPACT_MIN_SIZE
    events_mod.COMPACT_MIN_SIZE = 8
    try:
        sim = Simulator(seed=0)
        queue = sim._queue = CountingQueue()
        reference = ReferenceHeap()
        handles: List = []
        timer: Optional[int] = None  # index of the far timer's handle
        dispatched: List[Tuple[float, int]] = []
        expected: List[Tuple[float, int]] = []
        # Both sides number pushes from 0, so seq matches the streams
        # record for record.
        sim.set_trace(lambda time, seq, callback: dispatched.append((time, seq)))

        def push(delay: float) -> int:
            handle = sim.schedule(delay, _noop)
            assert reference.push(handle[0]) == handle[1]
            handles.append(handle)
            return len(handles) - 1

        def cancel(index: int) -> None:
            # Simulator.cancel is this call with the verdict dropped.
            assert queue.cancel(handles[index]) == reference.cancel(index)

        for op, value in operations:
            if op == "push":
                push(value)
            elif op == "cancel" and handles:
                cancel(int(value) % len(handles))
            elif op == "pop":
                want = reference.pop()
                assert sim.step() == (want is not None)
                if want is not None:
                    expected.append(want)
                    assert sim.now == want[0]
            elif op == "compact":
                queue._compact()
                queue.sweeps -= 1  # explicit, not organic
            elif op == "rearm":
                if timer is not None:
                    cancel(timer)
                timer = push(_FAR + value)
            assert sim.pending_events == len(reference._heap) - sum(
                1 for t, s in reference._heap
                if s in reference._cancelled
            )
        # Drain both completely; the full streams must match.
        sim.run()
        while (want := reference.pop()) is not None:
            expected.append(want)
        assert dispatched == expected
        assert sim.pending_events == 0 and queue._heap == []
        return queue.sweeps
    finally:
        events_mod.COMPACT_MIN_SIZE = saved


@given(_ops)
@settings(max_examples=300, deadline=None)
def test_dispatch_order_matches_reference_heap(operations) -> None:
    _drive(operations)


@given(_bursts)
@settings(max_examples=100, deadline=None)
def test_rearmed_far_timer_between_near_bursts(bursts) -> None:
    operations: List[Tuple[str, float]] = []
    pushed = 0
    for near, doomed in bursts:
        operations.append(("rearm", float(len(operations))))
        operations.extend(("push", time) for time in near)
        operations.append(("cancel", pushed + 1 + doomed % len(near)))
        operations.extend(("pop", 0.0) for __ in near[1:])
        pushed += 1 + len(near)
    # Each burst drains its live records (all but the cancelled one), so
    # the re-armed timer's corpses come to outnumber the live records by
    # the ninth burst at the latest.
    assert _drive(operations) >= 1
