"""A trace-driven link as two plain lists: the packets waiting, and the
delivery opportunities of the repeating trace.

``linkem/tracelink.py``'s ``TracePipe`` semantics (Mahimahi's
``link_queue.cc``) in integer time — arrivals in microseconds, the trace
in milliseconds — sharing no code with it:

* the link takes the first unconsumed opportunity at or after the instant
  it needs one; those that pass while it is idle are lost;
* an opportunity is one MTU of budget draining the list front to back; a
  packet that does not fit keeps its progress for the next; budget left
  when the list empties is discarded;
* packets arriving at an opportunity's instant join the list before it;
* ``max_packets`` bounds packets *waiting*: one being sent is on the wire.
"""

from typing import List, Optional, Sequence, Set, Tuple

from repro.net.packet import MTU_BYTES


def list_trace_link(
    times_ms: Sequence[int],
    arrivals: Sequence[Tuple[int, int]],
    max_packets: Optional[int] = None,
) -> Tuple[List[Optional[float]], Set[int], int]:
    """Run ``(time_us, size)`` arrivals through a link paced by the trace
    ``times_ms`` (repeating from time 0, offset by its last entry).

    Returns each arrival's delivery time in seconds (None if dropped), the
    dropped arrival indices, and the number of opportunities used.
    """
    opportunities: List[int] = []  # ms, every one, in order
    taken = 0  # opportunities[:taken] are used or lost

    def take(now_us: int) -> int:
        nonlocal taken
        while True:
            if taken == len(opportunities):
                base = len(opportunities) // len(times_ms) * times_ms[-1]
                opportunities.extend(base + t for t in times_ms)
            taken += 1
            if opportunities[taken - 1] * 1000 >= now_us:
                return opportunities[taken - 1]

    delivered: List[Optional[float]] = [None] * len(arrivals)
    dropped: Set[int] = set()
    waiting: List[List[int]] = []  # [arrival index, size, bytes sent]
    wake: Optional[int] = None  # the opportunity the link waits for, ms
    used = index = 0
    while index < len(arrivals) or wake is not None:
        if index < len(arrivals) and (
                wake is None or arrivals[index][0] <= wake * 1000):
            now_us, size = arrivals[index]
            if max_packets is not None and max_packets <= sum(
                    1 for packet in waiting if packet[2] == 0):
                dropped.add(index)
            else:
                waiting.append([index, size, 0])
                if wake is None:
                    wake = take(now_us)
            index += 1
            continue
        used += 1
        budget = MTU_BYTES
        while budget > 0 and waiting:
            head = waiting[0]
            sent = min(budget, head[1] - head[2])
            head[2] += sent
            budget -= sent
            if head[2] == head[1]:
                delivered[head[0]] = wake / 1000.0
                waiting.pop(0)
        wake = take(wake * 1000) if waiting else None
    return delivered, dropped, used
