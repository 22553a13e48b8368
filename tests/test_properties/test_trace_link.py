"""Property test: ``linkem.tracelink.TracePipe`` against the list-based
trace link in :mod:`repro.reference.link`.

The pipe drains each delivery opportunity through ``PacketPipe.deliver``,
one packet at a time, over a ``FileTraceSchedule`` that fast-forwards idle
gaps and wraps the trace; the reference walks one packet list and one
opportunity list in integer time. Hypothesis drives both with the same
traces and arrival sequences — aimed at the pitfalls *The Challenges of
Trace-Driven Wi-Fi Emulation* names: several opportunities in one
millisecond, long idle gaps that skip whole trace periods, and backlogs
that carry across the wrap — and requires the same delivery instant for
every packet, the same drops and the same opportunity count.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.linkem.overhead import OverheadModel
from repro.linkem.queues import DropTailQueue
from repro.linkem.trace import FileTraceSchedule, PacketDeliveryTrace
from repro.linkem.tracelink import TracePipe
from repro.net.address import IPv4Address
from repro.net.packet import Packet
from repro.reference import list_trace_link
from repro.sim import Simulator

#: Gaps between trace lines: mostly repeats (sub-millisecond bursts) and
#: short steps, sometimes a silence.
trace_gaps = st.lists(
    st.sampled_from([0, 0, 0, 1, 1, 2, 3, 7, 25]), min_size=1, max_size=12)

#: Gaps between arrivals, in microseconds: same-instant bursts, sub-
#: millisecond spacing, and whole milliseconds — which land exactly on
#: opportunities and, after a long idle, on trace-period boundaries.
arrival_gaps = st.one_of(
    st.just(0),
    st.integers(1, 2_500),
    st.integers(1, 400).map(lambda ms: ms * 1000),
)
arrivals = st.lists(
    st.tuples(arrival_gaps, st.integers(20, 1500)), min_size=1, max_size=40)


def to_trace(gaps):
    times, t = [], 0
    for gap in gaps:
        t += gap
        times.append(t)
    if times[-1] == 0:
        times[-1] = 1
    return times


def run_pipe(times_ms, timed_arrivals, max_packets):
    sim = Simulator()
    queue = None if max_packets is None else DropTailQueue(max_packets=max_packets)
    pipe = TracePipe(sim, FileTraceSchedule(PacketDeliveryTrace(times_ms)),
                     queue=queue, overhead=OverheadModel.none())
    delivered = [None] * len(timed_arrivals)
    index_of = {}

    def sink(packet):
        assert delivered[index_of[packet.uid]] is None
        delivered[index_of[packet.uid]] = sim.now

    pipe.attach_sink(sink)
    host = IPv4Address("10.0.0.1")
    for index, (time_us, size) in enumerate(timed_arrivals):
        packet = Packet(host, host, 1, 2, "udp", None, size)
        index_of[packet.uid] = index
        sim.schedule_at(time_us / 1e6, pipe.send, packet)
    sim.run()
    dropped = {i for i, when in enumerate(delivered) if when is None}
    assert pipe.packets_dropped == len(dropped)
    assert pipe.packets_delivered + pipe.packets_dropped == pipe.packets_sent
    return delivered, dropped, pipe.opportunities_used


@given(trace_gaps, arrivals, st.one_of(st.none(), st.integers(1, 6)))
@settings(max_examples=400, deadline=None)
def test_trace_pipe_agrees_with_the_list_link(gaps, spaced, max_packets):
    times_ms = to_trace(gaps)
    timed, now = [], 0
    for gap, size in spaced:
        now += gap
        timed.append((now, size))
    assert run_pipe(times_ms, timed, max_packets) == \
        list_trace_link(times_ms, timed, max_packets)


def test_idle_gap_ending_on_a_period_boundary_keeps_that_opportunity():
    """Trace ``[5, 10]`` has an opportunity at 20 ms (the second period's
    10 ms line); a packet arriving at exactly 20 ms after an idle link
    takes it, however many periods the idle spanned."""
    for arrival_ms in (10, 20, 30, 200):
        got = run_pipe([5, 10], [(arrival_ms * 1000, 100)], None)
        assert got == list_trace_link([5, 10], [(arrival_ms * 1000, 100)])
        assert got[0] == [arrival_ms / 1000.0]
