"""Tests for pipe composition (chaining through attach_sink) and pipe
bookkeeping."""

import pytest

from repro.linkem.delay import DelayPipe
from repro.net.address import IPv4Address
from repro.net.packet import tcp_packet
from repro.net.pipe import InstantPipe
from repro.sim import Simulator


def packet():
    return tcp_packet(IPv4Address("1.1.1.1"), IPv4Address("2.2.2.2"),
                      1, 2, None, data_len=100)


class TestInstantPipe:
    def test_delivers_via_event_loop(self):
        sim = Simulator()
        pipe = InstantPipe(sim)
        got = []
        pipe.attach_sink(got.append)
        pipe.send(packet())
        assert got == []          # not synchronous...
        sim.run()
        assert len(got) == 1      # ...but same virtual instant
        assert sim.now == 0.0

    def test_counters(self):
        sim = Simulator()
        pipe = InstantPipe(sim)
        pipe.attach_sink(lambda p: None)
        for _ in range(3):
            pipe.send(packet())
        sim.run()
        assert pipe.packets_sent == 3
        assert pipe.packets_delivered == 3
        assert pipe.bytes_delivered == 3 * 140


def chain(*stages):
    """Feed each stage's output into the next; return (first, last)."""
    for upstream, downstream in zip(stages, stages[1:]):
        upstream.attach_sink(downstream.send)
    return stages[0], stages[-1]


class TestChainPipe:
    def test_stages_compose_delays(self):
        sim = Simulator()
        first, last = chain(DelayPipe(sim, 0.010, service_time=0.0),
                            DelayPipe(sim, 0.025, service_time=0.0))
        got = []
        last.attach_sink(lambda p: got.append(sim.now))
        first.send(packet())
        sim.run()
        assert got == [pytest.approx(0.035)]

    def test_order_preserved_through_chain(self):
        sim = Simulator()
        first, last = chain(InstantPipe(sim),
                            DelayPipe(sim, 0.005, service_time=0.0),
                            InstantPipe(sim))
        got = []
        last.attach_sink(lambda p: got.append(p.uid))
        sent = [packet() for _ in range(10)]
        for p in sent:
            first.send(p)
        sim.run()
        assert got == [p.uid for p in sent]
