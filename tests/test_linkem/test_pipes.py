"""Unit tests for delay pipes, trace pipes, and the processing model."""

import pytest

from repro import calibration
from repro.linkem.delay import DelayPipe, JitterDelayPipe
from repro.linkem.processing import SerialProcessor
from repro.linkem.queues import DropTailQueue
from repro.linkem.trace import ConstantRateSchedule, FileTraceSchedule, PacketDeliveryTrace
from repro.linkem.tracelink import TracePipe
from repro.net.address import IPv4Address
from repro.net.packet import tcp_packet
from repro.sim import RandomStreams, Simulator


def packet(data_len=1000):
    return tcp_packet(IPv4Address("1.1.1.1"), IPv4Address("2.2.2.2"),
                      1, 2, None, data_len=data_len)


class TestSerialProcessor:
    def test_zero_service_time_is_free(self):
        proc = SerialProcessor(0.0)
        assert proc.finish_time(5.0) == 5.0

    def test_idle_server_serves_immediately(self):
        proc = SerialProcessor(0.001)
        assert proc.finish_time(5.0) == pytest.approx(5.001)

    def test_busy_server_queues(self):
        proc = SerialProcessor(0.001)
        assert proc.finish_time(0.0) == pytest.approx(0.001)
        assert proc.finish_time(0.0) == pytest.approx(0.002)
        assert proc.finish_time(0.0) == pytest.approx(0.003)

    def test_gap_resets_horizon(self):
        proc = SerialProcessor(0.001)
        proc.finish_time(0.0)
        assert proc.finish_time(10.0) == pytest.approx(10.001)

    def test_negative_service_time_rejected(self):
        with pytest.raises(ValueError):
            SerialProcessor(-0.1)


class TestDelayPipe:
    def test_fixed_delay(self):
        sim = Simulator()
        pipe = DelayPipe(sim, 0.040, service_time=0.0)
        got = []
        pipe.attach_sink(lambda p: got.append(sim.now))
        pipe.send(packet())
        sim.run()
        assert got == [pytest.approx(0.040)]

    def test_order_preserved(self):
        sim = Simulator()
        pipe = DelayPipe(sim, 0.010, service_time=0.0)
        got = []
        pipe.attach_sink(lambda p: got.append(p.uid))
        sent = [packet() for _ in range(5)]
        for p in sent:
            pipe.send(p)
        sim.run()
        assert got == [p.uid for p in sent]

    def test_zero_delay_with_overhead_serializes(self):
        sim = Simulator()
        pipe = DelayPipe(sim, 0.0, service_time=1e-6)
        got = []
        pipe.attach_sink(lambda p: got.append(sim.now))
        for _ in range(3):
            pipe.send(packet())
        sim.run()
        assert got == [pytest.approx(1e-6), pytest.approx(2e-6),
                       pytest.approx(3e-6)]

    def test_default_overhead_is_calibrated_delay_shell(self):
        sim = Simulator()
        pipe = DelayPipe(sim, 0.0)
        got = []
        pipe.attach_sink(lambda p: got.append(sim.now))
        pipe.send(packet())
        sim.run()
        assert got[0] == pytest.approx(calibration.DELAY_SERVICE_TIME)

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            DelayPipe(Simulator(), -0.1)

    @pytest.mark.parametrize("delay", [float("nan"), float("inf")])
    def test_non_finite_delay_rejected(self, delay):
        with pytest.raises(ValueError, match="finite"):
            DelayPipe(Simulator(), delay)

    def test_counters(self):
        sim = Simulator()
        pipe = DelayPipe(sim, 0.01, service_time=0.0)
        pipe.attach_sink(lambda p: None)
        pipe.send(packet())
        sim.run()
        assert pipe.packets_sent == 1
        assert pipe.packets_delivered == 1
        assert pipe.bytes_delivered == 1040

    def test_unattached_sink_blackholes(self):
        sim = Simulator()
        pipe = DelayPipe(sim, 0.01, service_time=0.0)
        pipe.send(packet())
        sim.run()
        assert pipe.packets_dropped == 1


class TestJitterDelayPipe:
    def test_base_delay_respected(self):
        sim = Simulator()
        rng = RandomStreams(1).stream("jitter")
        pipe = JitterDelayPipe(sim, 0.020, 0.002, rng)
        got = []
        pipe.attach_sink(lambda p: got.append(sim.now))
        pipe.send(packet())
        sim.run()
        assert got[0] >= 0.020

    def test_ordering_preserved_despite_jitter(self):
        sim = Simulator()
        rng = RandomStreams(2).stream("jitter")
        pipe = JitterDelayPipe(sim, 0.010, 0.005, rng)
        got = []
        pipe.attach_sink(lambda p: got.append(p.uid))
        sent = [packet() for _ in range(50)]
        for p in sent:
            pipe.send(p)
        sim.run()
        assert got == [p.uid for p in sent]

    def test_zero_jitter_is_deterministic(self):
        sim = Simulator()
        rng = RandomStreams(3).stream("jitter")
        pipe = JitterDelayPipe(sim, 0.015, 0.0, rng)
        got = []
        pipe.attach_sink(lambda p: got.append(sim.now))
        pipe.send(packet())
        sim.run()
        assert got == [pytest.approx(0.015)]


class TestTracePipe:
    def _pipe(self, sim, rate_bps=12e6, queue=None):
        pipe = TracePipe(sim, ConstantRateSchedule(rate_bps),
                         queue, service_time=0.0)
        got = []
        pipe.attach_sink(lambda p: got.append((sim.now, p)))
        return pipe, got

    def test_single_packet_waits_for_opportunity(self):
        sim = Simulator()
        pipe, got = self._pipe(sim)  # 12 Mbit/s = 1 MTU/ms
        pipe.send(packet(1460))  # full MTU
        sim.run()
        assert len(got) == 1
        assert got[0][0] == pytest.approx(0.001)

    def test_rate_enforced_for_backlog(self):
        sim = Simulator()
        pipe, got = self._pipe(sim)
        for _ in range(10):
            pipe.send(packet(1460))  # 10 MTU packets
        sim.run()
        # One per opportunity: delivered at 1ms..10ms.
        assert len(got) == 10
        assert got[-1][0] == pytest.approx(0.010)

    def test_small_packets_share_opportunity(self):
        sim = Simulator()
        pipe, got = self._pipe(sim)
        for _ in range(3):
            pipe.send(packet(300))  # 340B each; 4 fit in one MTU budget
        sim.run()
        times = [t for t, __ in got]
        assert times == [pytest.approx(0.001)] * 3

    def test_byte_budget_exactly_consumed_by_full_packet(self):
        sim = Simulator()
        pipe, got = self._pipe(sim)
        pipe.send(packet(1460))  # 1500B wire: exactly one budget
        pipe.send(packet(1460))
        pipe.send(packet(100))   # 140B: needs the *next* opportunity,
        sim.run()                # because packet 2 left zero budget.
        assert got[0][0] == pytest.approx(0.001)
        assert got[1][0] == pytest.approx(0.002)
        assert got[2][0] == pytest.approx(0.003)

    def test_mixed_sizes_budget_accounting(self):
        sim = Simulator()
        pipe, got = self._pipe(sim)
        pipe.send(packet(800))   # 840B
        pipe.send(packet(500))   # 540B -> shares opportunity 1 (1380 total)
        pipe.send(packet(500))   # 540B -> 120B left: partial, finishes at 2
        sim.run()
        times = [t for t, __ in got]
        assert times[0] == pytest.approx(0.001)
        assert times[1] == pytest.approx(0.001)
        assert times[2] == pytest.approx(0.002)

    def test_idle_budget_not_banked(self):
        sim = Simulator()
        pipe, got = self._pipe(sim)
        pipe.send(packet(1460))
        sim.run()
        # Let the link sit idle past 5 more opportunities...
        sim.run(until=0.0062)
        # ...then offer a burst: it must trickle out one per opportunity,
        # not flush instantly using the "banked" idle capacity.
        for _ in range(3):
            pipe.send(packet(1460))
        sim.run()
        times = [t for t, __ in got[1:]]
        assert times[0] >= 0.0062
        assert times[2] - times[0] == pytest.approx(0.002)

    def test_queue_overflow_drops(self):
        sim = Simulator()
        queue = DropTailQueue(max_packets=5)
        pipe, got = self._pipe(sim, queue=queue)
        for _ in range(10):
            pipe.send(packet(1460))
        sim.run()
        assert len(got) == 5
        assert pipe.packets_dropped == 5

    def test_file_trace_pacing(self):
        sim = Simulator()
        trace = PacketDeliveryTrace([5, 10])
        pipe = TracePipe(sim, FileTraceSchedule(trace), None, service_time=0.0)
        got = []
        pipe.attach_sink(lambda p: got.append(sim.now))
        for _ in range(4):
            pipe.send(packet(1460))
        sim.run()
        assert got == [pytest.approx(0.005), pytest.approx(0.010),
                       pytest.approx(0.015), pytest.approx(0.020)]

    def test_throughput_matches_trace_rate(self):
        sim = Simulator()
        pipe, got = self._pipe(sim, rate_bps=8e6)
        total = 0
        # Offer 2 seconds of backlog at 8 Mbit/s = 2 MB.
        n_packets = 1370  # x 1460B data
        for _ in range(n_packets):
            pipe.send(packet(1460))
        sim.run()
        duration = got[-1][0]
        delivered_bits = sum(p.size for __, p in got) * 8
        rate = delivered_bits / duration
        assert rate == pytest.approx(8e6, rel=0.01)
