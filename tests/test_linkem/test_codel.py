"""Tests for the CoDel queue discipline."""

import pytest

from repro.linkem import CoDelQueue, DropTailQueue, TracePipe
from repro.linkem.trace import ConstantRateSchedule
from repro.net.address import IPv4Address
from repro.net.packet import tcp_packet
from repro.sim import Simulator
from repro.testing import TwoHostWorld
from repro.transport.wire import pieces_len


def packet(data_len=1460):
    return tcp_packet(IPv4Address("1.1.1.1"), IPv4Address("2.2.2.2"),
                      1, 2, None, data_len=data_len)


class TestCoDelQueueUnit:
    def test_short_queue_never_drops(self):
        q = CoDelQueue()
        # Sojourn always below target: no drops.
        now = 0.0
        for _ in range(100):
            q.push(packet(), now)
            got = q.pop(now + 0.001)  # 1 ms sojourn < 5 ms target
            assert got is not None
            now += 0.002
        assert q.drops == 0

    def test_persistent_delay_triggers_drops(self):
        q = CoDelQueue(target=0.005, interval=0.100)
        # Build a standing queue: everything waits 50 ms.
        for i in range(200):
            q.push(packet(), now=i * 0.001)
        drops_before = q.drops
        # Dequeue slowly, with every packet's sojourn far above target.
        now = 0.5
        dequeued = 0
        while q:
            got = q.pop(now)
            if got is not None:
                dequeued += 1
            now += 0.012  # 12 ms per dequeue: sojourn keeps growing
        assert q.drops > drops_before
        assert dequeued > 0

    def test_byte_accounting(self):
        q = CoDelQueue()
        q.push(packet(1000), 0.0)
        q.push(packet(460), 0.0)
        assert q.bytes == (1000 + 40) + (460 + 40)
        q.pop(0.001)
        assert q.bytes == 500

    def test_hard_capacity(self):
        q = CoDelQueue(max_packets=2)
        assert q.push(packet(), 0.0)
        assert q.push(packet(), 0.0)
        assert not q.push(packet(), 0.0)
        assert q.drops == 1

    def test_empty_pop_returns_none(self):
        assert CoDelQueue().pop(1.0) is None

    def test_bad_parameters(self):
        with pytest.raises(ValueError):
            CoDelQueue(target=0.0)
        with pytest.raises(ValueError):
            CoDelQueue(interval=-1.0)


class TestCoDelOnLink:
    def _world(self, queue):
        sim = Simulator(seed=0)
        from repro.linkem.delay import DelayPipe

        link = TracePipe(sim, ConstantRateSchedule(3e6), queue,
                         service_time=0.0)
        up = DelayPipe(sim, 0.020, service_time=0.0)
        world = TwoHostWorld(sim=sim, pipe_ab=up, pipe_ba=link)
        # The downlink's delay feeds its link.
        delay = DelayPipe(sim, 0.020, service_time=0.0)
        delay.attach_sink(link.send)
        world.veth.iface_b.attach_tx(delay)
        return world

    def _transfer(self, world, total=2_000_000):
        def on_conn(conn):
            conn.on_data = lambda p: conn.send_virtual(total)
        world.server.listen(None, 80, on_conn)
        conn = world.client.connect(world.server_endpoint)
        got = [0]
        conn.on_established = lambda: conn.send(b"GET")
        conn.on_data = lambda p: got.__setitem__(0, got[0] + pieces_len(p))
        world.sim.run_until(lambda: got[0] >= total, timeout=120)
        assert got[0] == total
        return world.sim.now

    def test_codel_keeps_standing_queue_short(self):
        codel = CoDelQueue()
        world = self._world(codel)
        self._transfer(world)
        assert codel.drops > 0  # slow-start overshoot got controlled

    def test_codel_vs_droptail_bufferbloat(self):
        # Bulk transfer + a ping-like probe: under unbounded drop-tail
        # the probe's RTT balloons (bufferbloat); under CoDel it stays
        # near the propagation delay.
        def probe_rtt(queue):
            world = self._world(queue)

            def on_conn(conn):
                conn.on_data = lambda p: conn.send_virtual(3_000_000)
            world.server.listen(None, 80, on_conn)
            bulk = world.client.connect(world.server_endpoint)
            bulk.on_established = lambda: bulk.send(b"GET")
            bulk.on_data = lambda p: None
            # Let the standing queue build, then time a fresh handshake
            # (SYN/SYN-ACK must cross the loaded downlink).
            world.sim.run_for(3.0)
            world.server.listen(None, 81, lambda c: None)
            probe = world.client.connect(world.endpoint(81))
            done = []
            probe.on_established = lambda: done.append(world.sim.now)
            start = world.sim.now
            world.sim.run_until(lambda: bool(done), timeout=60)
            return done[0] - start

        droptail_rtt = probe_rtt(DropTailQueue())
        codel_rtt = probe_rtt(CoDelQueue())
        assert codel_rtt < droptail_rtt / 3
        assert codel_rtt < 0.3

    def test_transfer_still_completes_under_codel(self):
        duration = self._transfer(self._world(CoDelQueue()))
        # 2 MB at 3 Mbit/s = 5.3 s minimum; CoDel costs some throughput
        # but must stay in the right regime.
        assert duration < 9.0
