"""Behavioural tests for the TCP implementation.

These run real two-namespace worlds and assert on timing, loss recovery,
and teardown — the properties every page-load measurement depends on.
"""

import pytest

from repro.errors import ConnectionClosed, TransportError
from repro.sim import Simulator
from repro.testing import ScriptedLossPipe, TwoHostWorld, delayed_world
from repro.transport import tcp
from repro.transport.wire import pieces_len, pieces_to_bytes


def echo_server(world, port=80, respond=None):
    """Listener that calls ``respond(conn, pieces)`` on each delivery."""
    conns = []

    def on_conn(conn):
        conns.append(conn)
        if respond is not None:
            conn.on_data = lambda pieces: respond(conn, pieces)

    world.server.listen(None, port, on_conn)
    return conns


class TestHandshake:
    def test_connect_takes_one_rtt(self):
        world = delayed_world(0.050)
        echo_server(world)
        conn = world.client.connect(world.server_endpoint)
        established = []
        conn.on_established = lambda: established.append(world.sim.now)
        world.sim.run_until(lambda: bool(established))
        assert established == [pytest.approx(0.100)]

    def test_server_side_accept_fires(self):
        world = delayed_world(0.010)
        conns = echo_server(world)
        world.client.connect(world.server_endpoint)
        world.sim.run_until(lambda: bool(conns), timeout=1)
        assert len(conns) == 1
        assert conns[0].state == "ESTABLISHED"

    def test_connect_to_dead_port_resets(self):
        world = delayed_world(0.010)
        conn = world.client.connect(world.server_endpoint)  # nothing listens
        errors = []
        conn.on_error = errors.append
        world.sim.run_until(lambda: bool(errors), timeout=5)
        assert isinstance(errors[0], TransportError)
        assert conn.state == "CLOSED"

    def test_syn_loss_retries_and_succeeds(self):
        sim = Simulator()
        # Drop the first packet ever sent client->server (the SYN).
        lossy_up = ScriptedLossPipe(sim, 0.010, drop_indices={0})
        from repro.linkem.delay import DelayPipe
        down = DelayPipe(sim, 0.010, service_time=0.0)
        world = TwoHostWorld(sim=sim, pipe_ab=lossy_up, pipe_ba=down)
        echo_server(world)
        conn = world.client.connect(world.server_endpoint)
        established = []
        conn.on_established = lambda: established.append(sim.now)
        sim.run_until(lambda: bool(established), timeout=10)
        # Initial RTO is 1 s: established after ~1 s + RTT.
        assert established and established[0] == pytest.approx(1.020, abs=0.01)

    def test_handshake_gives_rtt_sample(self):
        world = delayed_world(0.040)
        echo_server(world)
        conn = world.client.connect(world.server_endpoint)
        world.sim.run_until(lambda: conn.state == "ESTABLISHED")
        assert conn.srtt == pytest.approx(0.080, abs=0.001)

    def test_handshake_gives_up_after_retries(self, monkeypatch):
        monkeypatch.setattr(tcp, "MAX_SYN_RETRIES", 2)
        sim = Simulator()
        lossy = ScriptedLossPipe(sim, 0.010, drop_indices=set(range(100)))
        from repro.linkem.delay import DelayPipe
        world = TwoHostWorld(
            sim=sim, pipe_ab=lossy,
            pipe_ba=DelayPipe(sim, 0.010, service_time=0.0),
        )
        conn = world.client.connect(world.server_endpoint)
        errors = []
        conn.on_error = errors.append
        sim.run_until(lambda: bool(errors), timeout=60)
        assert "timed out" in str(errors[0])


class TestDataTransfer:
    def test_bytes_arrive_intact(self):
        world = delayed_world(0.005)
        received = []
        echo_server(world, respond=lambda conn, pieces: received.extend(pieces))
        conn = world.client.connect(world.server_endpoint)
        conn.on_established = lambda: conn.send(b"hello world")
        world.sim.run_until(lambda: pieces_len(received) >= 11, timeout=2)
        assert pieces_to_bytes(received) == b"hello world"

    def test_large_virtual_transfer_complete(self):
        world = delayed_world(0.005)
        total = [0]
        echo_server(world, respond=lambda conn, pieces:
                    total.__setitem__(0, total[0] + pieces_len(pieces)))
        conn = world.client.connect(world.server_endpoint)
        conn.on_established = lambda: conn.send_virtual(500_000)
        world.sim.run_until(lambda: total[0] >= 500_000, timeout=10)
        assert total[0] == 500_000

    def test_segmentation_respects_mss(self):
        world = delayed_world(0.005)
        echo_server(world)
        conn = world.client.connect(world.server_endpoint)
        conn.on_established = lambda: conn.send_virtual(10_000)
        world.sim.run_until(lambda: conn._snd_una > 10_000, timeout=2)
        # 10000 bytes at MSS 1460 -> 7 segments + SYN.
        assert conn.segments_sent >= 8

    def test_fixed_window_transfer_timing(self, monkeypatch):
        # One segment per RTT with a 1-MSS window: deterministic timing.
        monkeypatch.setattr(tcp, "RECEIVE_WINDOW", 1460)
        world = delayed_world(0.050)
        total = [0]
        echo_server(world, respond=lambda conn, pieces:
                    total.__setitem__(0, total[0] + pieces_len(pieces)))
        conn = world.client.connect(world.server_endpoint)
        conn.on_established = lambda: conn.send_virtual(1460 * 4)
        world.sim.run_until(lambda: total[0] >= 1460 * 4, timeout=10)
        # handshake 1 RTT + 4 segments x 1 RTT each (stop and wait), the
        # last one only needs half an RTT to arrive.
        assert world.sim.now == pytest.approx(0.100 + 3 * 0.100 + 0.050,
                                              abs=0.01)

    def test_slow_start_doubles_delivery_per_rtt(self):
        world = delayed_world(0.050)
        echo_server(world, respond=lambda conn, pieces: None)
        conn = world.client.connect(world.server_endpoint)
        conn.on_established = lambda: conn.send_virtual(1_000_000)
        server_conns = []
        world.sim.run_until(lambda: conn._snd_una >= 1_000_000, timeout=30)
        # 1 MB at IW 10 and RTT 0.1: 10+20+40+80+160+320+640 segments
        # -> 7 transfer rounds. Total ~ handshake + 7 RTT.
        assert world.sim.now == pytest.approx(0.85, abs=0.1)

    def test_receive_window_caps_flight(self, monkeypatch):
        monkeypatch.setattr(tcp, "RECEIVE_WINDOW", 8 * 1460)
        world = delayed_world(0.020)
        echo_server(world)
        conn = world.client.connect(world.server_endpoint)
        conn.on_established = lambda: conn.send_virtual(200_000)
        world.sim.run_for(0.5)
        assert conn._snd_nxt - conn._snd_una <= 8 * 1460

    def test_bidirectional_exchange(self):
        world = delayed_world(0.010)
        got_request = []

        def respond(conn, pieces):
            got_request.extend(pieces)
            conn.send(b"response-bytes")

        echo_server(world, respond=respond)
        reply = []
        conn = world.client.connect(world.server_endpoint)
        conn.on_established = lambda: conn.send(b"request")
        conn.on_data = reply.extend
        world.sim.run_until(lambda: pieces_len(reply) >= 14, timeout=2)
        assert pieces_to_bytes(got_request) == b"request"
        assert pieces_to_bytes(reply) == b"response-bytes"

    def test_send_before_established_is_buffered(self):
        world = delayed_world(0.050)
        received = []
        echo_server(world, respond=lambda c, p: received.extend(p))
        conn = world.client.connect(world.server_endpoint)
        conn.send(b"early")  # queued during handshake
        world.sim.run_until(lambda: pieces_len(received) >= 5, timeout=2)
        assert pieces_to_bytes(received) == b"early"


class TestLossRecovery:
    def _lossy_world(self, drop_indices, delay=0.020):
        sim = Simulator()
        from repro.linkem.delay import DelayPipe
        lossy_down = ScriptedLossPipe(sim, delay, drop_indices)
        world = TwoHostWorld(
            sim=sim,
            pipe_ab=DelayPipe(sim, delay, service_time=0.0),
            pipe_ba=lossy_down,  # server->client loses packets
        )
        return world

    def test_single_data_loss_fast_retransmits(self):
        # Server sends 100 KB; one mid-stream data packet is lost.
        world = self._lossy_world(drop_indices={10})
        total = [0]
        server_conns = echo_server(
            world, respond=lambda conn, pieces: conn.send_virtual(100_000)
        )
        conn = world.client.connect(world.server_endpoint)
        conn.on_established = lambda: conn.send(b"GET")
        conn.on_data = lambda pieces: total.__setitem__(
            0, total[0] + pieces_len(pieces))
        world.sim.run_until(lambda: total[0] >= 100_000, timeout=30)
        assert total[0] == 100_000
        server = server_conns[0]
        assert server.retransmissions == 1
        # Fast retransmit, not RTO: recovery adds ~1 RTT, so the whole
        # transfer still completes quickly.
        assert world.sim.now < 0.5

    def test_burst_loss_recovers(self):
        world = self._lossy_world(drop_indices=set(range(8, 16)))
        total = [0]
        server_conns = echo_server(
            world, respond=lambda conn, pieces: conn.send_virtual(150_000)
        )
        conn = world.client.connect(world.server_endpoint)
        conn.on_established = lambda: conn.send(b"GET")
        conn.on_data = lambda pieces: total.__setitem__(
            0, total[0] + pieces_len(pieces))
        world.sim.run_until(lambda: total[0] >= 150_000, timeout=30)
        assert total[0] == 150_000
        assert server_conns[0].retransmissions >= 8

    def test_retransmission_timeout_on_tail_loss(self):
        # Lose the last data segment: no dupacks possible -> RTO path.
        # 30000B = 21 segments; server packets: SYNACK(0), ACK?(...) data...
        world = self._lossy_world(drop_indices={21})
        total = [0]
        server_conns = echo_server(
            world, respond=lambda conn, pieces: conn.send_virtual(30_000)
        )
        conn = world.client.connect(world.server_endpoint)
        conn.on_established = lambda: conn.send(b"GET")
        conn.on_data = lambda pieces: total.__setitem__(
            0, total[0] + pieces_len(pieces))
        world.sim.run_until(lambda: total[0] >= 30_000, timeout=30)
        assert total[0] == 30_000
        assert server_conns[0].retransmissions >= 1

    def test_stream_integrity_under_loss(self):
        # Real bytes, arbitrary losses: content must survive reordering
        # and retransmission intact.
        world = self._lossy_world(drop_indices={3, 7, 11})
        payload = bytes(range(256)) * 100  # 25.6 KB patterned data
        got = []
        echo_server(world, respond=lambda conn, pieces: conn.send(payload))
        conn = world.client.connect(world.server_endpoint)
        conn.on_established = lambda: conn.send(b"GET")
        conn.on_data = got.extend
        world.sim.run_until(lambda: pieces_len(got) >= len(payload), timeout=30)
        assert pieces_to_bytes(got) == payload


class TestTeardown:
    def test_clean_close_both_sides(self):
        world = delayed_world(0.010)
        server_conns = echo_server(world)
        conn = world.client.connect(world.server_endpoint)
        closed = []
        conn.on_close = lambda: closed.append("client")
        world.sim.run_until(lambda: bool(server_conns), timeout=2)
        server = server_conns[0]
        server.on_remote_close = lambda: server.close()
        conn.close()
        world.sim.run_until(lambda: bool(closed), timeout=5)
        assert conn.state == "CLOSED"
        # Let the client's final ACK (in flight when on_close fired) land.
        world.sim.run_for(1.0)
        assert server.state == "CLOSED"

    def test_close_flushes_pending_data(self):
        world = delayed_world(0.010)
        total = [0]
        echo_server(world, respond=lambda c, p:
                    total.__setitem__(0, total[0] + pieces_len(p)))
        conn = world.client.connect(world.server_endpoint)
        conn.send_virtual(50_000)
        conn.close()  # FIN must wait for the 50 KB
        world.sim.run_until(lambda: total[0] >= 50_000, timeout=10)
        assert total[0] == 50_000

    def test_send_after_close_rejected(self):
        world = delayed_world(0.010)
        echo_server(world)
        conn = world.client.connect(world.server_endpoint)
        conn.close()
        with pytest.raises(ConnectionClosed):
            conn.send(b"late")

    def test_remote_close_callback(self):
        world = delayed_world(0.010)
        server_conns = echo_server(world)
        conn = world.client.connect(world.server_endpoint)
        remote_closed = []
        conn.on_remote_close = lambda: remote_closed.append(world.sim.now)
        world.sim.run_until(lambda: bool(server_conns), timeout=2)
        server_conns[0].close()
        world.sim.run_until(lambda: bool(remote_closed), timeout=5)
        assert remote_closed

    def test_abort_sends_rst(self):
        world = delayed_world(0.010)
        server_conns = echo_server(world)
        conn = world.client.connect(world.server_endpoint)
        world.sim.run_until(lambda: bool(server_conns), timeout=2)
        errors = []
        server_conns[0].on_error = errors.append
        conn.abort()
        world.sim.run_until(lambda: bool(errors), timeout=2)
        assert "reset" in str(errors[0])


class TestDeterminism:
    def _run_once(self, seed):
        world = delayed_world(0.030, seed=seed)
        done = []
        echo_server(world, respond=lambda conn, pieces:
                    conn.send_virtual(200_000))
        conn = world.client.connect(world.server_endpoint)
        total = [0]
        conn.on_established = lambda: conn.send(b"GET")

        def on_data(pieces):
            total[0] += pieces_len(pieces)
            if total[0] >= 200_000:
                done.append(world.sim.now)
        conn.on_data = on_data
        world.sim.run_until(lambda: bool(done), timeout=30)
        return done[0], world.sim.events_processed

    def test_identical_seeds_identical_runs(self):
        assert self._run_once(5) == self._run_once(5)


class TestPacketRetention:
    def test_observer_may_keep_every_packet_it_is_shown(self):
        # Packets and segments are allocated per send and never reused, so
        # anything that holds on to one (a capture, a prerouting hook, a
        # debugger) holds a distinct object nobody writes to afterwards.
        # This is the test that fails if a free list comes back.
        world = delayed_world(0.010)
        kept = []
        world.client_ns.prerouting_hooks.append(
            lambda packet, interface: kept.append(
                (packet, packet.uid, packet.payload, packet.size,
                 packet.payload.seq)))
        echo_server(world, respond=lambda conn, pieces:
                    conn.send_virtual(100_000))
        conn = world.client.connect(world.server_endpoint)
        total = [0]
        conn.on_established = lambda: conn.send(b"GET")

        def on_data(pieces):
            total[0] += pieces_len(pieces)
        conn.on_data = on_data
        world.sim.run_until(lambda: total[0] >= 100_000, timeout=60)
        assert total[0] == 100_000

        # SYN-ACK plus ceil(100 000 / 1460) = 69 data segments.
        assert len(kept) == 70
        assert len({id(entry[0]) for entry in kept}) == len(kept)
        assert len({id(entry[2]) for entry in kept}) == len(kept)
        for packet, uid, segment, size, seq in kept:
            assert packet.uid == uid
            assert packet.payload is segment
            assert packet.size == size
            assert segment.seq == seq
