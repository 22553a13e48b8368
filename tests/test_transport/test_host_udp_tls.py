"""Unit tests for the transport host (demux, ports), UDP, and TLS."""

import pytest

from repro.errors import ConnectionClosed, PortInUse, TransportError
from repro.net.address import Endpoint, IPv4Address
from repro.sim import Simulator
from repro.testing import TwoHostWorld, delayed_world
from repro.transport import tls
from repro.transport.host import TransportHost
from repro.transport.tls import TlsClientSession, TlsServerSession
from repro.transport.wire import pieces_len, pieces_to_bytes


class TestListeners:
    def test_specific_binding_beats_wildcard(self):
        world = TwoHostWorld()
        specific, wildcard = [], []
        world.server.listen("10.0.0.2", 80, specific.append)
        world.server.listen(None, 80, wildcard.append)
        world.client.connect(world.server_endpoint)
        world.sim.run_for(1.0)
        assert len(specific) == 1
        assert wildcard == []

    def test_wildcard_accepts_any_local_address(self):
        world = TwoHostWorld()
        got = []
        world.server.listen(None, 8080, got.append)
        world.client.connect(world.endpoint(8080))
        world.sim.run_for(1.0)
        assert len(got) == 1

    def test_duplicate_binding_rejected(self):
        world = TwoHostWorld()
        world.server.listen("10.0.0.2", 80, lambda c: None)
        with pytest.raises(PortInUse):
            world.server.listen("10.0.0.2", 80, lambda c: None)

    def test_closed_listener_sends_rst(self):
        world = TwoHostWorld()
        listener = world.server.listen(None, 80, lambda c: None)
        listener.close()
        conn = world.client.connect(world.server_endpoint)
        errors = []
        conn.on_error = errors.append
        world.sim.run_until(lambda: bool(errors), timeout=5)
        assert errors
        assert world.server.rst_sent == 1

    def test_accept_counter(self):
        world = TwoHostWorld()
        listener = world.server.listen(None, 80, lambda c: None)
        for _ in range(3):
            world.client.connect(world.server_endpoint)
        world.sim.run_for(1.0)
        assert listener.accepted == 3


class TestPortsAndTables:
    def test_ephemeral_ports_distinct(self):
        world = TwoHostWorld()
        world.server.listen(None, 80, lambda c: None)
        conns = [world.client.connect(world.server_endpoint) for _ in range(5)]
        ports = {c.local.port for c in conns}
        assert len(ports) == 5
        assert all(p >= 49152 for p in ports)

    def test_connection_table_cleanup(self):
        world = delayed_world(0.001)
        server_conns = []

        def on_conn(conn):
            server_conns.append(conn)
            conn.on_remote_close = conn.close
        world.server.listen(None, 80, on_conn)
        conn = world.client.connect(world.server_endpoint)
        world.sim.run_until(lambda: bool(server_conns), timeout=1)
        assert world.client.open_connections == 1
        conn.close()
        world.sim.run_for(2.0)
        assert world.client.open_connections == 0
        assert world.server.open_connections == 0
        assert world.client._tcp_ports == world.server._tcp_ports == {}

    def test_wrapped_allocator_skips_held_ports_and_reuses_freed_ones(self):
        world = delayed_world(0.001)

        def on_conn(conn):
            conn.on_remote_close = conn.close
        world.server.listen(None, 80, on_conn)
        held = world.client.connect(world.server_endpoint)
        freed = world.client.connect(world.server_endpoint)
        world.sim.run_for(1.0)
        assert list(world.server._tcp_ports.values()) == [2]  # both on :80
        freed.close()
        world.sim.run_for(2.0)
        assert world.client.open_connections == 1
        # As if the ephemeral range had wrapped back onto the held port.
        world.client._next_ephemeral = held.local.port
        again = world.client.connect(world.server_endpoint)
        assert again.local.port == freed.local.port == held.local.port + 1
        assert sorted(port for _, port in world.client._tcp_ports) == [
            held.local.port, again.local.port]

    def test_connect_without_route_raises(self):
        sim = Simulator()
        from repro.net.namespace import NetworkNamespace
        ns = NetworkNamespace(sim, "isolated")
        from repro.net.interface import Interface
        iface = ns.add_interface(Interface("lo0"))
        iface.add_address("10.9.9.9", 32)
        host = TransportHost(sim, ns)
        with pytest.raises(TransportError):
            host.connect(Endpoint(IPv4Address("8.8.8.8"), 80))

    def test_ensure_returns_singleton(self):
        sim = Simulator()
        from repro.net.namespace import NetworkNamespace
        ns = NetworkNamespace(sim, "ns")
        a = TransportHost.ensure(sim, ns)
        b = TransportHost.ensure(sim, ns)
        assert a is b


class TestUdp:
    def test_datagram_roundtrip(self):
        world = delayed_world(0.025)
        got = []
        server_sock = world.server.udp_socket(
            "10.0.0.2", 53,
            on_datagram=lambda data, src: got.append((data, src, world.sim.now)),
        )
        client_sock = world.client.udp_socket("10.0.0.1")
        client_sock.sendto(b"query", Endpoint(IPv4Address("10.0.0.2"), 53))
        world.sim.run()
        assert got[0][0] == b"query"
        assert got[0][2] == pytest.approx(0.025)

    def test_reply_path(self):
        world = delayed_world(0.010)
        replies = []

        def serve(data, src):
            server_sock.sendto(b"answer:" + data, src)
        server_sock = world.server.udp_socket("10.0.0.2", 53, on_datagram=serve)
        client_sock = world.client.udp_socket(
            "10.0.0.1", on_datagram=lambda d, s: replies.append(d))
        client_sock.sendto(b"q1", Endpoint(IPv4Address("10.0.0.2"), 53))
        world.sim.run()
        assert replies == [b"answer:q1"]

    def test_unbound_port_drops_silently(self):
        world = delayed_world(0.010)
        sock = world.client.udp_socket("10.0.0.1")
        sock.sendto(b"void", Endpoint(IPv4Address("10.0.0.2"), 9999))
        world.sim.run()  # must not raise

    def test_duplicate_bind_rejected(self):
        world = TwoHostWorld()
        world.server.udp_socket("10.0.0.2", 53)
        with pytest.raises(PortInUse):
            world.server.udp_socket("10.0.0.2", 53)

    def test_closed_socket_rejects_send(self):
        world = TwoHostWorld()
        sock = world.client.udp_socket("10.0.0.1")
        sock.close()
        with pytest.raises(ConnectionClosed):
            sock.sendto(b"x", Endpoint(IPv4Address("10.0.0.2"), 53))

    def test_close_releases_binding(self):
        world = TwoHostWorld()
        sock = world.server.udp_socket("10.0.0.2", 53)
        sock.close()
        world.server.udp_socket("10.0.0.2", 53)  # rebind OK


class TestTls:
    def _tls_world(self, delay=0.030):
        world = delayed_world(delay)
        sessions = []

        def on_conn(conn):
            session = TlsServerSession(conn)
            sessions.append(session)
            session.on_data = lambda pieces: session.send_virtual(10_000)
        world.server.listen(None, 443, on_conn)
        return world, sessions

    def test_handshake_costs_two_rtts(self):
        world, sessions = self._tls_world(0.050)
        conn = world.client.connect(world.endpoint(443))
        client = TlsClientSession(conn)
        ready = []
        client.on_established = lambda: ready.append(world.sim.now)
        world.sim.run_until(lambda: bool(ready), timeout=5)
        # TCP handshake 1 RTT + TLS flights 2 RTT = 0.300, plus the cert
        # flight spans multiple segments within the same RTT.
        assert ready[0] == pytest.approx(0.300, abs=0.02)

    def test_data_flows_after_handshake(self):
        world, sessions = self._tls_world(0.010)
        conn = world.client.connect(world.endpoint(443))
        client = TlsClientSession(conn)
        got = []
        client.on_data = got.extend
        client.on_established = lambda: client.send(b"GET /")
        world.sim.run_until(lambda: pieces_len(got) >= 10_000, timeout=5)
        assert pieces_len(got) == 10_000

    def test_server_sees_app_bytes_only(self):
        world = delayed_world(0.010)
        server_app = []

        def on_conn(conn):
            session = TlsServerSession(conn)
            session.on_data = server_app.extend
        world.server.listen(None, 443, on_conn)
        conn = world.client.connect(world.endpoint(443))
        client = TlsClientSession(conn)
        client.on_established = lambda: client.send(b"secret-request")
        world.sim.run_until(lambda: pieces_len(server_app) >= 14, timeout=5)
        assert pieces_to_bytes(server_app) == b"secret-request"

    def test_custom_flight_sizes(self, monkeypatch):
        # A giant cert chain.
        monkeypatch.setattr(tls, "SERVER_FLIGHT_BYTES", 100_000)
        world = delayed_world(0.020)

        def on_conn(conn):
            TlsServerSession(conn)
        world.server.listen(None, 443, on_conn)
        conn = world.client.connect(world.endpoint(443))
        client = TlsClientSession(conn)
        ready = []
        client.on_established = lambda: ready.append(world.sim.now)
        world.sim.run_until(lambda: bool(ready), timeout=5)
        # 100 KB cert chain needs slow-start rounds: noticeably more than
        # the 3-RTT minimum (0.12).
        assert ready[0] >= 0.19
