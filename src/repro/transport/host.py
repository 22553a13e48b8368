"""Per-namespace transport host: socket tables and demux.

One :class:`TransportHost` attaches to each namespace that originates or
terminates traffic. It owns the TCP listener and connection tables, the UDP
socket table, and the ephemeral-port allocator, and it is the namespace's
``attach_transport`` sink: every packet locally delivered by the namespace
lands in :meth:`receive` and is dispatched to the right connection, listener
(spawning a passive connection), or UDP socket. Unmatched TCP packets get a
RST, like a real host.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

from repro.errors import PortInUse, TransportError
from repro.net.address import Endpoint, IPv4Address
from repro.net.namespace import NetworkNamespace
from repro.net.packet import Packet, tcp_packet
from repro.sim.simulator import Simulator
from repro.transport.tcp import TcpConfig, TcpConnection, TcpSegment
from repro.transport.udp import UdpSocket

_EPHEMERAL_FIRST = 49152
_EPHEMERAL_LAST = 65535

#: Connection-table key: raw 32-bit address values, not IPv4Address — the
#: demux probe runs once per delivered packet and int keys hash without a
#: Python __hash__/__eq__ frame.
ConnKey = Tuple[int, int, int, int]


class TcpListener:
    """A passive TCP socket: accepts connections on (address, port).

    ``on_connection(conn)`` fires when a new connection completes its
    handshake. Store the returned listener and call :meth:`close` to stop
    accepting.
    """

    def __init__(
        self,
        host: "TransportHost",
        address: Optional[IPv4Address],
        port: int,
        on_connection: Callable[[TcpConnection], None],
        config: Optional[TcpConfig],
    ) -> None:
        self.host = host
        self.address = address
        self.port = port
        self.on_connection = on_connection
        self.config = config
        self.accepted = 0

    def close(self) -> None:
        """Stop accepting new connections (existing ones are unaffected)."""
        self.host._remove_listener(self)

    def __repr__(self) -> str:
        bound = self.address if self.address is not None else "*"
        return f"<TcpListener {bound}:{self.port} accepted={self.accepted}>"


class TransportHost:
    """Transport layer for one namespace.

    Args:
        sim: the simulator.
        namespace: the namespace whose local deliveries this host handles.
        tcp_config: default config for connections created by this host.
    """

    def __init__(
        self,
        sim: Simulator,
        namespace: NetworkNamespace,
        tcp_config: Optional[TcpConfig] = None,
    ) -> None:
        self.sim = sim
        self.namespace = namespace
        self.tcp_config = tcp_config if tcp_config is not None else TcpConfig()
        namespace.attach_transport(self.receive)
        namespace.transport_host = self
        self._connections: Dict[ConnKey, TcpConnection] = {}
        # How many connections hold each local (address value, port), so
        # picking an ephemeral port is a lookup, not a scan of the table.
        self._tcp_ports: Dict[Tuple[int, int], int] = {}
        self._listeners: Dict[Tuple[Optional[int], int], TcpListener] = {}
        self._udp_sockets: Dict[Tuple[int, int], UdpSocket] = {}
        self._next_ephemeral = _EPHEMERAL_FIRST
        self.rst_sent = 0

    @classmethod
    def ensure(
        cls,
        sim: Simulator,
        namespace: NetworkNamespace,
        tcp_config: Optional[TcpConfig] = None,
    ) -> "TransportHost":
        """The namespace's transport host, created on first use.

        A namespace has exactly one socket table; components that might
        share a namespace (proxies, DNS servers, applications) must go
        through this instead of constructing a second host.
        """
        existing = getattr(namespace, "transport_host", None)
        if existing is not None:
            return existing
        return cls(sim, namespace, tcp_config)

    # ------------------------------------------------------------------ #
    # TCP

    def listen(
        self,
        address,
        port: int,
        on_connection: Callable[[TcpConnection], None],
        config: Optional[TcpConfig] = None,
    ) -> TcpListener:
        """Open a passive socket on (address, port).

        ``address`` may be None (wildcard) or any address local to the
        namespace.

        Raises:
            PortInUse: if another listener holds the same binding.
        """
        addr = None if address is None else IPv4Address(address)
        key = (None if addr is None else addr._value, port)
        if key in self._listeners:
            raise PortInUse(f"already listening on {addr}:{port}")
        listener = TcpListener(self, addr, port, on_connection, config)
        self._listeners[key] = listener
        return listener

    def connect(
        self,
        remote: Endpoint,
        local_address: Optional[IPv4Address] = None,
        config: Optional[TcpConfig] = None,
    ) -> TcpConnection:
        """Open an active connection to ``remote``; returns immediately.

        Assign the connection's callbacks (``on_established`` et al.) before
        the simulator runs. The source address defaults to the address of
        the interface the route to ``remote`` uses (or the destination
        itself for namespace-local connections).
        """
        if local_address is None:
            local_address = self._source_address_for(remote.address)
        local = Endpoint(local_address, self._allocate_port(local_address))
        conn = TcpConnection(
            self.sim,
            self,
            local,
            remote,
            config if config is not None else self.tcp_config,
            passive=False,
        )
        self._register(conn)
        conn.connect()
        return conn

    def _register(self, conn: TcpConnection) -> None:
        """Enter a new connection in the demux table."""
        local, remote = conn.local, conn.remote
        bound = (local.address._value, local.port)
        self._connections[bound + (remote.address._value, remote.port)] = conn
        self._tcp_ports[bound] = self._tcp_ports.get(bound, 0) + 1

    def _source_address_for(self, destination: IPv4Address) -> IPv4Address:
        if self.namespace.is_local(destination):
            return destination
        route = self.namespace.routes.try_lookup(destination)
        if route is None:
            raise TransportError(f"{self.namespace.name}: no route to {destination}")
        return route.interface.primary_address

    def _allocate_port(self, address: IPv4Address) -> int:
        value = address._value
        for __ in range(_EPHEMERAL_LAST - _EPHEMERAL_FIRST + 1):
            port = self._next_ephemeral
            self._next_ephemeral += 1
            if self._next_ephemeral > _EPHEMERAL_LAST:
                self._next_ephemeral = _EPHEMERAL_FIRST
            bound = (value, port)
            if bound not in self._tcp_ports and bound not in self._udp_sockets:
                return port
        raise TransportError("ephemeral port range exhausted")

    def connection_closed(self, conn: TcpConnection) -> None:
        """Remove a terminated connection from the table (called by TCP)."""
        key = (
            conn.local.address._value,
            conn.local.port,
            conn.remote.address._value,
            conn.remote.port,
        )
        if self._connections.pop(key, None) is not None:
            bound = key[:2]
            self._tcp_ports[bound] -= 1
            if not self._tcp_ports[bound]:
                del self._tcp_ports[bound]

    # ------------------------------------------------------------------ #
    # UDP

    def udp_socket(
        self,
        address,
        port: int = 0,
        on_datagram: Optional[Callable] = None,
    ) -> UdpSocket:
        """Bind a UDP socket; ``port=0`` picks an ephemeral port.

        Raises:
            PortInUse: on an explicit (address, port) collision.
        """
        addr = IPv4Address(address)
        if port == 0:
            port = self._allocate_port(addr)
        if (addr._value, port) in self._udp_sockets:
            raise PortInUse(f"UDP {addr}:{port} already bound")
        sock = UdpSocket(self, Endpoint(addr, port), on_datagram)
        self._udp_sockets[(addr._value, port)] = sock
        return sock

    def udp_socket_closed(self, sock: UdpSocket) -> None:
        """Remove a closed UDP socket (called by the socket)."""
        self._udp_sockets.pop((sock.local.address._value, sock.local.port), None)

    # ------------------------------------------------------------------ #
    # datapath

    def send_packet(self, packet: Packet) -> None:
        """Hand an outbound packet to the namespace's routing."""
        self.namespace.originate(packet)

    def receive(self, packet: Packet) -> None:
        """Demux one locally delivered packet."""
        if packet.protocol == "tcp":
            self._receive_tcp(packet)
        elif packet.protocol == "udp":
            self._receive_udp(packet)
        # Other protocols are silently dropped, like an unhandled proto.

    def _receive_tcp(self, packet: Packet) -> None:
        conn = self._connections.get(
            (packet.dst._value, packet.dport, packet.src._value, packet.sport)
        )
        if conn is not None:
            conn.segment_arrived(packet.payload)
            return
        segment: TcpSegment = packet.payload
        if "S" in segment.flags and "A" not in segment.flags:
            listener = self._listeners.get((packet.dst._value, packet.dport))
            if listener is None:
                listener = self._listeners.get((None, packet.dport))
            if listener is not None:
                self._accept(listener, packet)
                return
        if "R" not in segment.flags:
            self._send_rst(packet)

    def _accept(self, listener: TcpListener, packet: Packet) -> None:
        local = Endpoint(packet.dst, packet.dport)
        remote = Endpoint(packet.src, packet.sport)
        config = listener.config if listener.config is not None else self.tcp_config
        conn = TcpConnection(self.sim, self, local, remote, config, passive=True)
        self._register(conn)

        def _accepted() -> None:
            listener.accepted += 1
            listener.on_connection(conn)

        conn.on_established = _accepted
        conn.segment_arrived(packet.payload)

    def _send_rst(self, packet: Packet) -> None:
        segment: TcpSegment = packet.payload
        rst = TcpSegment("R", segment.ack, 0, [], 0, 0)
        reply = tcp_packet(packet.dst, packet.src, packet.dport, packet.sport, rst, 0)
        self.rst_sent += 1
        self.send_packet(reply)

    def _receive_udp(self, packet: Packet) -> None:
        sock = self._udp_sockets.get((packet.dst._value, packet.dport))
        if sock is None:
            return
        sock.datagram_arrived(packet)

    def _remove_listener(self, listener: TcpListener) -> None:
        address = listener.address
        key = (None if address is None else address._value, listener.port)
        self._listeners.pop(key, None)

    # ------------------------------------------------------------------ #
    # diagnostics

    @property
    def open_connections(self) -> int:
        """Number of live TCP connections in the table."""
        return len(self._connections)

    def __repr__(self) -> str:
        return (
            f"<TransportHost ns={self.namespace.name!r} "
            f"conns={len(self._connections)} listeners={len(self._listeners)}>"
        )
