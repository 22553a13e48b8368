"""RecordShell's transparent man-in-the-middle proxy.

Two pieces, exactly as in Mahimahi:

* :class:`Redirector` — the iptables REDIRECT equivalent. A prerouting
  hook in the shell's namespace rewrites packets heading for any remote
  host on the recorded ports (80/443) to the proxy's local endpoint,
  remembering each flow's original destination (conntrack +
  SO_ORIGINAL_DST); a postrouting hook rewrites the proxy's replies so the
  client still believes it is talking to the origin.

* :class:`RecordingProxy` — accepts the redirected connections, opens an
  upstream connection to the flow's *original* destination, relays
  complete HTTP messages in both directions, and stores every
  request-response pair. Port-443 flows get a (cost-model) TLS session on
  both legs — the MITM that lets Mahimahi record HTTPS.

Relaying is message-level store-and-forward: a response is forwarded once
fully received. This adds proxy-side buffering latency relative to
Mahimahi's byte-level streaming, which is irrelevant here because no paper
measurement times page loads *through* RecordShell (see DESIGN.md).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Optional, Tuple

from repro.errors import HttpParseError
from repro.http.message import HttpRequest, HttpResponse
from repro.http.parser import HttpParser
from repro.http.serialize import (
    serialize_request, serialize_response, write_message,
)
from repro.net.address import Endpoint, IPv4Address
from repro.net.namespace import NetworkNamespace
from repro.net.packet import Packet
from repro.record.entry import RequestResponsePair
from repro.record.store import RecordedSite
from repro.sim.simulator import Simulator
from repro.transport.host import TransportHost
from repro.transport.tcp import TcpConnection
from repro.transport.tls import TlsClientSession, TlsServerSession

PROXY_PORT = 3128
RECORDED_PORTS = (80, 443)


class Redirector:
    """REDIRECT-to-local-proxy packet rewriting for one namespace.

    Args:
        namespace: the namespace whose traffic is intercepted (the shell's
            *parent* — Mahimahi's proxy runs on the host machine).
        proxy_endpoint: where redirected flows are steered.
        watch_interface: only packets arriving on this interface are
            redirected (iptables' ``-i <veth>`` — so traffic from other
            shells sharing the parent namespace is untouched).
        ports: destination ports to intercept (HTTP and HTTPS).
    """

    def __init__(
        self,
        namespace: NetworkNamespace,
        proxy_endpoint: Endpoint,
        watch_interface,
        ports: Tuple[int, ...] = RECORDED_PORTS,
    ) -> None:
        self.namespace = namespace
        self.proxy_endpoint = proxy_endpoint
        self.watch_interface = watch_interface
        self.ports = frozenset(ports)
        # (client_ip, client_port) -> original (dst_ip, dst_port)
        self._conntrack: Dict[Tuple[IPv4Address, int], Tuple[IPv4Address, int]] = {}
        self.redirected_flows = 0
        namespace.prerouting_hooks.append(self._prerouting)
        namespace.postrouting_hooks.append(self._postrouting)

    def original_destination(
        self, client: Endpoint
    ) -> Optional[Tuple[IPv4Address, int]]:
        """SO_ORIGINAL_DST: where the client was actually connecting."""
        return self._conntrack.get((client.address, client.port))

    def _prerouting(self, packet: Packet, in_interface) -> None:
        if packet.protocol != "tcp":
            return
        if in_interface is not self.watch_interface:
            return
        key = (packet.src, packet.sport)
        if key in self._conntrack:
            # Established redirected flow: keep steering it to the proxy.
            packet.dst = self.proxy_endpoint.address
            packet.dport = self.proxy_endpoint.port
            return
        if packet.dport not in self.ports:
            return
        if self.namespace.is_local(packet.dst):
            return
        self._conntrack[key] = (packet.dst, packet.dport)
        self.redirected_flows += 1
        packet.dst = self.proxy_endpoint.address
        packet.dport = self.proxy_endpoint.port

    def _postrouting(self, packet: Packet) -> None:
        if packet.protocol != "tcp":
            return
        if (packet.src, packet.sport) != (
            self.proxy_endpoint.address, self.proxy_endpoint.port
        ):
            return
        original = self._conntrack.get((packet.dst, packet.dport))
        if original is not None:
            packet.src, packet.sport = original


class RecordingProxy:
    """The MITM proxy: record and forward all HTTP(S) exchanges.

    Args:
        sim: the simulator.
        transport: transport host of the shell's namespace.
        address: local address the proxy binds (and the redirector targets).
        store: recorded site receiving every completed pair.
        redirector: flow-origin oracle (created by RecordShell).
    """

    def __init__(
        self,
        sim: Simulator,
        transport: TransportHost,
        address: IPv4Address,
        store: RecordedSite,
        redirector: Redirector,
        port: int = PROXY_PORT,
    ) -> None:
        self.sim = sim
        self.transport = transport
        self.store = store
        self.redirector = redirector
        self.endpoint = Endpoint(IPv4Address(address), port)
        self.pairs_recorded = 0
        self.connections = 0
        transport.listen(self.endpoint.address, port, self._accept)

    def _accept(self, conn: TcpConnection) -> None:
        original = self.redirector.original_destination(conn.remote)
        if original is None:
            conn.abort()
            return
        self.connections += 1
        _ProxiedConnection(self, conn, Endpoint(*original))


class _ProxiedConnection:
    """One client connection and its paired upstream connection."""

    def __init__(
        self,
        proxy: RecordingProxy,
        client_conn: TcpConnection,
        original: Endpoint,
    ) -> None:
        self.proxy = proxy
        self.original = original
        self.scheme = "https" if original.port == 443 else "http"
        self.client_conn = client_conn
        self._outstanding: Deque[HttpRequest] = deque()

        self._request_parser = HttpParser("request")
        self._request_parser.on_message = self._client_request
        self._response_parser = HttpParser("response")
        self._response_parser.on_message = self._upstream_response

        self.upstream_conn = proxy.transport.connect(original)
        self.upstream_conn.on_error = lambda exc: self._teardown()
        self.upstream_conn.on_remote_close = self._upstream_closed
        client_conn.on_remote_close = self._client_closed
        client_conn.on_error = lambda exc: self._teardown()

        https = self.scheme == "https"
        self._client_stream = (TlsServerSession(client_conn) if https
                               else client_conn)
        self._upstream_stream = (TlsClientSession(self.upstream_conn)
                                 if https else self.upstream_conn)
        self._client_stream.on_data = self._from_client
        self._upstream_stream.on_data = self._from_upstream

    def _from_client(self, pieces) -> None:
        try:
            self._request_parser.feed(pieces)
        except HttpParseError:
            self._abort()

    def _from_upstream(self, pieces) -> None:
        try:
            self._response_parser.feed(pieces)
        except HttpParseError:
            self._abort()

    def _abort(self) -> None:
        # A malformed message on either leg resets both, as HttpServer and
        # OriginConnection reset their one leg.
        self.client_conn.abort()
        self.upstream_conn.abort()

    def _client_request(self, request: HttpRequest) -> None:
        self._outstanding.append(request)
        self._response_parser.expect(request.method)
        write_message(self._upstream_stream, serialize_request(request))

    def _upstream_response(self, response: HttpResponse) -> None:
        if self._outstanding:
            request = self._outstanding.popleft()
            pair = RequestResponsePair(
                self.scheme, self.original.address, self.original.port,
                request, response,
            )
            self.proxy.store.add_pair(pair)
            self.proxy.pairs_recorded += 1
        write_message(self._client_stream, serialize_response(response))

    def _client_closed(self) -> None:
        if not self._outstanding:
            self._close_quietly(self.upstream_conn)

    def _upstream_closed(self) -> None:
        try:
            self._response_parser.finish()
        except Exception:
            pass
        self._close_quietly(self.client_conn)

    def _teardown(self) -> None:
        self._close_quietly(self.client_conn)
        self._close_quietly(self.upstream_conn)

    @staticmethod
    def _close_quietly(conn: TcpConnection) -> None:
        try:
            conn.close()
        except Exception:
            pass
