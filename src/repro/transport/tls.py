"""TLS as a latency/byte cost model (no cryptography).

Mahimahi records and replays HTTPS by terminating TLS at its
man-in-the-middle proxy; what matters to measurement is the *cost* of TLS —
handshake round trips and the certificate bytes crossing the emulated link —
not the cryptography. :class:`TlsClientSession` / :class:`TlsServerSession`
wrap a :class:`~repro.transport.tcp.TcpConnection` and exchange
realistically sized virtual flights (ClientHello, ServerHello+certificate,
Finished) before declaring the session established; afterwards application
data passes through unchanged.

This reproduces TLS 1.2's two extra round trips. Record framing overhead
(~1-2% of bytes) is deliberately not modelled; see DESIGN.md.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.transport.tcp import TcpConnection
from repro.transport.wire import Piece, piece_len


# Sizes of the handshake flights, bytes, approximating a TLS 1.2
# handshake with a typical 2-certificate chain. Read at use time, so
# ``monkeypatch.setattr(tls, "SERVER_FLIGHT_BYTES", v)`` varies one.
CLIENT_HELLO_BYTES = 300
SERVER_FLIGHT_BYTES = 3400
CLIENT_FINISHED_BYTES = 130
SERVER_FINISHED_BYTES = 60


class _TlsSession:
    """Shared plumbing: swallow handshake bytes, then pass data through."""

    def __init__(self, conn: TcpConnection) -> None:
        self.conn = conn
        self.established = False
        self.on_established: Optional[Callable[[], None]] = None
        self.on_data: Optional[Callable[[List[Piece]], None]] = None
        self._expecting = 0
        self._pending_app: List[List[Piece]] = []
        conn.on_data = self._data_arrived

    def send(self, data: bytes) -> None:
        """Send application bytes (see :meth:`write`)."""
        self.write([data])

    def send_virtual(self, length: int) -> None:
        """Send virtual application bytes (see :meth:`write`)."""
        self.write([int(length)])

    def write(self, pieces: List[Piece]) -> None:
        """Send application pieces as one TCP write (queued until the
        handshake completes — interleaving app data with handshake
        flights would corrupt the peer's stream framing — and then
        replayed write for write)."""
        if self.established:
            self.conn.write(pieces)
        else:
            self._pending_app.append(list(pieces))

    def _data_arrived(self, pieces: List[Piece]) -> None:
        queue: List[Piece] = list(pieces)
        app: List[Piece] = []
        while queue:
            piece = queue.pop(0)
            if self.established:
                app.append(piece)
                continue
            # Consume handshake bytes; the remainder of a piece that spans
            # a flight boundary is pushed back and reconsidered (it may be
            # the next flight, or post-handshake application data).
            length = piece_len(piece)
            take = min(length, self._expecting)
            if take == 0:
                # Bytes arriving while no flight is expected: surface them
                # rather than spinning (defensive; a well-behaved peer never
                # sends ahead of the handshake protocol).
                app.append(piece)
                continue
            self._expecting -= take
            rest = length - take
            if rest:
                remainder: Piece = rest if isinstance(piece, int) else piece[take:]
                queue.insert(0, remainder)
            if take > 0 and self._expecting == 0:
                self._flight_complete()
        if app and self.on_data is not None:
            self.on_data(app)

    def _flight_complete(self) -> None:
        raise NotImplementedError

    def _become_established(self) -> None:
        self.established = True
        pending, self._pending_app = self._pending_app, []
        for pieces in pending:
            self.conn.write(pieces)
        if self.on_established is not None:
            self.on_established()


class TlsClientSession(_TlsSession):
    """Client side: drives the handshake once TCP is established."""

    def __init__(self, conn: TcpConnection) -> None:
        super().__init__(conn)
        self._phase = "hello"
        if conn.established_at is not None:
            self._start()
        else:
            previous = conn.on_established
            def _chain() -> None:
                if previous is not None:
                    previous()
                self._start()
            conn.on_established = _chain

    def _start(self) -> None:
        self.conn.send_virtual(CLIENT_HELLO_BYTES)
        self._expecting = SERVER_FLIGHT_BYTES
        self._phase = "await_server_flight"

    def _flight_complete(self) -> None:
        if self._phase == "await_server_flight":
            self.conn.send_virtual(CLIENT_FINISHED_BYTES)
            self._expecting = SERVER_FINISHED_BYTES
            self._phase = "await_server_finished"
        elif self._phase == "await_server_finished":
            self._phase = "done"
            self._become_established()


class TlsServerSession(_TlsSession):
    """Server side: responds to the client's flights."""

    def __init__(self, conn: TcpConnection) -> None:
        super().__init__(conn)
        self._phase = "await_hello"
        self._expecting = CLIENT_HELLO_BYTES

    def _flight_complete(self) -> None:
        if self._phase == "await_hello":
            self.conn.send_virtual(SERVER_FLIGHT_BYTES)
            self._expecting = CLIENT_FINISHED_BYTES
            self._phase = "await_finished"
        elif self._phase == "await_finished":
            self.conn.send_virtual(SERVER_FINISHED_BYTES)
            self._phase = "done"
            self._become_established()
