"""A SPDY-style multiplexed HTTP transport.

The paper's opening use case is "network protocol designers who seek to
understand the application-level impact of new multiplexing protocols" —
in 2014 that meant SPDY. This module implements such a protocol over the
simulated TCP: one connection per origin carrying many concurrent request
streams, responses interleaved frame by frame.

Framing (text headers for debuggability; sizes comparable to SPDY's
binary frames):

    MUX <stream-id> <type> <payload-length> <fin>\\n

followed by ``payload-length`` bytes. Types: ``H`` (a serialized HTTP
message — headers block) and ``D`` (body data). ``fin=1`` closes the
stream. Response bodies are sliced into :data:`FRAME_CHUNK`-byte DATA
frames and written round-robin across active streams, which is what gives
multiplexing its bandwidth-sharing behaviour on a bottleneck.

:class:`MuxClientSession` replaces a pool of six
:class:`~repro.http.client.HttpClient` connections and shares their
connection code. The server half is a framing, not a second server: an
:class:`~repro.http.server.HttpServer` built with ``protocol="mux"``
(ReplayShell's ``protocol``) serves each accepted connection through a
:class:`_MuxServerConnection`, on the same worker pool, handler and
counters as HTTP/1.1.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional

from repro.errors import ConnectionClosed, HttpParseError
from repro.http.client import FailableCallback, OriginConnection
from repro.http.message import HttpRequest, HttpResponse
from repro.http.parser import HttpParser, _PieceBuffer
from repro.http.serialize import (
    serialize_request, serialize_response, write_message,
)
from repro.net.address import Endpoint
from repro.sim.simulator import Simulator
from repro.transport.host import TransportHost
from repro.transport.tcp import TcpConnection
from repro.transport.tls import TlsServerSession
from repro.transport.wire import Piece, pieces_len, pieces_split

#: Bytes of response body per DATA frame (SPDY implementations used
#: 4-16 KB; interleaving granularity on the wire).
FRAME_CHUNK = 8 * 1024


class _FrameCodec:
    """Shared incremental frame reader/writer."""

    def __init__(self) -> None:
        self._buffer = _PieceBuffer()
        self._pending_header: Optional[tuple] = None
        self._payload: List[Piece] = []

    @staticmethod
    def encode(stream_id: int, frame_type: str, payload: List[Piece],
               fin: bool) -> List[Piece]:
        length = pieces_len(payload)
        header = f"MUX {stream_id} {frame_type} {length} {int(fin)}\n"
        return [header.encode("ascii")] + list(payload)

    @staticmethod
    def write(sender, stream_id: int, frame_type: str,
              payload: List[Piece], fin: bool) -> None:
        """Write one frame to ``sender``: its header line, then its
        payload. A headers frame's payload is a serialized message,
        written as :func:`~repro.http.serialize.write_message` writes
        one; a data frame's is one write, so no segment boundary depends
        on how the body is split into pieces."""
        frame = _FrameCodec.encode(stream_id, frame_type, payload, fin)
        sender.write(frame[:1])
        if frame_type == "H":
            write_message(sender, frame[1:])
        else:
            sender.write(frame[1:])

    def feed(self, pieces: List[Piece], on_frame) -> None:
        """Consume bytes; call ``on_frame(stream_id, type, payload, fin)``
        for each complete frame."""
        for piece in pieces:
            self._buffer.push(piece)
        while True:
            if self._pending_header is None:
                line = self._buffer.read_line()
                if line is None:
                    return
                parts = line.decode("ascii", "replace").split()
                if len(parts) != 5 or parts[0] != "MUX":
                    raise HttpParseError(f"bad mux frame header: {line!r}")
                try:
                    header = (int(parts[1]), parts[2], int(parts[3]),
                              parts[4] == "1")
                except ValueError:
                    raise HttpParseError(
                        f"bad mux frame header: {line!r}") from None
                self._pending_header = header
                self._payload = []
            stream_id, frame_type, length, fin = self._pending_header
            got = self._buffer.read_up_to(length - pieces_len(self._payload))
            self._payload.extend(got)
            if pieces_len(self._payload) < length:
                return
            payload = self._payload
            self._pending_header = None
            self._payload = []
            on_frame(stream_id, frame_type, payload, fin)


class MuxClientSession(OriginConnection):
    """Client half: one multiplexed connection to one origin.

    An :class:`~repro.http.client.OriginConnection` like
    :class:`~repro.http.client.HttpClient`, with the same interface
    (``request``, ``busy``, ``closed``, ``on_error`` and the timing
    stamps), but it never queues behind an outstanding response —
    streams are concurrent.
    """

    __slots__ = ("_codec", "_next_stream", "_streams", "_queue")

    def __init__(
        self,
        sim: Simulator,
        transport: TransportHost,
        origin: Endpoint,
        tls: bool = False,
    ) -> None:
        self._codec = _FrameCodec()
        self._next_stream = 1
        self._streams: Dict[int, "_ClientStream"] = {}
        # Requests made before the handshake completes: a deque only
        # until then (None otherwise).
        self._queue: Optional[Deque[tuple]] = None
        super().__init__(sim, transport, origin, tls)

    @property
    def busy(self) -> bool:
        """Streams outstanding? (A mux session is never head-of-line
        blocked, but callers may still want to know.)"""
        return bool(self._streams) or bool(self._queue)

    def request(self, request: HttpRequest, on_response) -> None:
        """Open a new stream for ``request``; responses may arrive in any
        order relative to other streams."""
        if self._closed:
            raise ConnectionClosed(f"mux session to {self.origin} is closed")
        if not self._ready:
            if self._queue is None:
                self._queue = deque()
            self._queue.append((request, on_response))
            return
        self._send_request(request, on_response)

    # ------------------------------------------------------------------ #

    def _pump(self) -> None:
        while self._queue:
            request, on_response = self._queue.popleft()
            self._send_request(request, on_response)
        self._queue = None

    def _send_request(self, request: HttpRequest, on_response) -> None:
        stream_id = self._next_stream
        self._next_stream += 2  # odd ids, like SPDY clients
        self._streams[stream_id] = _ClientStream(
            request, on_response, self.sim.now)
        payload = serialize_request(request)
        _FrameCodec.write(self.stream, stream_id, "H", payload, fin=True)
        self.requests_sent += 1

    def _receive(self, pieces: List[Piece]) -> None:
        self._codec.feed(pieces, self._frame)

    def _frame(self, stream_id: int, frame_type: str,
               payload: List[Piece], fin: bool) -> None:
        stream = self._streams.get(stream_id)
        if stream is None:
            return  # reset/unknown stream: ignore
        if stream.first_byte_at is None:
            stream.first_byte_at = self.sim.now
        stream.parser.feed(payload)
        if fin:
            del self._streams[stream_id]
            self.responses_received += 1
            if stream.responses:
                self.last_timing = (
                    stream.sent_at, stream.first_byte_at, self.sim.now)
                stream.on_response(stream.responses[0])
            elif isinstance(stream.on_response, FailableCallback):
                stream.on_response.fail(HttpParseError(
                    "stream finished without a complete response"))

    def _remote_closed(self) -> None:
        self._failed(ConnectionClosed(
            f"{self.origin} closed the mux connection"))

    def _failed(self, exc: Exception) -> None:
        if self._closed:
            return
        self._closed = True
        self._fail_outstanding(exc)
        if self.on_error is not None:
            self.on_error(exc)

    def _take_outstanding(self) -> list:
        outstanding = [stream.on_response for stream in self._streams.values()]
        self._streams.clear()
        if self._queue is not None:
            outstanding.extend(on_response for __, on_response in self._queue)
            self._queue = None
        return outstanding


class _ClientStream:
    __slots__ = ("on_response", "parser", "responses", "sent_at",
                 "first_byte_at")

    def __init__(self, request: HttpRequest, on_response,
                 sent_at: float) -> None:
        self.on_response = on_response
        self.responses: List[HttpResponse] = []
        self.parser = HttpParser("response")
        self.parser.expect(request.method)
        self.parser.on_message = self.responses.append
        self.sent_at = sent_at
        self.first_byte_at: Optional[float] = None


class _MuxServerConnection:
    """One accepted mux connection on an
    :class:`~repro.http.server.HttpServer`: streams in, interleaved
    frames out. Each stream's request is dispatched to the server's
    worker pool as soon as it parses; a malformed frame or request aborts
    the connection."""

    __slots__ = ("server", "conn", "stream", "_codec", "_parsers",
                 "_write_queue", "_pumping")

    def __init__(self, server, conn: TcpConnection) -> None:
        self.server = server
        self.conn = conn
        self._codec = _FrameCodec()
        self._parsers: Dict[int, HttpParser] = {}
        # Streams with body bytes left to write: round-robin queue of
        # [stream_id, remaining_pieces] entries (None while there are none).
        self._write_queue: Optional[Deque[list]] = None
        self._pumping = False
        self.stream = TlsServerSession(conn) if server.tls else conn
        self.stream.on_data = self._data

    def _data(self, pieces: List[Piece]) -> None:
        try:
            self._codec.feed(pieces, self._frame)
        except HttpParseError:
            self.conn.abort()

    def _frame(self, stream_id: int, frame_type: str,
               payload: List[Piece], fin: bool) -> None:
        parser = self._parsers.get(stream_id)
        if parser is None:
            parser = self._parsers[stream_id] = HttpParser("request")
            parser.on_message = lambda request: self.server.dispatch(
                request, lambda: self._respond(stream_id, request))
        parser.feed(payload)
        if fin:
            del self._parsers[stream_id]

    def _respond(self, stream_id: int, request: HttpRequest) -> None:
        if self.conn.state == "CLOSED":
            return
        response = self.server.handler(request)
        self.server.requests_served += 1
        # The headers block promises the body length; the body itself
        # follows in interleaved DATA frames on the same stream.
        headers = response.headers.copy()
        body_pieces = response.body.pieces
        if response.body.length:
            headers.set("Content-Length", str(response.body.length))
        head = serialize_response(HttpResponse(
            response.status, response.reason, headers, body=None,
            version=response.version,
        ))
        fin_now = not body_pieces
        _FrameCodec.write(self.stream, stream_id, "H", head, fin=fin_now)
        if body_pieces:
            if self._write_queue is None:
                self._write_queue = deque()
            self._write_queue.append([stream_id, body_pieces])
            self._pump()

    def _pump(self) -> None:
        """Round-robin DATA frames across active streams, under TCP
        backpressure.

        Writing every queued frame at once would serialize streams in the
        unbounded TCP send buffer (head-of-line blocking — the very thing
        multiplexing exists to avoid); instead the pump keeps only a small
        window of frames in the send backlog and resumes when TCP reports
        the backlog drained.
        """
        if self._pumping:
            return
        self._pumping = True
        try:
            high_water = 4 * FRAME_CHUNK
            while self._write_queue:
                if self.conn.unsent_bytes >= high_water:
                    self.conn.notify_when_writable(
                        2 * FRAME_CHUNK, self._pump)
                    return
                entry = self._write_queue.popleft()
                stream_id, remaining = entry
                frame, rest = pieces_split(remaining, FRAME_CHUNK)
                fin = not rest
                _FrameCodec.write(self.stream, stream_id, "D", frame, fin)
                if rest:
                    entry[1] = rest
                    self._write_queue.append(entry)
            self._write_queue = None
        finally:
            self._pumping = False

