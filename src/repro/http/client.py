"""A persistent-connection HTTP/1.1 client.

One :class:`HttpClient` wraps one TCP connection to one origin and issues
requests serially (no pipelining — matching the browsers of the paper's
era, which open parallel connections instead). The browser model's
per-origin pools are built from these. Its connection code — connect,
TLS, readiness, timing stamps, close, failing what is outstanding — is
:class:`OriginConnection`, which the multiplexed session
(:class:`~repro.http.mux.MuxClientSession`) shares.

TLS is supported through the cost model in :mod:`repro.transport.tls`: pass
``tls=True`` and the request stream starts after the handshake flights.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Optional, Tuple

from repro.errors import (
    ConnectionClosed,
    ConnectionReset,
    HttpParseError,
    ResetMidTransfer,
    TruncatedBody,
)
from repro.http.message import HttpRequest, HttpResponse
from repro.http.parser import HttpParser
from repro.http.serialize import serialize_request, write_message
from repro.net.address import Endpoint
from repro.sim.simulator import Simulator
from repro.transport.host import TransportHost
from repro.transport.tls import TlsClientSession

ResponseCallback = Callable[[HttpResponse], None]
ErrorCallback = Callable[[Exception], None]


class OriginConnection:
    """What every client connection to one origin shares, whatever it
    frames on the stream: connect, TLS, readiness, close and failure.

    Wires the transport once — ``stream`` is the TLS session when ``tls``
    is set and the TCP connection otherwise, and both deliver through
    ``on_data`` and announce readiness through ``on_established`` — and
    keeps the stamps the browser's waterfall reads (``ready_at``,
    ``last_timing``, ``conn.established_at``). A malformed message fails
    every outstanding request with the parse error.

    A subclass frames requests on ``stream`` and supplies ``_pump`` (send
    what waited for readiness), ``_receive`` (parse a delivery),
    ``_remote_closed``, ``_failed`` and ``_take_outstanding`` (hand over,
    and forget, the callbacks of every outstanding request).
    """

    __slots__ = (
        "sim", "origin", "tls", "on_error", "requests_sent",
        "responses_received", "_ready", "_closed", "ready_at",
        "last_timing", "conn", "stream",
    )

    def __init__(
        self,
        sim: Simulator,
        transport: TransportHost,
        origin: Endpoint,
        tls: bool = False,
    ) -> None:
        self.sim = sim
        self.origin = origin
        self.tls = tls
        self.on_error: Optional[ErrorCallback] = None
        self.requests_sent = 0
        self.responses_received = 0
        self._ready = False
        self._closed = False
        # Timing capture for the browser's waterfall (plain floats, always
        # on — reading the clock costs nothing and schedules nothing).
        self.ready_at: Optional[float] = None
        #: (sent_at, first_byte_at, done_at) of the most recently completed
        #: request, refreshed just before its response callback fires.
        self.last_timing: Optional[Tuple[float, float, float]] = None

        self.conn = transport.connect(origin)
        self.conn.on_error = self._failed
        self.conn.on_remote_close = self._remote_closed
        self.stream = TlsClientSession(self.conn) if tls else self.conn
        self.stream.on_established = self._became_ready
        self.stream.on_data = self._data

    @property
    def ready(self) -> bool:
        """True once the transport (and TLS, if any) is established."""
        return self._ready

    @property
    def closed(self) -> bool:
        """True once the connection is unusable."""
        return self._closed

    def close(self) -> None:
        """Close the connection (outstanding requests fail)."""
        if self._closed:
            return
        self._closed = True
        try:
            self.conn.close()
        except ConnectionClosed:
            pass
        self._fail_outstanding(ConnectionClosed("client closed connection"))

    def _became_ready(self) -> None:
        self._ready = True
        self.ready_at = self.sim.now
        self._pump()

    def _data(self, pieces) -> None:
        try:
            self._receive(pieces)
        except HttpParseError as exc:
            if not self._closed:
                self._failed(exc)

    def _fail_outstanding(self, exc: Exception) -> None:
        for callback in self._take_outstanding():
            if isinstance(callback, FailableCallback):
                callback.fail(exc)


class HttpClient(OriginConnection):
    """One HTTP connection to one origin.

    Args:
        sim: the simulator.
        transport: the local namespace's transport host.
        origin: server endpoint to connect to.
        tls: model a TLS handshake before the first request.

    Requests are queued with :meth:`request` and issued strictly one at a
    time; the connection is reusable immediately after each response
    (keep-alive). ``on_error`` (assignable) receives transport failures and
    fails all outstanding requests.
    """

    __slots__ = (
        "on_idle", "_queue", "_inflight", "_parser", "_sent_at",
        "_first_byte_at", "_bytes_received",
    )

    def __init__(
        self,
        sim: Simulator,
        transport: TransportHost,
        origin: Endpoint,
        tls: bool = False,
    ) -> None:
        self.on_idle: Optional[Callable[[], None]] = None
        # Requests waiting behind the in-flight one (or the handshake): a
        # deque only while any wait, so an idle connection holds none.
        self._queue: Optional[Deque[Tuple[HttpRequest, ResponseCallback]]] = None
        self._inflight: Optional[Tuple[HttpRequest, ResponseCallback]] = None
        self._parser = HttpParser("response")
        self._parser.on_message = self._response_arrived
        self._sent_at: Optional[float] = None
        self._first_byte_at: Optional[float] = None
        # Response bytes received for the in-flight request — the byte
        # offset reported by structured mid-transfer errors.
        self._bytes_received = 0
        super().__init__(sim, transport, origin, tls)

    # ------------------------------------------------------------------ #
    # public API

    @property
    def busy(self) -> bool:
        """True while a request is outstanding or queued."""
        return self._inflight is not None or self._queue is not None

    def request(
        self, request: HttpRequest, on_response: ResponseCallback
    ) -> None:
        """Queue a request; ``on_response`` fires with the full response.

        Raises:
            ConnectionClosed: if the connection has already failed/closed.
        """
        if self._closed:
            raise ConnectionClosed(f"connection to {self.origin} is closed")
        if self._queue is None:
            if self._ready and self._inflight is None:
                self._issue(request, on_response)
                return
            self._queue = deque()
        self._queue.append((request, on_response))

    # ------------------------------------------------------------------ #
    # internals

    def _pump(self) -> None:
        if not self._ready or self._closed or self._inflight is not None:
            return
        queue = self._queue
        if queue is None:
            return
        request, callback = queue.popleft()
        if not queue:
            self._queue = None
        self._issue(request, callback)

    def _issue(self, request: HttpRequest, callback: ResponseCallback) -> None:
        self._inflight = (request, callback)
        self._sent_at = self.sim.now
        self._first_byte_at = None
        self._bytes_received = 0
        self._parser.expect(request.method)
        write_message(self.stream, serialize_request(request))
        self.requests_sent += 1

    def _receive(self, pieces) -> None:
        if self._inflight is not None:
            if self._first_byte_at is None:
                self._first_byte_at = self.sim.now
            for piece in pieces:
                self._bytes_received += (
                    len(piece) if isinstance(piece, (bytes, bytearray))
                    else piece
                )
        self._parser.feed(pieces)

    def _response_arrived(self, response: HttpResponse) -> None:
        self.responses_received += 1
        inflight = self._inflight
        self._inflight = None
        if self._sent_at is not None:
            now = self.sim.now
            first = self._first_byte_at if self._first_byte_at is not None else now
            self.last_timing = (self._sent_at, first, now)
            self._sent_at = None
            self._first_byte_at = None
        if (response.headers.get("Connection") or "").lower() == "close":
            self._closed = True
        if inflight is not None:
            inflight[1](response)
        if not self._closed:
            self._pump()
        if not self.busy and self.on_idle is not None:
            self.on_idle()

    def _inflight_url(self) -> Optional[str]:
        """The in-flight request's URL (None when idle)."""
        if self._inflight is None:
            return None
        request = self._inflight[0]
        host = request.headers.get("Host") or str(self.origin)
        scheme = "https" if self.tls else "http"
        return f"{scheme}://{host}{request.uri}"

    def _remote_closed(self) -> None:
        # Server closed: a close-delimited body (if any) is now complete.
        try:
            self._parser.finish()
        except HttpParseError as exc:
            # Mid-message close: surface a structured truncation error
            # carrying the URL and byte offset, so failure taxonomies
            # can tell a short read from a generic parse problem.
            self._failed(TruncatedBody(
                str(exc), url=self._inflight_url(),
                bytes_received=self._bytes_received,
            ))
            return
        except Exception as exc:
            self._failed(exc)
            return
        self._closed = True
        self._fail_outstanding(ConnectionClosed(
            f"{self.origin} closed the connection"))

    def _failed(self, exc: Exception) -> None:
        if isinstance(exc, ConnectionReset) and self._inflight is not None:
            exc = ResetMidTransfer(
                str(exc), url=self._inflight_url(),
                bytes_received=self._bytes_received,
            )
        self._closed = True
        self._fail_outstanding(exc)
        if self.on_error is not None:
            self.on_error(exc)

    def _take_outstanding(self) -> list:
        outstanding = []
        if self._inflight is not None:
            outstanding.append(self._inflight[1])
            self._inflight = None
        if self._queue is not None:
            outstanding.extend(callback for __, callback in self._queue)
            self._queue = None
        return outstanding

    def __repr__(self) -> str:
        state = "closed" if self._closed else ("ready" if self._ready else "connecting")
        return f"<HttpClient {self.origin} {state} sent={self.requests_sent}>"


class FailableCallback:
    """Optional wrapper: a response callback that also wants failures.

    Pass an instance as ``on_response`` to receive ``fail(exc)`` when the
    connection dies with the request outstanding.
    """

    def __init__(
        self, on_response: ResponseCallback, on_failure: ErrorCallback
    ) -> None:
        self._on_response = on_response
        self._on_failure = on_failure

    def __call__(self, response: HttpResponse) -> None:
        self._on_response(response)

    def fail(self, exc: Exception) -> None:
        self._on_failure(exc)
