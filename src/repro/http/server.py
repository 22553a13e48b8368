"""The replay web server on the simulated transport.

One :class:`HttpServer` binds one (address, port) — ReplayShell spawns one
per recorded origin, exactly as Mahimahi spawns one Apache per distinct
IP/port pair. The handler is a callable ``handler(request) -> HttpResponse``;
per-request processing time (the Apache+CGI cost in the paper's setup)
comes from an optional ``processing_time(request) -> seconds`` callable so
machine profiles can scale it.

A server's request processing runs on a bounded worker pool
(``max_workers``): at most that many requests are "in the CPU" at once,
the rest queue FIFO across connections. This is the contention that makes
single-server replay slow — one Apache handling a hundred parallel
requests queues where twenty Apaches would not — the mechanism behind the
paper's Table 2 ablation.

The server is one model whatever the framing: ``protocol`` only picks
how an accepted connection reads requests and writes responses —
:class:`_ServerConnection` for HTTP/1.1, or the SPDY-style
:class:`~repro.http.mux._MuxServerConnection` for ``"mux"``. The
listener, pool, handler, processing time and counters are shared.

On HTTP/1.1, persistent connections are the default; ``Connection:
close`` on a request closes after the response, like Apache's keep-alive
handling. Pipelined requests are answered in order. A malformed request
aborts its connection; the server keeps serving the others.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Optional

from repro.errors import HttpParseError
from repro.http.message import Headers, HttpRequest, HttpResponse
from repro.http.mux import _MuxServerConnection
from repro.http.parser import HttpParser
from repro.http.serialize import serialize_response, write_message
from repro.net.address import IPv4Address
from repro.sim.simulator import Simulator
from repro.transport.host import TransportHost
from repro.transport.tcp import TcpConnection
from repro.transport.tls import TlsServerSession
from repro.transport.wire import pieces_split

Handler = Callable[[HttpRequest], HttpResponse]
ProcessingTime = Callable[[HttpRequest], float]


class WorkerPool:
    """Bounded-concurrency request processing (the Apache+CGI model).

    ``submit(work, delay)`` runs ``work`` after ``delay`` seconds of
    processing, with at most ``max_workers`` jobs in service; excess jobs
    queue FIFO. ``max_workers=None`` means unbounded.

    With an observability registry attached to ``sim`` and an
    ``obs_path``, the pool records ``<path>.occupancy`` and
    ``<path>.backlog`` step series at every submit/finish — the
    server-contention signal behind the paper's Table 2 ablation — plus a
    ``<path>.latency`` histogram of per-request sojourn times (queue wait
    + processing), the server-side tail-latency signal the load runner
    folds into its capacity curves.
    """

    def __init__(
        self,
        sim: Simulator,
        max_workers: Optional[int],
        obs_path: Optional[str] = None,
    ) -> None:
        if max_workers is not None and max_workers < 1:
            raise ValueError(f"max_workers must be >= 1, got {max_workers!r}")
        self.sim = sim
        self.max_workers = max_workers
        self.peak_backlog = 0
        self._active_workers = 0
        self._backlog: Deque = deque()
        registry = sim.metrics
        if registry is not None and obs_path is not None:
            self._obs_occupancy = registry.timeseries(f"{obs_path}.occupancy")
            self._obs_backlog = registry.timeseries(f"{obs_path}.backlog")
            self._obs_latency = registry.histogram(f"{obs_path}.latency")
        else:
            self._obs_occupancy = None
            self._obs_backlog = None
            self._obs_latency = None

    def _obs_record(self) -> None:
        if self._obs_occupancy is not None:
            now = self.sim.now
            self._obs_occupancy.record(now, self._active_workers)
            self._obs_backlog.record(now, len(self._backlog))

    def submit(self, work: Callable[[], None], delay: float) -> None:
        """Run ``work`` after ``delay`` of processing, respecting the
        worker limit (excess jobs queue FIFO)."""
        if (self.max_workers is not None
                and self._active_workers >= self.max_workers):
            self._backlog.append((work, delay, self.sim.now))
            if len(self._backlog) > self.peak_backlog:
                self.peak_backlog = len(self._backlog)
            self._obs_record()
            return
        self._start_worker(work, delay, self.sim.now)

    def _start_worker(
        self, work: Callable[[], None], delay: float, submitted: float
    ) -> None:
        self._active_workers += 1
        self._obs_record()
        if delay > 0.0:
            self.sim.schedule(delay, self._finish_worker, work, submitted)
        else:
            self._finish_worker(work, submitted)

    def _finish_worker(self, work: Callable[[], None], submitted: float) -> None:
        if self._obs_latency is not None:
            self._obs_latency.observe(self.sim.now - submitted)
        try:
            work()
        finally:
            self._active_workers -= 1
            self._obs_record()
            if self._backlog:
                next_work, next_delay, next_submitted = self._backlog.popleft()
                self._start_worker(next_work, next_delay, next_submitted)


class HttpServer:
    """A web server bound to one (address, port).

    Args:
        sim: the simulator.
        transport: the namespace's transport host.
        address: local address to bind (must be local to the namespace).
        port: TCP port.
        handler: maps a request to a response.
        processing_time: seconds of simulated server compute per request
            (default: none). Called per request, so it can depend on the
            resource or draw jitter.
        tls: terminate a (cost-model) TLS session on each connection.
        max_workers: concurrent request-processing slots (None =
            unbounded). Requests beyond this queue FIFO server-wide.
        fault_injector: optional
            :class:`repro.chaos.inject.ServerFaultInjector`, assignable
            after construction (``ShellStack.add_chaos`` wires one across
            a replay's servers). HTTP/1.1 only: its clauses act on an
            HTTP/1.1 byte stream.
        protocol: the framing, ``"http/1.1"`` (default) or ``"mux"``.
    """

    def __init__(
        self,
        sim: Simulator,
        transport: TransportHost,
        address,
        port: int,
        handler: Handler,
        processing_time: Optional[ProcessingTime] = None,
        tls: bool = False,
        max_workers: Optional[int] = None,
        fault_injector=None,
        protocol: str = "http/1.1",
    ) -> None:
        if protocol not in _CONNECTIONS:
            raise ValueError(f"unknown server protocol: {protocol!r}")
        self.sim = sim
        self.address = IPv4Address(address)
        self.port = port
        self.handler = handler
        self.processing_time = processing_time
        self.tls = tls
        self.max_workers = max_workers
        self.protocol = protocol
        self.fault_injector = fault_injector
        self.requests_served = 0
        self.connections_accepted = 0
        self.faults_injected = 0
        self.pool = WorkerPool(
            sim, max_workers,
            obs_path=f"http.server.{self.address}:{port}",
        )
        self._listener = transport.listen(
            self.address, port, self._accept
        )

    @property
    def peak_backlog(self) -> int:
        """Deepest worker-pool backlog observed."""
        return self.pool.peak_backlog

    def dispatch(self, request: HttpRequest, work: Callable[[], None]) -> None:
        """Run ``work`` on the worker pool after ``request``'s processing
        time (see :class:`WorkerPool`)."""
        delay = 0.0
        if self.processing_time is not None:
            delay = self.processing_time(request)
        self.pool.submit(work, delay)

    def close(self) -> None:
        """Stop accepting connections."""
        self._listener.close()

    def _accept(self, conn: TcpConnection) -> None:
        self.connections_accepted += 1
        _CONNECTIONS[self.protocol](self, conn)

    def __repr__(self) -> str:
        return (
            f"<HttpServer {self.address}:{self.port} "
            f"served={self.requests_served}>"
        )


class _ServerConnection:
    """Per-connection HTTP/1.1 request loop. Transport errors need no
    handling here: the client side sees (and reports) them."""

    __slots__ = (
        "server", "conn", "stream", "parser", "_pending", "_closing",
        "_stalled",
    )

    def __init__(self, server: HttpServer, conn: TcpConnection) -> None:
        self.server = server
        self.conn = conn
        self.parser = HttpParser("request")
        self.parser.on_message = self._request_arrived
        # Responses must go out in request order even if processing times
        # differ; each entry is [request, response-or-None, close-after,
        # fault-or-None]. A deque only while requests are pending (None
        # otherwise), so an idle keep-alive connection holds none.
        self._pending: Optional[Deque[list]] = None
        self._closing = False
        self._stalled = False
        self.stream = TlsServerSession(conn) if server.tls else conn
        self.stream.on_data = self._data
        conn.on_remote_close = self._remote_closed

    def _data(self, pieces) -> None:
        try:
            self.parser.feed(pieces)
        except HttpParseError:
            self.conn.abort()

    def _request_arrived(self, request: HttpRequest) -> None:
        close_after = (
            (request.headers.get("Connection") or "").lower() == "close"
            or request.version == "HTTP/1.0"
        )
        entry = [request, None, close_after, None]
        if self._pending is None:
            self._pending = deque()
        self._pending.append(entry)
        self.server.dispatch(request, lambda: self._process(entry))

    def _process(self, entry: list) -> None:
        request = entry[0]
        injector = self.server.fault_injector
        fault = injector.fault_for(request) if injector is not None else None
        if fault is not None:
            self.server.faults_injected += 1
            if fault.kind == "error-burst":
                # The backend is failing, not slow: answer for it without
                # invoking the handler, like a tripped circuit breaker.
                entry[1] = HttpResponse(
                    fault.status,
                    headers=Headers([("Content-Length", "0")]),
                )
                self._flush()
                return
            entry[3] = fault
        entry[1] = self.server.handler(request)
        self._flush()

    def _flush(self) -> None:
        while (not self._stalled and self._pending is not None
                and self._pending[0][1] is not None):
            __, response, close_after, fault = self._pending[0]
            if self.conn.state == "CLOSED":
                return
            self._pending.popleft()
            if not self._pending:
                self._pending = None
            if fault is not None:
                self._apply_fault(response, close_after, fault)
                return
            write_message(self.stream, serialize_response(response))
            self.server.requests_served += 1
            if close_after:
                self._closing = True
                self.conn.close()
                return

    # ------------------------------------------------------------------ #
    # fault injection (repro.chaos server clauses)

    def _apply_fault(self, response, close_after: bool, fault) -> None:
        """Serve ``response`` under a stall/truncate/reset clause.

        The serialized response is split after the headers plus
        ``fault.after_bytes`` of body; what happens to the remainder
        depends on the clause kind (see ServerFaultClause).
        """
        pieces = serialize_response(response)
        head, body = pieces[:1], pieces[1:]
        sent_body, rest = pieces_split(body, fault.after_bytes)
        self.stream.write(head)
        self.stream.write(sent_body)
        if fault.kind == "reset":
            self._closing = True
            self.conn.abort()
            return
        if fault.kind == "truncate":
            # Headers advertised the full Content-Length; closing early
            # gives the client a short read mid-body.
            self._closing = True
            self.conn.close()
            return
        # "stall": the worker wedges for fault.stall seconds, then the
        # rest of the response (and the connection's queue) proceeds.
        self._stalled = True
        self.server.sim.schedule(
            fault.stall, self._resume_stalled, rest, close_after
        )

    def _resume_stalled(self, rest, close_after: bool) -> None:
        self._stalled = False
        if self.conn.state == "CLOSED":
            return
        self.stream.write(rest)
        self.server.requests_served += 1
        if close_after:
            self._closing = True
            self.conn.close()
            return
        self._flush()

    def _remote_closed(self) -> None:
        # Client half-closed; answer what is pending, then close our side.
        if self._pending is None and not self._closing:
            self._closing = True
            try:
                self.conn.close()
            except Exception:
                pass


#: protocol -> the connection class that frames it.
_CONNECTIONS = {"http/1.1": _ServerConnection, "mux": _MuxServerConnection}
