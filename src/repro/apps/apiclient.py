"""A mobile-app-style HTTP client (record/replay beyond browsers).

The workload mirrors a typical app launch:

1. ``POST``-free simplification: ``GET /api/session`` (auth handshake);
2. ``GET /api/feed`` — the main content listing;
3. a fan-out of ``GET /api/item/<k>`` detail calls, bounded by the app's
   connection pool;
4. optionally thumbnails from a CDN host.

The client is pure HTTP over the simulated transport — no page model, no
parser-discovered dependencies — demonstrating that the shells replay
arbitrary HTTP applications transparently.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.corpus.sitegen import ip_for_host
from repro.dns.resolver import StubResolver
from repro.errors import ReproError
from repro.http.body import Body
from repro.http.client import FailableCallback, HttpClient
from repro.http.message import Headers, HttpRequest, HttpResponse
from repro.net.address import Endpoint
from repro.record.entry import RequestResponsePair
from repro.record.store import RecordedSite
from repro.sim.simulator import Simulator
from repro.transport.host import TransportHost


@dataclass(frozen=True)
class ApiWorkload:
    """Shape of the app's launch sequence."""

    api_host: str = "api.app.example"
    cdn_host: str = "cdn.app.example"
    feed_items: int = 12
    session_bytes: int = 700
    feed_bytes: int = 24_000
    item_bytes: int = 3_500
    thumbnail_bytes: int = 18_000
    max_connections: int = 4


def make_api_site(workload: ApiWorkload = ApiWorkload()) -> RecordedSite:
    """The ground-truth recording of the app's backend responses."""
    store = RecordedSite(workload.api_host)

    def pair(host: str, uri: str, length: int) -> RequestResponsePair:
        request = HttpRequest("GET", uri, Headers([
            ("Host", host), ("User-Agent", "repro-app/1.0"),
        ]))
        response = HttpResponse(200, headers=Headers([
            ("Content-Type", "application/json"),
            ("Content-Length", str(length)),
        ]), body=Body.virtual(length))
        return RequestResponsePair("http", ip_for_host(host), 80,
                                   request, response)

    store.add_pair(pair(workload.api_host, "/api/session",
                        workload.session_bytes))
    store.add_pair(pair(workload.api_host, "/api/feed",
                        workload.feed_bytes))
    for item in range(workload.feed_items):
        store.add_pair(pair(workload.api_host, f"/api/item/{item}",
                            workload.item_bytes))
        store.add_pair(pair(workload.cdn_host, f"/thumb/{item}.jpg",
                            workload.thumbnail_bytes))
    return store


class ApiClient:
    """Runs the launch sequence; reports time-to-interactive.

    Args:
        sim: the simulator.
        transport: the namespace's transport host.
        resolver: DNS endpoint (replay's or the live web's).
        workload: launch-sequence shape.

    Call :meth:`launch` once; run the simulator until :attr:`done`.
    Completion closes the client's resolver socket.
    """

    def __init__(
        self,
        sim: Simulator,
        transport: TransportHost,
        resolver: Endpoint,
        workload: ApiWorkload = ApiWorkload(),
    ) -> None:
        self.sim = sim
        self.transport = transport
        self.workload = workload
        self.resolver = StubResolver(
            sim, transport, transport.namespace.any_local_address(), resolver)
        self.started_at: Optional[float] = None
        self.finished_at: Optional[float] = None
        self.requests_completed = 0
        self.errors: List[str] = []
        self._pools: Dict[str, List[HttpClient]] = {}
        self._addresses: Dict[str, Endpoint] = {}
        self._outstanding = 0
        self._queues: Dict[str, List] = {}

    @property
    def done(self) -> bool:
        """True once the launch sequence has completed (or failed)."""
        return self.finished_at is not None

    @property
    def time_to_interactive(self) -> float:
        """Seconds from launch to the last response.

        Raises:
            ReproError: before completion.
        """
        if self.finished_at is None or self.started_at is None:
            raise ReproError("launch has not completed")
        return self.finished_at - self.started_at

    # ------------------------------------------------------------------ #

    def launch(self) -> None:
        """Start the launch sequence."""
        self.started_at = self.sim.now
        self._get(self.workload.api_host, "/api/session", self._session_done)

    def _session_done(self, response: HttpResponse) -> None:
        self._get(self.workload.api_host, "/api/feed", self._feed_done)

    def _feed_done(self, response: HttpResponse) -> None:
        for item in range(self.workload.feed_items):
            self._get(self.workload.api_host, f"/api/item/{item}",
                      self._one_done)
            self._get(self.workload.cdn_host, f"/thumb/{item}.jpg",
                      self._one_done)

    def _one_done(self, response: HttpResponse) -> None:
        pass  # completion bookkeeping happens in _finished_one

    # ------------------------------------------------------------------ #

    def _get(self, host: str, uri: str, on_response) -> None:
        self._outstanding += 1
        request = HttpRequest("GET", uri, Headers([
            ("Host", host), ("User-Agent", "repro-app/1.0"),
        ]))

        def handle(response: HttpResponse) -> None:
            self.requests_completed += 1
            on_response(response)
            self._finished_one()

        def fail(exc: Exception) -> None:
            self.errors.append(f"{host}{uri}: {exc}")
            self._finished_one()

        callback = FailableCallback(handle, fail)
        self._with_connection(
            host, lambda conn: conn.request(request, callback), fail)

    def _finished_one(self) -> None:
        self._outstanding -= 1
        if self._outstanding == 0:
            self.finished_at = self.sim.now
            self.resolver.close()

    def _with_connection(self, host: str, use, fail) -> None:
        endpoint = self._addresses.get(host)
        if endpoint is not None:
            use(self._pick_connection(host, endpoint))
            return
        queue = self._queues.setdefault(host, [])
        queue.append((use, fail))
        if len(queue) > 1:
            return  # resolution already in flight

        def resolved(addresses, error):
            pending = self._queues.pop(host, [])
            if error is not None or not addresses:
                for __, fail_fn in pending:
                    fail_fn(error or ReproError("empty DNS answer"))
                return
            self._addresses[host] = Endpoint(addresses[0], 80)
            for use_fn, __ in pending:
                use_fn(self._pick_connection(host, self._addresses[host]))

        self.resolver.resolve(host, resolved)

    def _pick_connection(self, host: str, endpoint: Endpoint) -> HttpClient:
        pool = self._pools.setdefault(host, [])
        for conn in pool:
            if not conn.closed and not conn.busy:
                return conn
        if len(pool) < self.workload.max_connections:
            conn = HttpClient(self.sim, self.transport, endpoint)
            pool.append(conn)
            return conn
        # All busy and at the limit: queue on the least-loaded connection
        # (HttpClient queues internally).
        return pool[self.requests_completed % len(pool)]
