"""The browser engine: load a page, report its page load time.

The load loop mirrors what a 2014-era browser does on navigation:

1. after a small navigation delay, fetch the root HTML;
2. for each origin encountered, resolve it once via DNS and open up to
   ``max_connections_per_origin`` persistent connections, assigning queued
   requests to idle connections FIFO;
3. when a response completes, charge the resource's compute cost (scaled
   and jittered by the host machine profile), then enqueue its children;
4. the load finishes — onload, the paper's page load time — when no
   resource remains outstanding.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Tuple

from repro.browser.config import BrowserConfig
from repro.browser.resources import PageModel, Resource, Url
from repro.core.machine import HostMachine
from repro.dns.resolver import StubResolver
from repro.errors import BrowserError, DnsError
from repro.http.client import FailableCallback, HttpClient
from repro.http.message import Headers, HttpRequest, HttpResponse
from repro.net.address import Endpoint, IPv4Address
from repro.sim.simulator import Simulator
from repro.transport.host import TransportHost


class PageLoadResult:
    """Outcome of one page load."""

    def __init__(self, page: PageModel, started_at: float) -> None:
        self.page = page
        self.started_at = started_at
        self.finished_at: Optional[float] = None
        self.resources_loaded = 0
        self.resources_failed = 0
        self.bytes_downloaded = 0
        self.connections_opened = 0
        self.dns_lookups = 0
        self.errors: List[str] = []
        #: Structured failures: (url, exception) per failed fetch. The
        #: exceptions are the client's typed errors (ResetMidTransfer,
        #: TruncatedBody, DnsError...), picklable across worker
        #: processes, and what measure.robustness classifies.
        self.failures: List[Tuple[str, Exception]] = []
        # url text -> (request_enqueued, response_done) in sim time.
        self.timings: Dict[str, Tuple[float, float]] = {}
        #: The trial's MetricsRegistry (attached by measure.runner.run_trial
        #: when the simulator was instrumented; None otherwise).
        self.metrics = None

    @property
    def complete(self) -> bool:
        """True once onload has fired."""
        return self.finished_at is not None

    @property
    def page_load_time(self) -> float:
        """Seconds from navigation to onload.

        Raises:
            BrowserError: if the load has not finished.
        """
        if self.finished_at is None:
            raise BrowserError("page load has not completed")
        return self.finished_at - self.started_at

    def __repr__(self) -> str:
        state = (
            f"PLT={self.page_load_time * 1000:.0f}ms" if self.complete
            else "loading"
        )
        return (
            f"<PageLoadResult {self.page.name!r} {state} "
            f"loaded={self.resources_loaded} failed={self.resources_failed}>"
        )


class Browser:
    """A browser living in one namespace.

    Args:
        sim: the simulator.
        transport: the namespace's transport host.
        resolver: DNS server endpoint (ReplayShell's or the live web's).
        config: browser tunables.
        machine: host machine scaling compute costs (optional).
    """

    def __init__(
        self,
        sim: Simulator,
        transport: TransportHost,
        resolver: Endpoint,
        config: Optional[BrowserConfig] = None,
        machine: Optional[HostMachine] = None,
    ) -> None:
        self.sim = sim
        self.transport = transport
        self.config = config if config is not None else BrowserConfig()
        self.machine = machine
        local = transport.namespace.any_local_address()
        self.resolver = StubResolver(
            sim, transport, local, resolver,
            timeout=self.config.dns_timeout,
            retries=self.config.dns_retries,
        )

    def compute_time(self, base: float, key: Optional[str] = None) -> float:
        """Apply the machine profile (if any) to a compute cost."""
        if self.machine is not None:
            return self.machine.compute_time(base, key)
        return base

    def load(
        self,
        page: PageModel,
        on_complete: Optional[Callable[[PageLoadResult], None]] = None,
    ) -> PageLoadResult:
        """Begin loading ``page``; returns the (live) result object.

        The result fills in as the simulation runs; ``on_complete`` fires
        at onload. Run the simulator (e.g. ``sim.run_until(lambda:
        result.complete)``) to make progress.
        """
        result = PageLoadResult(page, self.sim.now)
        load = _PageLoad(self, page, result, on_complete)
        self.sim.schedule(
            self.compute_time(self.config.start_delay, key="nav-start"),
            load.start,
        )
        return result


class _PageLoad:
    """State of one in-flight page load."""

    def __init__(
        self,
        browser: Browser,
        page: PageModel,
        result: PageLoadResult,
        on_complete: Optional[Callable[[PageLoadResult], None]],
    ) -> None:
        self.browser = browser
        self.page = page
        self.result = result
        self.on_complete = on_complete
        self._outstanding = 0
        self._seen: set = set()
        self._hosts: Dict[tuple, _HostEntry] = {}
        self._pools: Dict[tuple, _EndpointPool] = {}
        self._finished = False
        # Resource-scheduler state: low-priority ("delayable") requests
        # beyond the cap wait here until an in-flight one completes. The
        # cap binds only while render-critical (non-delayable) requests
        # are outstanding, as in Chrome's ResourceScheduler; once the
        # critical work drains, images go wide open.
        self._delayable_in_flight = 0
        self._nondelayable_in_flight = 0
        self._delayable_queue: Deque[Resource] = deque()
        # Observability: one waterfall per load plus a per-origin in-flight
        # series, all observer-owned state (zero observer effect).
        registry = browser.sim.metrics
        self._obs_registry = registry
        if registry is not None:
            self._obs_waterfall = registry.waterfall(f"browser.{page.name}")
            self._obs_entries: Dict[int, object] = {}
            self._obs_inflight: Dict[str, int] = {}
        else:
            self._obs_waterfall = None

    def start(self) -> None:
        self._fetch(self.page.root)

    # ------------------------------------------------------------------ #
    # observability (reads sim state, appends to registry — never schedules)

    def obs_entry(self, resource: Resource):
        """The resource's waterfall entry (None when uninstrumented)."""
        if self._obs_waterfall is None:
            return None
        return self._obs_entries.get(id(resource))

    def _obs_inflight_delta(self, resource: Resource, delta: int) -> None:
        host = resource.url.host
        count = self._obs_inflight.get(host, 0) + delta
        self._obs_inflight[host] = count
        self._obs_registry.timeseries(f"browser.inflight.{host}").record(
            self.browser.sim.now, count
        )

    def obs_finish(self, timing, conn, fresh: bool, response) -> None:
        """Fill the transport/transfer phases of one waterfall entry.

        HAR convention: connection setup (TCP connect, TLS) is charged to
        the resource that triggered the connection (``fresh``); reusers
        show those phases as not-applicable.
        """
        if fresh:
            created = getattr(conn, "created_at", None)
            ready = getattr(conn, "ready_at", None)
            established = getattr(getattr(conn, "conn", None),
                                  "established_at", None)
            if created is not None and ready is not None:
                if established is not None and established >= created:
                    timing.connect = established - created
                    if ready > established:
                        timing.tls = ready - established
                else:
                    timing.connect = ready - created
        last = getattr(conn, "last_timing", None)
        if last is not None:
            sent_at, first_byte_at, done_at = last
            if timing.issued >= 0.0:
                # Time spent connecting is already charged to the
                # connect/TLS phases; waiting starts once the connection
                # is usable.
                wait_from = timing.issued
                ready = getattr(conn, "ready_at", None)
                if ready is not None and ready > wait_from:
                    wait_from = ready
                timing.send_wait = max(0.0, sent_at - wait_from)
            timing.ttfb = first_byte_at - sent_at
            timing.download = done_at - first_byte_at
        timing.size = response.body.length

    # ------------------------------------------------------------------ #

    @staticmethod
    def _is_delayable(resource: Resource) -> bool:
        """Low-priority kinds a browser's scheduler holds back."""
        return resource.kind in ("image", "other")

    def _fetch(self, resource: Resource) -> None:
        if id(resource) in self._seen:
            return
        self._seen.add(id(resource))
        self._outstanding += 1
        self.result.timings[str(resource.url)] = (self.browser.sim.now, -1.0)
        if self._obs_waterfall is not None:
            self._obs_entries[id(resource)] = self._obs_waterfall.start(
                str(resource.url), resource.kind, self.browser.sim.now
            )
        if self._is_delayable(resource):
            limit = self.browser.config.max_delayable_in_flight
            if (self._nondelayable_in_flight > 0
                    and self._delayable_in_flight >= limit):
                self._delayable_queue.append(resource)
                return
            self._delayable_in_flight += 1
        else:
            self._nondelayable_in_flight += 1
        self._dispatch(resource)

    def _pump_delayables(self) -> None:
        """Release queued delayable requests as the scheduler allows."""
        limit = self.browser.config.max_delayable_in_flight
        while self._delayable_queue:
            if (self._nondelayable_in_flight > 0
                    and self._delayable_in_flight >= limit):
                return
            self._delayable_in_flight += 1
            self._dispatch(self._delayable_queue.popleft())

    def _dispatch(self, resource: Resource) -> None:
        # One DNS resolution per hostname; one 6-connection pool per
        # hostname+resolved endpoint (browsers key pools by host, so
        # domain sharding keeps its parallelism even when every hostname
        # resolves to one replay IP — as in the paper's Chrome runs).
        if self._obs_registry is not None:
            self._obs_inflight_delta(resource, +1)
        host_key = (resource.url.scheme, resource.url.host, resource.url.port)
        entry = self._hosts.get(host_key)
        if entry is None:
            entry = _HostEntry(self, resource.url,
                               obs_owner=self.obs_entry(resource))
            self._hosts[host_key] = entry
        entry.enqueue(resource)

    def endpoint_pool(
        self, host: str, endpoint: Endpoint, tls: bool
    ) -> "_EndpointPool":
        """The connection pool for one hostname at its resolved endpoint."""
        key = (host, endpoint.address, endpoint.port, tls)
        pool = self._pools.get(key)
        if pool is None:
            pool = _EndpointPool(self, endpoint, tls)
            self._pools[key] = pool
        return pool

    def resource_done(self, resource: Resource, response: Optional[HttpResponse]) -> None:
        """A response arrived (or the fetch failed: response None)."""
        if self._obs_registry is not None:
            self._obs_inflight_delta(resource, -1)
        if self._is_delayable(resource):
            self._delayable_in_flight -= 1
        else:
            self._nondelayable_in_flight -= 1
        self._pump_delayables()
        if response is not None:
            self.result.resources_loaded += 1
            self.result.bytes_downloaded += response.body.length
            parse = resource.parse_cost
            if parse <= 0.0:
                parse = self.browser.config.parse_cost(
                    resource.kind, resource.size
                )
            delay = self.browser.compute_time(
                parse, key=f"parse:{resource.url}")
            timing = self.obs_entry(resource)
            if timing is not None:
                timing.compute = delay
            # Documents are parsed incrementally: references are
            # discovered *during* the parse, not in one burst at its end.
            # Spreading child fetches over the parse window reproduces the
            # request pacing of a streaming HTML parser (and without it,
            # synchronized request bursts self-inflict queueing no real
            # browser exhibits).
            children = resource.children
            if resource.kind == "html" and len(children) > 1:
                for index, child in enumerate(children):
                    at = delay * (index + 1) / (len(children) + 1)
                    self.browser.sim.schedule(at, self._fetch, child)
                self.browser.sim.schedule(
                    delay, self._processed, resource, False
                )
            else:
                self.browser.sim.schedule(
                    delay, self._processed, resource, True
                )
        else:
            self.result.resources_failed += 1
            timing = self.obs_entry(resource)
            if timing is not None:
                timing.failed = True
                timing.finished = self.browser.sim.now
            self._complete_one(resource)

    def _processed(self, resource: Resource, fetch_children: bool) -> None:
        started = self.result.timings[str(resource.url)][0]
        self.result.timings[str(resource.url)] = (started, self.browser.sim.now)
        timing = self.obs_entry(resource)
        if timing is not None:
            timing.finished = self.browser.sim.now
        if fetch_children:
            for child in resource.children:
                self._fetch(child)
        self._complete_one(resource)

    def _complete_one(self, resource: Resource) -> None:
        self._outstanding -= 1
        if self._outstanding == 0 and not self._finished:
            self._finished = True
            self.result.finished_at = self.browser.sim.now
            for pool in self._pools.values():
                pool.shutdown()
            if self.on_complete is not None:
                self.on_complete(self.result)

    def fail_resource(
        self, resource: Resource, message, exc: Optional[Exception] = None
    ) -> None:
        """Record a failure and count the resource as finished.

        ``message`` may be an Exception; the typed failure then lands in
        ``result.failures`` while ``result.errors`` keeps its flat string
        form.
        """
        if isinstance(message, Exception):
            if exc is None:
                exc = message
            message = str(message)
        self.result.errors.append(f"{resource.url}: {message}")
        if exc is not None:
            self.result.failures.append((str(resource.url), exc))
        timing = self.obs_entry(resource)
        if timing is not None:
            timing.error = message
        self.resource_done(resource, None)


class _HostEntry:
    """Per-hostname DNS state: resolve once, then route to endpoint pools."""

    def __init__(
        self, load: _PageLoad, sample_url: Url, obs_owner=None
    ) -> None:
        self.load = load
        self.url = sample_url
        self.address: Optional[IPv4Address] = None
        self.failed: Optional[str] = None
        self.failed_exc: Optional[Exception] = None
        self._waiting: Deque[Resource] = deque()
        # HAR convention: the lookup is charged to the resource that
        # triggered it (``obs_owner`` is its waterfall entry, or None).
        self._obs_owner = obs_owner
        self._created_at = load.browser.sim.now
        load.result.dns_lookups += 1
        load.browser.resolver.resolve(sample_url.host, self._resolved)

    def enqueue(self, resource: Resource) -> None:
        if self.failed is not None:
            self.load.fail_resource(resource, self.failed,
                                    exc=self.failed_exc)
            return
        if self.address is None:
            self._waiting.append(resource)
            return
        self._route(resource)

    def _resolved(self, addresses, error) -> None:
        if error is not None or not addresses:
            if error is None:
                error = DnsError(f"no addresses for {self.url.host!r}")
            self.failed = f"DNS failure: {error}"
            self.failed_exc = error
            waiting = list(self._waiting)
            self._waiting.clear()
            for resource in waiting:
                self.load.fail_resource(resource, self.failed,
                                        exc=self.failed_exc)
            return
        if self._obs_owner is not None:
            self._obs_owner.dns = self.load.browser.sim.now - self._created_at
        self.address = addresses[0]
        while self._waiting:
            self._route(self._waiting.popleft())

    def _route(self, resource: Resource) -> None:
        endpoint = Endpoint(self.address, self.url.port)
        pool = self.load.endpoint_pool(
            self.url.host, endpoint, self.url.scheme == "https"
        )
        pool.enqueue(resource)


class _EndpointPool:
    """Connection pool and request queue for one server endpoint.

    With ``protocol="mux"`` the pool degenerates to a single multiplexed
    session carrying every request as a concurrent stream.
    """

    def __init__(self, load: _PageLoad, endpoint: Endpoint, tls: bool) -> None:
        self.load = load
        self.browser = load.browser
        self.endpoint = endpoint
        self.tls = tls
        self._pending: Deque[Resource] = deque()
        self._connections: List[HttpClient] = []
        self._mux = None

    def enqueue(self, resource: Resource) -> None:
        if self.browser.config.protocol == "mux":
            self._issue(self._mux_session(), resource)
            return
        self._pending.append(resource)
        self._pump()

    def _mux_session(self):
        if self._mux is None or self._mux.closed:
            from repro.http.mux import MuxClientSession

            self._mux = MuxClientSession(
                self.browser.sim, self.browser.transport,
                self.endpoint, tls=self.tls,
            )
            self.load.result.connections_opened += 1
        return self._mux

    # ------------------------------------------------------------------ #

    def _pump(self) -> None:
        config = self.browser.config
        while self._pending:
            conn = self._idle_connection()
            if conn is None:
                if len(self._connections) >= config.max_connections_per_origin:
                    return
                conn = self._open_connection()
            resource = self._pending.popleft()
            self._issue(conn, resource)

    def _idle_connection(self) -> Optional[HttpClient]:
        for conn in self._connections:
            if not conn.closed and not conn.busy:
                return conn
        return None

    def _open_connection(self) -> HttpClient:
        conn = HttpClient(
            self.browser.sim, self.browser.transport,
            self.endpoint, tls=self.tls,
        )
        conn.on_idle = self._pump
        conn.on_error = lambda exc: self._connection_failed(conn, exc)
        self._connections.append(conn)
        self.load.result.connections_opened += 1
        return conn

    def _issue(self, conn: HttpClient, resource: Resource) -> None:
        request = self._build_request(resource)
        timing = self.load.obs_entry(resource)
        if timing is None:
            def on_response(response):
                self.load.resource_done(resource, response)
        else:
            timing.issued = self.browser.sim.now
            fresh = getattr(conn, "requests_sent", 0) == 0

            def on_response(response, timing=timing, conn=conn, fresh=fresh):
                self.load.obs_finish(timing, conn, fresh, response)
                self.load.resource_done(resource, response)
        callback = FailableCallback(
            on_response,
            lambda exc: self.load.fail_resource(resource, exc),
        )
        conn.request(request, callback)

    def _build_request(self, resource: Resource) -> HttpRequest:
        url = resource.url
        host = url.host if url.default_port else f"{url.host}:{url.port}"
        headers = Headers([
            ("Host", host),
            ("User-Agent", "repro-browser/1.0"),
            ("Accept", "*/*"),
            ("Accept-Encoding", "identity"),
        ])
        # Pad to a realistic request size (cookies, referer, UA string...).
        base = sum(len(n) + len(v) + 4 for n, v in headers)
        base += len("GET  HTTP/1.1\r\n") + len(url.path)
        pad = self.browser.config.request_header_bytes - base
        if pad > 12:
            headers.add("X-Browser-Meta", "m" * (pad - 18))
        return HttpRequest("GET", url.path, headers)

    def _connection_failed(self, conn: HttpClient, exc: Exception) -> None:
        # Outstanding requests were failed individually through their
        # FailableCallbacks; drop the dead connection and keep going.
        if conn in self._connections:
            self._connections.remove(conn)
        self._pump()

    def shutdown(self) -> None:
        """Close idle connections at onload."""
        for conn in self._connections:
            if not conn.busy:
                conn.close()
        if self._mux is not None and not self._mux.busy:
            self._mux.close()
