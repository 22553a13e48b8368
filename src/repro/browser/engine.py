"""The browser engine: load a page, report its page load time.

The load loop mirrors what a 2014-era browser does on navigation:

1. after a small navigation delay, fetch the root HTML;
2. for each origin encountered, resolve it once via DNS and open up to
   ``MAX_CONNECTIONS_PER_ORIGIN`` persistent connections, assigning queued
   requests to idle connections FIFO;
3. when a response completes, charge the resource's compute cost (scaled
   and jittered by the host machine profile), then enqueue its children;
4. the load finishes — onload, the paper's page load time — when no
   resource remains outstanding.
"""

from __future__ import annotations

from collections import deque
from functools import partial
from typing import TYPE_CHECKING, Callable, Deque, Dict, List, Optional, Tuple

from repro import calibration
from repro.browser.resources import PageModel, Resource, Url
from repro.core.machine import HostMachine
from repro.dns.resolver import StubResolver
from repro.errors import BrowserError, DnsError
from repro.http.client import FailableCallback, HttpClient
from repro.http.message import Headers, HttpRequest, HttpResponse
from repro.net.address import Endpoint, IPv4Address
from repro.sim.simulator import Simulator
from repro.transport.host import TransportHost

if TYPE_CHECKING:
    from repro.obs.waterfall import ResourceTiming

# Browser standards of the paper's era, read at use time: to vary one for
# an experiment, ``monkeypatch.setattr(engine, "MAX_DELAYABLE_IN_FLIGHT", v)``.

#: Parallel persistent connections per origin (6, the universal browser
#: default of the paper's era).
MAX_CONNECTIONS_PER_ORIGIN = 6

#: Cap on concurrently outstanding low-priority ("delayable") requests —
#: images and other media. Browsers' resource schedulers keep image floods
#: from starving render-critical scripts and stylesheets of bandwidth;
#: without this cap, every object on a shared bottleneck finishes at the
#: link-drain time and page load dynamics come out wrong.
MAX_DELAYABLE_IN_FLIGHT = 10

#: Size of a typical request (cookies, UA...), bytes.
REQUEST_HEADER_BYTES = 420

#: Stub resolver behaviour.
DNS_TIMEOUT = 2.0
DNS_RETRIES = 4

#: Compute time before the first request (navigation, cache lookup) —
#: part of every real PLT measurement.
START_DELAY = 0.040


def parse_cost(kind: str, size: int) -> float:
    """Idealized compute seconds to process one resource.

    The parse costs are the browser-side CPU work per resource. They
    matter twice: they set the absolute scale of page load times when the
    network is fast (Figure 2's ReplayShell-alone distribution is
    compute-dominated), and their jitter (via the machine profile) is the
    variance Table 1 reports. The cost tables are
    ``calibration.PARSE_BASE`` and ``calibration.PARSE_PER_KB``.
    """
    parse_base = calibration.PARSE_BASE
    parse_per_kb = calibration.PARSE_PER_KB
    base = parse_base.get(kind, parse_base["other"])
    per_kb = parse_per_kb.get(kind, parse_per_kb["other"])
    return base + per_kb * (size / 1024.0)


class PageLoadResult:
    """Outcome of one page load.

    A result keeps what the load measured and the page's name, never the
    :class:`PageModel` itself: results cross process boundaries and land
    in trial journals, and the page is the trial's input, not its output.
    """

    def __init__(self, name: str, started_at: float) -> None:
        self.name = name
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
            f"<PageLoadResult {self.name!r} {state} "
            f"loaded={self.resources_loaded} failed={self.resources_failed}>"
        )


class Browser:
    """A browser living in one namespace.

    Args:
        sim: the simulator.
        transport: the namespace's transport host.
        resolver: DNS server endpoint (ReplayShell's or the live web's).
        protocol: ``"http/1.1"`` (parallel persistent connections) or
            ``"mux"`` (one SPDY-style multiplexed connection per origin —
            the paper's motivating "new multiplexing protocols" use case;
            the replay/origin servers must speak the same protocol).
        machine: host machine scaling compute costs (optional).
    """

    def __init__(
        self,
        sim: Simulator,
        transport: TransportHost,
        resolver: Endpoint,
        protocol: str = "http/1.1",
        machine: Optional[HostMachine] = None,
    ) -> None:
        if protocol not in ("http/1.1", "mux"):
            raise ValueError(f"unknown browser protocol: {protocol!r}")
        self.sim = sim
        self.transport = transport
        self.protocol = protocol
        self.machine = machine
        local = transport.namespace.any_local_address()
        self.resolver = StubResolver(
            sim, transport, local, resolver,
            timeout=DNS_TIMEOUT, retries=DNS_RETRIES,
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
        result.complete)``) to make progress. A browser loads one page:
        onload closes its resolver socket.
        """
        result = PageLoadResult(page.name, self.sim.now)
        load = _PageLoad(self, page, result, on_complete)
        self.sim.schedule(
            self.compute_time(START_DELAY, key="nav-start"),
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
        self._hosts: Dict[tuple, _HostEntry] = {}
        self._pools: Dict[tuple, _EndpointPool] = {}
        self._finished = False
        # Resource-scheduler state: low-priority ("delayable") requests
        # beyond the cap wait here (a deque only while any wait, None
        # otherwise) until an in-flight one completes. The cap binds only
        # while render-critical (non-delayable) requests are outstanding,
        # as in Chrome's ResourceScheduler; once the critical work drains,
        # images go wide open.
        self._delayable_in_flight = 0
        self._nondelayable_in_flight = 0
        self._delayable_queue: Optional[Deque[Resource]] = None
        # The load's one per-resource timeline: an entry per fetched
        # resource, keyed by resource id (a resource already here is not
        # fetched again), each phase written once by the event that ends
        # it. The entries live in the registry's waterfall when one is
        # installed, in a private one otherwise. Timeline writes read the
        # clock and never schedule (zero observer effect). Imported here:
        # repro.obs imports repro.measure, which imports this module.
        from repro.obs.waterfall import Waterfall

        registry = browser.sim.metrics
        name = f"browser.{page.name}"
        self._waterfall = (registry.waterfall(name) if registry is not None
                           else Waterfall(name))
        self.entries: Dict[int, ResourceTiming] = {}
        # The per-origin in-flight series is registry-owned.
        self._obs_registry = registry
        if registry is not None:
            self._obs_inflight: Dict[str, int] = {}

    def start(self) -> None:
        self._fetch(self.page.root)

    # ------------------------------------------------------------------ #
    # timeline (reads the clock, writes entries and series — never schedules)

    def _obs_inflight_delta(self, resource: Resource, delta: int) -> None:
        host = resource.url.host
        count = self._obs_inflight.get(host, 0) + delta
        self._obs_inflight[host] = count
        self._obs_registry.timeseries(f"browser.inflight.{host}").record(
            self.browser.sim.now, count
        )

    def fetched(self, resource: Resource, conn, fresh: bool,
                response: HttpResponse) -> None:
        """A response arrived on ``conn``: write the resource's transfer
        phases from the connection's stamps, then finish the resource.

        HAR convention: connection setup (TCP connect, TLS) is charged to
        the resource the pool opened the connection for (``fresh``; the
        connection was opened at its ``issued`` time), and its wait to
        send starts once the connection is usable; reusers show setup as
        not-applicable and wait from their own ``issued`` time.
        """
        entry = self.entries[id(resource)]
        sent_at, first_byte_at, done_at = conn.last_timing
        wait_from = issued = entry.issued
        if fresh:
            ready = conn.ready_at
            established = conn.conn.established_at
            if established is not None and established >= issued:
                entry.connect = established - issued
                if ready > established:
                    entry.tls = ready - established
            else:
                entry.connect = ready - issued
            wait_from = ready
        entry.send_wait = max(0.0, sent_at - wait_from)
        entry.ttfb = first_byte_at - sent_at
        entry.download = done_at - first_byte_at
        entry.size = response.body.length
        self.resource_done(resource, response)

    # ------------------------------------------------------------------ #

    @staticmethod
    def _is_delayable(resource: Resource) -> bool:
        """Low-priority kinds a browser's scheduler holds back."""
        return resource.kind in ("image", "other")

    def _fetch(self, resource: Resource) -> None:
        key = id(resource)
        if key in self.entries:
            return
        self.entries[key] = self._waterfall.start(
            str(resource.url), resource.kind, self.browser.sim.now
        )
        self._outstanding += 1
        if self._is_delayable(resource):
            if (self._nondelayable_in_flight > 0
                    and self._delayable_in_flight >= MAX_DELAYABLE_IN_FLIGHT):
                if self._delayable_queue is None:
                    self._delayable_queue = deque()
                self._delayable_queue.append(resource)
                return
            self._delayable_in_flight += 1
        else:
            self._nondelayable_in_flight += 1
        self._dispatch(resource)

    def _pump_delayables(self) -> None:
        """Release queued delayable requests as the scheduler allows."""
        while self._delayable_queue:
            if (self._nondelayable_in_flight > 0
                    and self._delayable_in_flight >= MAX_DELAYABLE_IN_FLIGHT):
                return
            self._delayable_in_flight += 1
            self._dispatch(self._delayable_queue.popleft())
        self._delayable_queue = None

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
                               self.entries[id(resource)])
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
        entry = self.entries[id(resource)]
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
                parse = parse_cost(resource.kind, resource.size)
            delay = self.browser.compute_time(
                parse, key=f"parse:{resource.url}")
            entry.compute = delay
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
            entry.failed = True
            entry.finished = self.browser.sim.now
            self._complete_one(resource)

    def _processed(self, resource: Resource, fetch_children: bool) -> None:
        self.entries[id(resource)].finished = self.browser.sim.now
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
            self.browser.resolver.close()
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
        self.entries[id(resource)].error = message
        self.resource_done(resource, None)


class _HostEntry:
    """Per-hostname DNS state: resolve once, then route to endpoint pools."""

    def __init__(
        self, load: _PageLoad, sample_url: Url, owner: ResourceTiming
    ) -> None:
        self.load = load
        self.url = sample_url
        self.address: Optional[IPv4Address] = None
        self.failed: Optional[str] = None
        self.failed_exc: Optional[Exception] = None
        # Resources waiting for the lookup; dropped once it answers.
        self._waiting: Optional[List[Resource]] = []
        # HAR convention: the lookup is charged to the resource that
        # triggered it (``owner`` is its timeline entry).
        self._owner = owner
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
            waiting, self._waiting = self._waiting, None
            for resource in waiting:
                self.load.fail_resource(resource, self.failed,
                                        exc=self.failed_exc)
            return
        self._owner.dns = self.load.browser.sim.now - self._created_at
        self.address = addresses[0]
        waiting, self._waiting = self._waiting, None
        for resource in waiting:
            self._route(resource)

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
        # Requests waiting for a connection: a deque only while any wait.
        self._pending: Optional[Deque[Resource]] = None
        self._connections: List[HttpClient] = []
        self._mux = None

    def enqueue(self, resource: Resource) -> None:
        if self.browser.protocol == "mux":
            fresh = self._mux is None or self._mux.closed
            if fresh:
                self._mux = self._open_mux_session()
            self._issue(self._mux, resource, fresh)
            return
        if self._pending is None:
            self._pending = deque()
        self._pending.append(resource)
        self._pump()

    def _open_mux_session(self):
        from repro.http.mux import MuxClientSession

        self.load.result.connections_opened += 1
        return MuxClientSession(
            self.browser.sim, self.browser.transport,
            self.endpoint, tls=self.tls,
        )

    # ------------------------------------------------------------------ #

    def _pump(self) -> None:
        while self._pending:
            conn = self._idle_connection()
            fresh = conn is None
            if fresh:
                if len(self._connections) >= MAX_CONNECTIONS_PER_ORIGIN:
                    return
                conn = self._open_connection()
            resource = self._pending.popleft()
            self._issue(conn, resource, fresh)
        self._pending = None

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

    def _issue(self, conn, resource: Resource, fresh: bool) -> None:
        """Hand ``resource``'s request to ``conn`` (an HttpClient, or the
        mux session); ``fresh`` when the pool opened ``conn`` for it."""
        request = self._build_request(resource)
        self.load.entries[id(resource)].issued = self.browser.sim.now
        callback = FailableCallback(
            partial(self.load.fetched, resource, conn, fresh),
            partial(self.load.fail_resource, resource),
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
        pad = REQUEST_HEADER_BYTES - base
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
