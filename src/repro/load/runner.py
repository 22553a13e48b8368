"""The load runner: one simulated world, hundreds-plus concurrent clients.

:class:`LoadSession` builds the shared world — one ReplayShell serving the
population's merged recording, one LinkShell, one DelayShell — then
schedules every client's spawn at its pre-materialised arrival time. All
clients share the innermost namespace and its transport (they are "users
behind the same emulated bottleneck"), while the replay side is the
paper's multi-origin server farm with bounded worker pools per origin.

Because arrivals and the client plan are drawn *before* the world runs
(see :mod:`repro.load.arrivals` / :mod:`repro.load.population`), and
because per-client outcomes are collected from client objects in
client-index order *after* the run, nothing about a
:class:`LoadResult` depends on the order clients happen to complete —
the whole run is a pure function of ``(scenario, seed)``.

Per-client metrics are page load time (browsers), time-to-interactive
(api clients), and fetch time (object fetches); server-side tail latency
comes from the §7 worker-pool probes (``http.server.*.latency`` sojourn
histograms, ``.occupancy``/``.backlog`` step series) when a metrics
registry is attached. Both sides fold into
:class:`~repro.measure.stats.StreamingQuantiles` for p50/p99/p999.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro import calibration
from repro.apps.apiclient import ApiClient
from repro.core import ShellStack
from repro.dns.resolver import StubResolver
from repro.errors import ReproError
from repro.http.client import FailableCallback, HttpClient
from repro.http.message import Headers, HttpRequest
from repro.load.arrivals import ARRIVALS_STREAM, ArrivalProcess
from repro.load.population import POPULATION_STREAM, ClientPlan, Population
from repro.measure.parallel import collect_finished_worlds
from repro.measure.stats import StreamingQuantiles
from repro.net.address import Endpoint

__all__ = [
    "ClientRecord",
    "LoadResult",
    "LoadScenario",
    "LoadSession",
    "run_load",
]

#: Default virtual-time budget for one load level (seconds).
DEFAULT_TIMEOUT = 600.0


class LoadScenario:
    """Everything that defines one load level, minus the seed.

    Args:
        population: who arrives and what they fetch.
        arrivals: when they arrive (rate lives here).
        clients: how many arrive in total.
        link_mbps: shared access-link rate, both directions. The default
            is deliberately fat (1 Gbit/s): capacity experiments want the
            *server worker pools* to be the saturating resource, not the
            emulated link. Narrow it to study link-bound regimes.
        one_way_delay: DelayShell one-way latency (seconds).
        server_workers: concurrent request slots per replay origin (the
            paper's Apache prefork pool; the knee-position knob; default
            ``calibration.SERVER_WORKERS``, resolved here so
            :meth:`describe` records the integer).
        timeout: virtual-time budget for the run; clients still
            unfinished at the deadline are recorded as failed.
    """

    def __init__(
        self,
        population: Population,
        arrivals: ArrivalProcess,
        clients: int,
        link_mbps: float = 1000.0,
        one_way_delay: float = 0.020,
        server_workers: Optional[int] = None,
        timeout: float = DEFAULT_TIMEOUT,
    ) -> None:
        if clients < 1:
            raise ReproError(f"clients must be >= 1, got {clients!r}")
        self.population = population
        self.arrivals = arrivals
        self.clients = clients
        self.link_mbps = float(link_mbps)
        self.one_way_delay = float(one_way_delay)
        if server_workers is None:
            server_workers = calibration.SERVER_WORKERS
        self.server_workers = int(server_workers)
        self.timeout = float(timeout)

    @property
    def offered_rate(self) -> float:
        """Offered load in clients/s (the arrival process's rate)."""
        return getattr(self.arrivals, "rate", 0.0)

    def describe(self) -> dict:
        """JSON-shaped parameters (artifact metadata)."""
        return {
            "clients": self.clients,
            "arrivals": self.arrivals.describe(),
            "population": self.population.describe(),
            "link_mbps": self.link_mbps,
            "one_way_delay": self.one_way_delay,
            "server_workers": self.server_workers,
            "timeout": self.timeout,
        }

    def __repr__(self) -> str:
        return (
            f"<LoadScenario clients={self.clients} "
            f"arrivals={self.arrivals!r} workers={self.server_workers}>"
        )


class ClientRecord(Tuple[int, str, str, float, float, bool, str]):
    """One client's outcome:
    ``(index, kind, target, arrival, duration, ok, detail)``.

    ``duration`` is -1.0 for clients that never finished (timeout).
    A tuple subclass, so records pickle cheaply across fork workers and
    serialise to JSON as plain lists.
    """

    __slots__ = ()

    def __new__(
        cls, index: int, kind: str, target: str, arrival: float,
        duration: float, ok: bool, detail: str = "",
    ) -> "ClientRecord":
        return super().__new__(
            cls, (index, kind, target, arrival, duration, ok, detail))

    def __getnewargs__(self):
        # tuple's default pickle passes the whole tuple as one argument;
        # spread it back into __new__'s signature instead.
        return tuple(self)

    index = property(lambda self: self[0])
    kind = property(lambda self: self[1])
    target = property(lambda self: self[2])
    arrival = property(lambda self: self[3])
    duration = property(lambda self: self[4])
    ok = property(lambda self: self[5])
    detail = property(lambda self: self[6])

    def __repr__(self) -> str:
        status = "ok" if self[5] else f"FAILED({self[6]})"
        return (
            f"ClientRecord({self[0]}, {self[1]}, {self[2]}, "
            f"t={self[3]:.3f}, d={self[4]:.3f}, {status})"
        )


def _sum_step_series(
    series_list: List[List[Tuple[float, float]]],
) -> List[Tuple[float, float]]:
    """Sum per-server step series into one farm-wide step series.

    Each input is one origin's absolute-valued step function (occupancy
    or backlog), points in time order. The sum walks all points merged by
    (time, server index) — the stable sort keeps each server's own points
    chronological, and equal-time ties across servers resolve by server
    index, so the output is deterministic — emitting a point whenever the
    total changes.
    """
    if not series_list:
        return []
    if len(series_list) == 1:
        return list(series_list[0])
    events = []
    for index, points in enumerate(series_list):
        for time, value in points:
            events.append((time, index, value))
    events.sort(key=lambda e: (e[0], e[1]))
    current = [0.0] * len(series_list)
    out: List[Tuple[float, float]] = []
    for time, index, value in events:
        current[index] = value
        total = sum(current)
        if out and out[-1][0] == time:
            # Same instant: keep only the final total at each time.
            out[-1] = (time, total)
        elif not out or out[-1][1] != total:
            out.append((time, total))
    return out


# ---------------------------------------------------------------------- #
# client adapters: one uniform (done / ok / duration) surface


class _BrowserClient:
    """A full page load of one corpus site."""

    def __init__(self, session: "LoadSession", plan: ClientPlan) -> None:
        site = session.scenario.population.sites[plan.site_index]
        self.target = site.name
        self.result = session.stack.load(site.page)

    @property
    def done(self) -> bool:
        return self.result.complete

    @property
    def ok(self) -> bool:
        return self.result.complete and self.result.resources_failed == 0

    @property
    def duration(self) -> float:
        return self.result.page_load_time

    @property
    def detail(self) -> str:
        if self.result.resources_failed:
            return f"{self.result.resources_failed} resources failed"
        return ""


class _ApiAppClient:
    """An app-launch sequence against the shared API backend."""

    def __init__(self, session: "LoadSession", plan: ClientPlan) -> None:
        workload = session.scenario.population.api_workload
        self.target = workload.api_host
        self.app = ApiClient(
            session.sim, session.stack.transport,
            session.stack.resolver_endpoint, workload,
        )
        self.app.launch()

    @property
    def done(self) -> bool:
        return self.app.done

    @property
    def ok(self) -> bool:
        return self.app.done and not self.app.errors

    @property
    def duration(self) -> float:
        return self.app.time_to_interactive

    @property
    def detail(self) -> str:
        return self.app.errors[0] if self.app.errors else ""


class _FetchClient:
    """A single-object GET of one site's root document.

    The lightweight monitoring-agent / CDN-probe shape: one DNS lookup,
    one connection, one exchange — cheap enough to run by the thousand.
    """

    def __init__(self, session: "LoadSession", plan: ClientPlan) -> None:
        site = session.scenario.population.sites[plan.site_index]
        url = site.page.root.url
        self.target = site.name
        self.url = url
        sim = session.sim
        transport = session.stack.transport
        self.sim = sim
        self.transport = transport
        self.started_at = sim.now
        self.finished_at: Optional[float] = None
        self.error: Optional[str] = None
        self.resolver = StubResolver(
            sim, transport, transport.namespace.any_local_address(),
            session.stack.resolver_endpoint,
        )
        self.resolver.resolve(url.host, self._resolved)

    def _resolved(self, addresses, error) -> None:
        # One lookup per client: release its port either way.
        self.resolver.close()
        if error is not None or not addresses:
            self._fail(error or ReproError("empty DNS answer"))
            return
        request = HttpRequest("GET", self.url.path, Headers([
            ("Host", self.url.host), ("User-Agent", "repro-probe/1.0"),
        ]))
        conn = HttpClient(
            self.sim, self.transport, Endpoint(addresses[0], self.url.port))
        conn.request(request, FailableCallback(self._responded, self._fail))

    def _responded(self, response) -> None:
        if response.status != 200:
            self.error = f"status {response.status}"
        self.finished_at = self.sim.now

    def _fail(self, exc: Exception) -> None:
        self.error = str(exc) or type(exc).__name__
        self.finished_at = self.sim.now

    @property
    def done(self) -> bool:
        return self.finished_at is not None

    @property
    def ok(self) -> bool:
        return self.finished_at is not None and self.error is None

    @property
    def duration(self) -> float:
        if self.finished_at is None:
            raise ReproError("fetch has not completed")
        return self.finished_at - self.started_at

    @property
    def detail(self) -> str:
        return self.error or ""


_CLIENT_CLASSES = {
    "browser": _BrowserClient,
    "api": _ApiAppClient,
    "fetch": _FetchClient,
}


# ---------------------------------------------------------------------- #
# the session


class LoadSession:
    """One built world, ready to run one load level.

    Construction draws the arrival schedule and the client plan from
    their dedicated streams, builds the shell stack, and schedules every
    spawn; :meth:`run` drains the simulator and assembles the
    :class:`LoadResult`.

    Args:
        scenario: the level's parameters.
        seed: master simulation seed.
        instrument: attach a :class:`~repro.obs.registry.MetricsRegistry`
            (server-side probes, at observation cost).
    """

    def __init__(
        self, scenario: LoadScenario, seed: int, instrument: bool = False,
    ) -> None:
        # A finished session is one reference cycle: free any the caller
        # has dropped, so a dead world and this one never overlap. Not at
        # the end of run(), whose caller may still read sim and stack.
        collect_finished_worlds()
        self.scenario = scenario
        self.seed = seed
        self.stack = ShellStack.fresh(seed, instrument=instrument)
        sim = self.sim = self.stack.sim
        self.registry = sim.metrics
        # The plan first, from dedicated streams — a pure function of
        # (scenario, seed), fixed before any world event runs.
        self.arrival_times = scenario.arrivals.times(
            scenario.clients, sim.streams.stream(ARRIVALS_STREAM))
        self.plan = scenario.population.plan(
            scenario.clients, sim.streams.stream(POPULATION_STREAM))
        # The shared world.
        self.stack.add_replay(
            scenario.population.merged_store(),
            server_workers=scenario.server_workers,
        )
        self.stack.add_link(scenario.link_mbps, scenario.link_mbps)
        self.stack.add_delay(scenario.one_way_delay)
        # Spawns, scheduled in client-index order.
        self._clients: List[Optional[object]] = [None] * scenario.clients
        self._spawned = 0
        for plan, at in zip(self.plan, self.arrival_times):
            sim.schedule_at(at, self._spawn, plan)

    def _spawn(self, plan: ClientPlan) -> None:
        self._clients[plan.index] = _CLIENT_CLASSES[plan.kind](self, plan)
        self._spawned += 1

    @property
    def done(self) -> bool:
        """True once every client has spawned and finished."""
        if self._spawned < self.scenario.clients:
            return False
        return all(c is not None and c.done for c in self._clients)

    def run(self, capture_digest: bool = False) -> "LoadResult":
        """Run the world to completion (or the scenario's timeout).

        Args:
            capture_digest: fold the executed event stream into a BLAKE2
                digest (see
                :class:`repro.analysis.sanitizer.EventStreamDigest`) and
                stash it on the result — the cross-run/cross-worker
                identity proof.
        """
        digest = None
        if capture_digest:
            from repro.analysis.sanitizer import EventStreamDigest

            digest = EventStreamDigest()
            self.sim.set_trace(digest)
        self.deadline = self.sim.now + self.scenario.timeout
        self.sim.run_until(
            lambda: self.done, timeout=self.scenario.timeout, check_every=32)
        result = self._collect()
        if digest is not None:
            result.event_digest = digest.hexdigest
            result.events = digest.events
        return result

    def _collect(self) -> "LoadResult":
        records: List[ClientRecord] = []
        for plan, at in zip(self.plan, self.arrival_times):
            client = self._clients[plan.index]
            if client is None:
                records.append(ClientRecord(
                    plan.index, plan.kind, "-", at, -1.0, False,
                    "never spawned (timeout)"))
            elif not client.done:
                records.append(ClientRecord(
                    plan.index, plan.kind, client.target, at, -1.0, False,
                    "unfinished (timeout)"))
            else:
                records.append(ClientRecord(
                    plan.index, plan.kind, client.target, at,
                    client.duration, client.ok, client.detail))
        return LoadResult(self, records)


class LoadResult:
    """Everything one load level measured.

    Attributes:
        records: per-client outcomes, in client-index order.
        plt: completion-time quantiles over all *successful* clients.
        per_kind: the same, split by client kind.
        server_latency: request-sojourn quantiles across every replay
            origin's worker pool (empty when uninstrumented).
        peak_occupancy / peak_backlog: worst worker-pool pressure seen
            across origins (0 when uninstrumented).
        makespan: virtual time at which the last client finished
            (``max(arrival + duration)``), or the run's deadline when
            any client never did — a property of the clients, not of
            when the run loop happened to look.
        event_digest / events: set when the run captured a digest.
    """

    def __init__(self, session: LoadSession, records: List[ClientRecord]) -> None:
        scenario = session.scenario
        self.seed = session.seed
        self.clients = scenario.clients
        self.offered_rate = scenario.offered_rate
        self.scenario = scenario.describe()
        self.records = records
        finished = [r.arrival + r.duration for r in records
                    if r.duration >= 0.0]
        self.completed = len(finished)
        self.failed = sum(1 for r in records if not r.ok)
        self.makespan = max(finished) if self.completed == len(records) \
            else session.deadline
        self.events = session.sim.events_processed
        self.event_digest: Optional[str] = None
        self.plt = StreamingQuantiles(
            r.duration for r in records if r.ok)
        self.per_kind: Dict[str, StreamingQuantiles] = {}
        for record in records:
            if record.ok:
                shard = self.per_kind.get(record.kind)
                if shard is None:
                    shard = self.per_kind[record.kind] = StreamingQuantiles()
                shard.add(record.duration)
        self.server_latency = StreamingQuantiles()
        #: Farm-wide busy workers / queued requests over virtual time:
        #: every origin's step series summed into one (empty when
        #: uninstrumented). These are what mm-report's load mode plots.
        self.occupancy: List[Tuple[float, float]] = []
        self.backlog: List[Tuple[float, float]] = []
        self.peak_occupancy = 0.0
        self.peak_backlog = 0.0
        registry = session.registry
        if registry is not None:
            occupancy_series, backlog_series = [], []
            for name, histogram in sorted(registry.histograms.items()):
                if (name.startswith("http.server.")
                        and name.endswith(".latency")):
                    self.server_latency.extend(histogram.values)
            for name, series in sorted(registry.series.items()):
                if not name.startswith("http.server."):
                    continue
                if name.endswith(".occupancy"):
                    occupancy_series.append(series.points)
                elif name.endswith(".backlog"):
                    backlog_series.append(series.points)
            self.occupancy = _sum_step_series(occupancy_series)
            self.backlog = _sum_step_series(backlog_series)
            self.peak_occupancy = max(
                (v for __, v in self.occupancy), default=0.0)
            self.peak_backlog = max(
                (v for __, v in self.backlog), default=0.0)

    @property
    def throughput(self) -> float:
        """Completed clients per virtual second (goodput)."""
        if self.makespan <= 0.0:
            return 0.0
        return self.completed / self.makespan

    def to_dict(self) -> dict:
        """JSON-shaped summary (one capacity-curve level)."""
        return {
            "seed": self.seed,
            "clients": self.clients,
            "offered_rate": self.offered_rate,
            "completed": self.completed,
            "failed": self.failed,
            "makespan": self.makespan,
            "throughput": self.throughput,
            "plt": self.plt.summary(),
            "per_kind": {
                kind: acc.summary()
                for kind, acc in sorted(self.per_kind.items())
            },
            "server_latency": self.server_latency.summary(),
            "peak_occupancy": self.peak_occupancy,
            "peak_backlog": self.peak_backlog,
            "event_digest": self.event_digest,
        }

    def __repr__(self) -> str:
        p99 = self.plt.p99 if len(self.plt) else float("nan")
        return (
            f"<LoadResult clients={self.clients} completed={self.completed} "
            f"failed={self.failed} p99={p99:.3f}s>"
        )


def run_load(
    scenario: LoadScenario,
    seed: int = 0,
    instrument: bool = False,
    capture_digest: bool = False,
) -> LoadResult:
    """Build and run one load level; the one-call entry point."""
    session = LoadSession(scenario, seed, instrument=instrument)
    return session.run(capture_digest=capture_digest)
