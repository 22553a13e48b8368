"""Named worlds: the registry every check, smoke and sweep looks up.

A *scenario* is one Mahimahi command line given a name, so a
measurement's environment is a self-describing unit instead of code
retyped per experiment. Every entry of :data:`SCENARIOS` is a **builder**:
called with its keyword arguments it returns a
:data:`~repro.measure.runner.ScenarioFactory` that also takes
``instrument`` — ``factory(seed, instrument=False) -> (sim, live result)``
— wiring a fresh world through
:meth:`~repro.core.compose.ShellStack.fresh`. Builders are module-level
and deterministic in their arguments, so spawned fabric workers reach one
by import path (``FactorySpec("repro.scenarios:NAME", kwargs)``) and all
construct the same world.

Registration is coverage: ``python -m repro.analysis.sanitizer --scenario
NAME`` and ``tests/test_scenarios.py`` hold every default-buildable entry
to its pinned digest, zero observer effect and a byte-identical artifact.
"""

from __future__ import annotations

import time
from functools import partial
from typing import Callable, Dict, List, NamedTuple, Optional

from repro.browser.html import page_from_recording
from repro.chaos import (
    DnsFaultClause,
    FaultPlan,
    GilbertElliottClause,
    OutageClause,
    ServerFaultClause,
)
from repro.core import ShellStack
from repro.corpus import generate_site
from repro.linkem.queues import DropTailQueue
from repro.measure.runner import ScenarioFactory
from repro.net.address import Endpoint
from repro.record.store import RecordedSite
from repro.sim.simulator import Simulator
from repro.transport.host import TransportHost
from repro.transport.tcp import TcpConnection


def smoke(plan: Optional[FaultPlan] = None) -> ScenarioFactory:
    """Reduced-scale replay scenario exercising the full stack.

    One synthetic multi-origin site (regenerated from the trial seed)
    loaded through ReplayShell + LinkShell (14 Mbit/s) + DelayShell
    (30 ms) — the Table 2 shape at Figure 2 cost: browser, DNS, HTTP,
    TCP, link emulation, and host jitter all feed the event stream, so
    the digest covers every simulation-domain package. With ``plan``, a
    ChaosShell running it sits between the link and the delay.
    """

    def factory(seed: int, instrument: bool = False):
        site = generate_site("smoke.example", seed=seed, n_origins=4,
                             scale=0.3)
        stack = ShellStack.fresh(seed, instrument=instrument)
        stack.add_replay(site.to_recorded_site())
        stack.add_link(14.0, 14.0)
        if plan is not None:
            stack.add_chaos(plan)
        stack.add_delay(0.030)
        return stack.sim, stack.load(site.page)

    return factory


#: The ``chaos`` scenario's fault plan: every injection layer. A downlink
#: outage, a bursty-loss chain, one server stall, and one DNS SERVFAIL —
#: so the chaos digest covers link suppression, the GE RNG stream, the
#: server fault path (split/stall/resume), and the DNS fault path.
CHAOS_PLAN = FaultPlan(
    clauses=(
        OutageClause(direction="downlink", start=0.35, duration=0.15),
        GilbertElliottClause(
            direction="downlink",
            p_good_bad=0.05, p_bad_good=0.4, loss_bad=0.5,
        ),
        ServerFaultClause(
            kind="stall", skip=3, count=1, after_bytes=512, stall=0.3,
        ),
        DnsFaultClause(kind="servfail", skip=1, count=1),
    ),
    name="sanitizer",
)

#: :func:`smoke` under :data:`CHAOS_PLAN`: same seed + same plan =>
#: bit-identical event stream, with every fault layer firing.
chaos = partial(smoke, plan=CHAOS_PLAN)


#: The ``load`` scenario's corpus (``default_population`` arguments).
_LOAD_POPULATION = {"seed": 1, "n_sites": 3, "scale": 0.2}


def load() -> ScenarioFactory:
    """A reduced heavy-traffic level.

    60 open-loop clients (browser/api/fetch mix) Poisson-arriving at
    8/s against a 3-site corpus behind one ReplayShell — every load-path
    stream (arrivals, population, and the world under them) feeds the
    digest. The live result is the :class:`~repro.load.runner.LoadSession`.
    """
    from repro.load import LoadScenario, Poisson, default_population
    from repro.load.runner import LoadSession

    scenario = LoadScenario(
        default_population(**_LOAD_POPULATION), Poisson(8.0), clients=60)

    def factory(seed: int, instrument: bool = False):
        session = LoadSession(scenario, seed, instrument=instrument)
        return session.sim, session

    return factory


def load_artifact(seed: int) -> bytes:
    """One reduced capacity sweep, serialised to artifact bytes.

    The artifact half of the load determinism contract: two sweeps of
    the same seed must serialise to *identical bytes* — quantiles, knee,
    occupancy series and all — not merely identical event streams.
    """
    from repro.load import (
        capacity_artifact_bytes, default_population, run_capacity_curve,
    )

    curve = run_capacity_curve(
        default_population(**_LOAD_POPULATION), [10, 20, 40], window=5.0,
        seed=seed, capture_digest=True,
    )
    return capacity_artifact_bytes(curve, meta={"seed": seed})


def _replayed(store, page, pace=0.0, **replay) -> ScenarioFactory:
    """Every trial replays ``store`` in a fresh world seeded with the
    trial index and loads ``page``."""

    def factory(trial: int, instrument: bool = False):
        if pace:
            time.sleep(pace)
        stack = ShellStack.fresh(trial, instrument=instrument)
        stack.add_replay(store, **replay)
        return stack.sim, stack.load(page)

    return factory


def replay_smoke(
    name: str = "fabricsmoke.com",
    seed: int = 11,
    n_origins: int = 3,
    scale: float = 0.4,
    pace: float = 0.0,
) -> ScenarioFactory:
    """A self-contained page-load sweep: one synthetic site, replayed.

    The site is fixed by the arguments (nothing on disk) and replayed
    through a bare ReplayShell — the sweep the crash-recovery and fabric
    smokes run. ``pace`` sleeps that many *wall* seconds per trial: it
    widens CI kill windows without touching virtual time, so it cannot
    perturb results.
    """
    site = generate_site(name, seed=seed, n_origins=n_origins, scale=scale)
    return _replayed(site.to_recorded_site(), site.page, pace=pace)


def recorded_site(
    directory: str,
    protocol: str = "http/1.1",
    single_server: bool = False,
) -> ScenarioFactory:
    """Page loads against a recorded folder on this host.

    The production shape: ship the corpus with :mod:`repro.fabric.sync`,
    then point every worker's spec at it. The store is loaded (strictly)
    once per worker through :meth:`RecordedSite.load
    <repro.record.store.RecordedSite.load>`.
    """
    store = RecordedSite.load(directory)
    return _replayed(store, page_from_recording(store),
                     single_server=single_server, protocol=protocol)


class BulkFlows:
    """Live result of :func:`bulk_download`.

    Attributes:
        connections: both ends of every flow — the clients first, in
            flow order, then the servers as they accept — so their public
            counters can be read afterwards.
        finished: each flow's virtual completion time, None while it runs.
    """

    def __init__(self, flows: int) -> None:
        self.connections: List[TcpConnection] = []
        self.finished: List[Optional[float]] = [None] * flows

    @property
    def complete(self) -> bool:
        return None not in self.finished


def bulk_download(stack: ShellStack, flows: int, flow_bytes: int) -> BulkFlows:
    """Start ``flows`` concurrent downloads of ``flow_bytes`` virtual
    bytes each, from a server in the machine's root namespace to clients
    in the stack's innermost one — no browser, HTTP or DNS, only TCP over
    whatever shells ``stack`` holds."""
    sim = stack.sim
    server = TransportHost.ensure(sim, stack.machine.namespace)
    address = stack.machine.namespace.any_local_address()
    result = BulkFlows(flows)

    def on_connection(conn: TcpConnection) -> None:
        result.connections.append(conn)
        conn.on_data = lambda pieces: conn.send_virtual(flow_bytes)

    server.listen(address, 80, on_connection)

    def start(flow: int) -> None:
        conn = stack.transport.connect(Endpoint(address, 80))
        result.connections.append(conn)
        conn.on_established = lambda: conn.send(b"GET")

        def on_data(pieces) -> None:
            if (conn.bytes_delivered >= flow_bytes
                    and result.finished[flow] is None):
                result.finished[flow] = sim.now

        conn.on_data = on_data

    for flow in range(flows):
        start(flow)
    return result


def bulk_lossy() -> ScenarioFactory:
    """Loss recovery, every path of it: four concurrent 300 kB downloads
    through a 3 Mbit/s link with a 60-packet drop-tail queue, 1 % random
    downlink loss and 20 ms of delay — random loss, queue overflow, fast
    retransmit, partial ACKs and RTOs all fire within seconds, so the
    digest covers the SACK scoreboard, the retransmit ledger and the
    reassembly map that the page-load worlds (which drop nothing) never
    reach."""

    def factory(seed: int, instrument: bool = False):
        stack = ShellStack.fresh(seed, instrument=instrument)
        stack.add_link(3.0, 3.0,
                       downlink_queue=DropTailQueue(max_packets=60))
        stack.add_loss(0.01)
        stack.add_delay(0.020)
        return stack.sim, bulk_download(stack, flows=4, flow_bytes=300_000)

    return factory


class Scenario(NamedTuple):
    """One registry entry.

    Attributes:
        build: the builder (``build(**kwargs) -> ScenarioFactory``).
        digest: event-stream digest of ``build()(0)`` run to drain (read
            on CPython 3.11); None when the builder has required
            arguments. It moves only when the simulated model does:
            re-pin it with such a change and say so in CHANGES.md, never
            to make a refactor pass.
        artifact: ``artifact(seed) -> bytes``, the scenario's measurement
            artifact, byte-identical across runs; None if it has none.
    """

    build: Callable[..., ScenarioFactory]
    digest: Optional[str] = None
    artifact: Optional[Callable[[int], bytes]] = None

    def simulator(self, seed: int, instrument: bool = False) -> Simulator:
        """The default world, built and not yet run: the builder shape
        :mod:`repro.analysis.sanitizer`'s checks take."""
        return self.build()(seed, instrument)[0]


#: name -> scenario; the name is the builder's, so ``repro.scenarios:NAME``
#: is every entry's :class:`~repro.fabric.worker.FactorySpec` path.
SCENARIOS: Dict[str, Scenario] = {
    "smoke": Scenario(smoke, "70516bfc60dbc606521f510e4aa901d3"),
    "chaos": Scenario(chaos, "819e55b3591d9cf60f3904f447f58fc8"),
    "load": Scenario(load, "f0539f72fbcab883df4457ded2a9b962",
                     artifact=load_artifact),
    "replay_smoke": Scenario(replay_smoke,
                             "9b0675286d55d5a789bb0c703d2b1db0"),
    "bulk_lossy": Scenario(bulk_lossy, "898ea11067bf08842a3795f9d6107368"),
    "recorded_site": Scenario(recorded_site),
}
