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

:data:`CLAIMS` does the same for the paper's results: each entry is one
claim's sweep, the statements its result must satisfy and its artifact
text. :data:`CALIBRATION` (re-exported from :mod:`repro.calibration`)
names, for every fitted constant, the one claim it was fitted on; every
other claim is out-of-sample for it. ``tests/test_claims.py`` runs every claim at a seconds-long size
and ``benchmarks/bench_studies.py`` at paper scale, both through
:func:`measure_claim`. Nothing here builds a site until a sweep asks.
"""

from __future__ import annotations

import operator
import time
from functools import partial
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from repro.calibration import CALIBRATION as CALIBRATION
from repro.browser.html import page_from_recording
from repro.chaos import (
    DnsFaultClause,
    FaultPlan,
    GilbertElliottClause,
    OutageClause,
    ServerFaultClause,
)
from repro.core import HostMachine, MachineProfile, ShellStack
from repro.corpus import alexa_corpus, generate_site, named_site
from repro.corpus.alexa import (
    DEFAULT_CORPUS_SIZE, DEFAULT_SINGLE_ORIGIN_SITES,
)
from repro.corpus.sitegen import SyntheticSite
from repro.errors import ReproError
from repro.linkem.queues import DropTailQueue
from repro.measure.journal import run_key
from repro.measure.report import (
    ascii_cdf, format_table, mean_pm_std, percent_diff,
)
from repro.measure.runner import ScenarioFactory, run_trial
from repro.measure.stats import Sample
from repro.measure.supervise import run_sweep
from repro.net.address import Endpoint
from repro.record.store import RecordedSite
from repro.sim.simulator import Simulator
from repro.transport.host import TransportHost
from repro.transport.tcp import TcpConnection
from repro.web import Internet


def smoke(plan: Optional[FaultPlan] = None,
          protocol: str = "http/1.1") -> ScenarioFactory:
    """Reduced-scale replay scenario exercising the full stack.

    One synthetic multi-origin site (regenerated from the trial seed)
    loaded through ReplayShell + LinkShell (14 Mbit/s) + DelayShell
    (30 ms) — the Table 2 shape at Figure 2 cost: browser, DNS, HTTP,
    TCP, link emulation, and host jitter all feed the event stream, so
    the digest covers every simulation-domain package. With ``plan``, a
    ChaosShell running it sits between the link and the delay;
    ``protocol`` is the replay's and the browser's (``"mux"`` for the
    multiplexed framing).
    """

    def factory(seed: int, instrument: bool = False):
        site = generate_site("smoke.example", seed=seed, n_origins=4,
                             scale=0.3)
        stack = ShellStack.fresh(seed, instrument=instrument)
        stack.add_replay(site.to_recorded_site(), protocol=protocol)
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

#: :func:`smoke` with replay and browser on the multiplexed protocol, so
#: the mux framing is held to the same digest as HTTP/1.1.
mux = partial(smoke, protocol="mux")


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

    The production shape: a corpus folder copied to the host (``cp -r``,
    then ``mm-fsck``), and every worker's spec pointed at one of its
    sites. The store is loaded (strictly) once per worker through
    :meth:`RecordedSite.load <repro.record.store.RecordedSite.load>`.
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
    "mux": Scenario(mux, "c60202dfb93153e426844b0ebb3d9bb8"),
    "load": Scenario(load, "f0539f72fbcab883df4457ded2a9b962",
                     artifact=load_artifact),
    "replay_smoke": Scenario(replay_smoke,
                             "9b0675286d55d5a789bb0c703d2b1db0"),
    "bulk_lossy": Scenario(bulk_lossy, "898ea11067bf08842a3795f9d6107368"),
    "recorded_site": Scenario(recorded_site),
}


# ---------------------------------------------------------------------- #
# paper claims: one registration each, checked by tier-1, rendered by the
# benches


class Miss(NamedTuple):
    """A claim statement the samples break: the quantity, its measured
    value and the bound it missed."""

    quantity: str
    value: float
    bound: str

    def __str__(self) -> str:
        return f"{self.quantity} = {self.value:.6g}, want {self.bound}"


_HOLDS = {"<": operator.lt, ">": operator.gt, "==": operator.eq,
          ">=": operator.ge, "<=": operator.le}


def misses(*statements: Tuple[str, float, str, float]) -> List[Miss]:
    """Those of ``(quantity, value, op, limit)`` that do not hold."""
    return [Miss(quantity, value, f"{op} {limit:g}")
            for quantity, value, op, limit in statements
            if not _HOLDS[op](value, limit)]


def _differing(a: Sample, b: Sample) -> int:
    """How many loads of ``a`` and ``b`` differ, compared in sorted order."""
    return sum(x != y for x, y in zip(a.values, b.values))


Samples = Dict[str, Sample]


class Claim(NamedTuple):
    """One study: its sweep, the statements its result must satisfy, and
    its artifact text.

    Attributes:
        build: ``build(trials) -> trial``. It makes what the whole sweep
            shares (corpus, recorded stores) once, in the driver's process
            before any fork, and returns ``trial(i) -> Dict[str, float]``:
            every measurement trial ``i`` makes, each in a fresh world
            seeded with ``i``.
        trials: the paper-size trial count.
        floor: the fewest trials a scaled-down run may use.
        tier1: the trial count tier-1 runs (seconds).
        check: ``check(samples) -> [Miss]``, the statements that fail;
            ``samples`` maps each measurement key to its :class:`Sample`
            over the trials.
        render: ``render(samples) -> str``, the artifact text.
    """

    build: Callable[[int], Callable[[int], Dict[str, float]]]
    trials: int
    floor: int
    tier1: int
    check: Callable[[Samples], List[Miss]]
    render: Callable[[Samples], str]


def measure_claim(
    name: str,
    claim: Claim,
    trials: int,
    workers: int = 1,
    journal: Optional[str] = None,
) -> Samples:
    """Run ``trials`` trials of ``claim`` and collect each measurement
    key into a :class:`Sample`, in the key order trial 0 returns.

    The one driver of every study: one
    :func:`~repro.measure.supervise.run_sweep` call, in this process, on
    ``workers`` forked workers, and checkpointed to ``journal`` (keyed to
    ``name`` and ``trials``) when one is given.

    Raises:
        ReproError: naming ``name`` when any trial is lost, so a sample
            never silently shrinks.
    """
    sweep = run_sweep(claim.build(trials), None, trials, workers,
                      journal=journal,
                      run_key=run_key(claim=name, trials=trials))
    lost = [f"trial {o.trial} {o.status}: {o.error}"
            for o in sweep.outcomes if not o.succeeded]
    if lost:
        raise ReproError(f"study {name!r} lost {len(lost)} of {trials} "
                         f"trials: " + "; ".join(lost))
    rows = sweep.results
    return {key: Sample(row[key] for row in rows) for key in rows[0]}


def page_load_time(
    seed: int,
    page,
    shells: Callable[[ShellStack], object],
    profile: Optional[MachineProfile] = None,
) -> float:
    """PLT of ``page`` loaded through the stack ``shells(stack)`` builds
    on a fresh machine seeded with ``seed``; a hung or failed load raises
    (:func:`~repro.measure.runner.run_trial`)."""

    def world(trial: int):
        stack = ShellStack.fresh(trial, profile)
        shells(stack)
        return stack.sim, stack.load(page)

    return run_trial(world, seed, timeout=900.0).page_load_time


def single_server_pages(size: int) -> int:
    """The paper's 9 single-server pages of 500, scaled to ``size``."""
    return max(1, round(DEFAULT_SINGLE_ORIGIN_SITES * size
                        / DEFAULT_CORPUS_SIZE))


def corpus(size: int) -> List[SyntheticSite]:
    """The Alexa-like corpus at ``size`` sites, with
    :func:`single_server_pages` of them single-server."""
    return alexa_corpus(seed=0, size=size,
                        single_origin_sites=single_server_pages(size))


# -- Figure 2: toolkit overhead ----------------------------------------- #

_F2_ARMS = (
    ("ReplayShell", lambda stack, store: stack.add_replay(store)),
    ("DelayShell 0 ms",
     lambda stack, store: (stack.add_replay(store), stack.add_delay(0.0))),
    ("LinkShell 1000 Mbits/s",
     lambda stack, store: (stack.add_replay(store),
                           stack.add_link(1000.0, 1000.0))),
)


def _overhead_sweep(trials: int):
    """Trial ``i`` loads corpus site ``i`` under bare ReplayShell, inside
    DelayShell 0 ms, and inside LinkShell with a 1000 Mbit/s trace."""
    sites = corpus(trials)
    stores = [site.to_recorded_site() for site in sites]

    def trial(i: int) -> Dict[str, float]:
        return {label: page_load_time(
                    i, sites[i].page, partial(arm, store=stores[i]))
                for label, arm in _F2_ARMS}

    return trial


def _overheads(samples: Samples) -> Tuple[float, float]:
    base = samples["ReplayShell"].median
    return ((samples["DelayShell 0 ms"].median - base) / base,
            (samples["LinkShell 1000 Mbits/s"].median - base) / base)


def _overhead_check(samples: Samples) -> List[Miss]:
    # Both overheads small and positive, LinkShell the costlier (the
    # paper's ordering).
    delay, link = _overheads(samples)
    return misses(
        ("DelayShell 0 ms median overhead", delay, ">", -0.002),
        ("DelayShell 0 ms median overhead", delay, "<", 0.02),
        ("LinkShell 1000 Mbit/s median overhead", link, ">", 0.0),
        ("LinkShell 1000 Mbit/s median overhead", link, "<", 0.02),
        ("LinkShell minus DelayShell median overhead", link - delay,
         ">", 0.0),
    )


def _overhead_render(samples: Samples) -> str:
    delay, link = _overheads(samples)
    return "\n".join([
        ascii_cdf(samples, title="Figure 2: page load time CDF "
                                 "(toolkit overhead)"),
        "",
        f"median PLT, ReplayShell alone:     "
        f"{samples['ReplayShell'].median * 1000:8.1f} ms",
        f"DelayShell 0 ms median overhead:   {delay * 100:+8.2f} %  "
        "(paper: +0.15 %)",
        f"LinkShell 1000 Mbit/s overhead:    {link * 100:+8.2f} %  "
        "(paper: +1.5 %)",
    ])


# -- Table 1: reproducibility across machines --------------------------- #

#: The two host machines: a reference one and a 0.3 %-faster one, each
#: with its own independent timing noise.
MACHINES = (
    MachineProfile(name="Machine 1", cpu_factor=1.000),
    MachineProfile(name="Machine 2", cpu_factor=1.003),
)
_T1_SITES = (("CNBC", "cnbc"), ("wikiHow", "wikihow"))


def _machines_sweep(trials: int):
    """Trial ``i`` loads the CNBC and wikiHow analogues on both machines
    through ReplayShell > LinkShell 8 Mbit/s > DelayShell 40 ms (the
    paper does not state its Table 1 network; a mid-range DSL profile
    puts the PLTs in its band)."""
    sites = [(label, named_site(which)) for label, which in _T1_SITES]
    stacks = [(label, site.page, site.to_recorded_site())
              for label, site in sites]

    def trial(i: int) -> Dict[str, float]:
        return {
            f"{label} {profile.name}": page_load_time(
                i, page, lambda stack, store=store: (
                    stack.add_replay(store), stack.add_link(8.0, 8.0),
                    stack.add_delay(0.040)),
                profile)
            for label, page, store in stacks for profile in MACHINES
        }

    return trial


def _machines_check(samples: Samples) -> List[Miss]:
    statements = []
    for label, __ in _T1_SITES:
        m1, m2 = (samples[f"{label} {p.name}"] for p in MACHINES)
        # The paper's two criteria, and that the machines do differ
        # (close is a result; identical would mean no noise at all).
        statements += [
            (f"{label}: cross-machine mean gap",
             abs(m1.mean - m2.mean) / m1.mean, "<", 0.01),
            (f"{label}: std/mean, Machine 1", m1.relative_stddev(), "<", 0.03),
            (f"{label}: std/mean, Machine 2", m2.relative_stddev(), "<", 0.03),
            (f"{label}: loads that differ across machines",
             _differing(m1, m2), ">=", 1),
        ]
    # CNBC is the distinctly heavier page (7.6 s vs 4.8 s).
    ratio = samples["CNBC Machine 1"].mean / samples["wikiHow Machine 1"].mean
    return misses(*statements,
                   ("CNBC / wikiHow mean PLT, Machine 1", ratio, ">", 1.2))


def _machines_render(samples: Samples) -> str:
    rows, checks = [], []
    for label, __ in _T1_SITES:
        m1, m2 = (samples[f"{label} {p.name}"] for p in MACHINES)
        rows.append([label, mean_pm_std(m1), mean_pm_std(m2)])
        mean_gap = abs(m1.mean - m2.mean) / m1.mean * 100
        checks.append(
            f"{label}: cross-machine mean gap {mean_gap:.2f}% "
            f"(paper: <0.5%); std/mean "
            f"{m1.relative_stddev() * 100:.2f}% / "
            f"{m2.relative_stddev() * 100:.2f}% (paper: <1.6%)"
        )
    table = format_table(
        ["site", "Machine 1", "Machine 2"], rows,
        title=f"Table 1: page load times across machines "
              f"({len(m1)} loads each)",
    )
    return table + "\n\n" + "\n".join(checks)


# -- Table 2: multi-origin vs single-server replay ---------------------- #

T2_RATES = (1.0, 14.0, 25.0)
T2_DELAYS = (0.030, 0.120, 0.300)

_T2_PAPER = {
    (1.0, 0.030): "1.6%, 27.6%", (1.0, 0.120): "1.7%, 10.8%",
    (1.0, 0.300): "2.1%, 9.7%", (14.0, 0.030): "19.3%, 127.3%",
    (14.0, 0.120): "6.2%, 42.4%", (14.0, 0.300): "3.3%, 20.3%",
    (25.0, 0.030): "21.4%, 111.6%", (25.0, 0.120): "6.3%, 51.8%",
    (25.0, 0.300): "2.6%, 15.0%",
}


def t2_cell(rate: float, delay: float) -> str:
    """A Table 2 cell's measurement key."""
    return f"{rate:g} Mbit/s, {delay * 1000:g} ms"


def _multiorigin_sweep(trials: int):
    """Trial ``i`` loads corpus site ``i`` in multi-origin and in
    single-server replay (same seed: a paired comparison) under each of
    the nine links, and reports the single-server PLT inflation in %."""
    sites = corpus(trials)
    stores = [site.to_recorded_site() for site in sites]

    def trial(i: int) -> Dict[str, float]:
        def replayed(rate: float, delay: float, single: bool) -> float:
            return page_load_time(i, sites[i].page, lambda stack: (
                stack.add_replay(stores[i], single_server=single),
                stack.add_link(rate, rate), stack.add_delay(delay)))

        cells = {}
        for rate in T2_RATES:
            for delay in T2_DELAYS:
                multi = replayed(rate, delay, False)
                single = replayed(rate, delay, True)
                cells[t2_cell(rate, delay)] = (single - multi) / multi * 100
        return cells

    return trial


def _multiorigin_check(samples: Samples) -> List[Miss]:
    # The paper's qualitative claims at the strength this substrate
    # reproduces them (EXPERIMENTS T2): at 1 Mbit/s the difference is
    # negligible, single-server replay is never clearly faster, and at
    # the fastest, nearest cell the cross-site tail exceeds the median.
    # Its tail *size* is held at bench scale only (the Table 2 gap).
    fast = samples[t2_cell(25.0, 0.030)]
    return misses(
        *((f"|median| {t2_cell(1.0, delay)}",
           abs(samples[t2_cell(1.0, delay)].median), "<", 5.0)
          for delay in T2_DELAYS),
        *((f"median {t2_cell(rate, delay)}",
           samples[t2_cell(rate, delay)].median, ">", -2.0)
          for rate in T2_RATES for delay in T2_DELAYS),
        (f"95th minus median {t2_cell(25.0, 0.030)}",
         fast.percentile(95) - fast.median, ">", 0.0),
    )


def _multiorigin_render(samples: Samples) -> str:
    def grid(cell: Callable[[float, float], str], title: str) -> str:
        rows = [[f"{rate:g} Mbit/s"] + [cell(rate, delay)
                                        for delay in T2_DELAYS]
                for rate in T2_RATES]
        return format_table(["", "30 ms", "120 ms", "300 ms"], rows,
                            title=title)

    def measured(rate: float, delay: float) -> str:
        sample = samples[t2_cell(rate, delay)]
        return f"{sample.median:+.1f}%, {sample.percentile(95):+.1f}%"

    return (grid(measured, "Table 2: 50th, 95th pct PLT difference "
                           "without multi-origin preservation")
            + "\n\n" + grid(lambda rate, delay: _T2_PAPER[(rate, delay)],
                             "(paper's values, for comparison)"))


# -- Figure 3: replay vs the actual Web --------------------------------- #

def _actual_web_sweep(trials: int):
    """Trial ``i`` loads the nytimes analogue on the simulated Internet,
    then replays it, multi-origin and single-server, under a DelayShell
    emulating the main origin's min RTT — the paper's methodology."""
    site = named_site("nytimes")
    store = site.to_recorded_site()

    def web(seed: int):
        sim = Simulator(seed=seed)
        internet = Internet(sim)
        internet.install_site(site)
        machine = HostMachine(sim)
        internet.attach_machine(machine)
        # No shells: the browser runs on the machine, on the live Web.
        result = ShellStack(machine).load(
            site.page, resolver=internet.resolver_endpoint)
        result.min_rtt = internet.min_rtt("www.nytimes.com")
        return sim, result

    def trial(i: int) -> Dict[str, float]:
        loaded = run_trial(web, i, timeout=900.0)
        row = {"Actual Web": loaded.page_load_time}
        for label, single in (("Replay Multi-origin", False),
                              ("Replay Single Server", True)):
            row[label] = page_load_time(
                i, site.page, lambda stack, single=single: (
                    stack.add_replay(store, single_server=single),
                    stack.add_delay(loaded.min_rtt / 2.0)))
        return row

    return trial


def _web_gaps(samples: Samples) -> Tuple[float, float]:
    web = samples["Actual Web"].median
    return (percent_diff(samples["Replay Multi-origin"].median, web),
            percent_diff(samples["Replay Single Server"].median, web))


def _actual_web_check(samples: Samples) -> List[Miss]:
    # Single-server > multi-origin > actual Web: multi-origin replay
    # tracks the Web closely, single-server replay misses it by several
    # times more.
    multi, single = _web_gaps(samples)
    return misses(
        ("multi-origin median vs Web %", multi, ">", 0.0),
        ("|multi-origin median vs Web| %", abs(multi), "<", 15.0),
        ("single-server median vs Web %", single, ">", 15.0),
        ("single-server gap minus twice the multi-origin gap",
         single - 2 * abs(multi), ">", 0.0),
    )


def _actual_web_render(samples: Samples) -> str:
    web = samples["Actual Web"].median
    multi_diff, single_diff = _web_gaps(samples)
    return "\n".join([
        ascii_cdf(samples,
                  title="Figure 3: nytimes page load time CDF"),
        "",
        f"median PLT, actual Web:        "
        f"{web * 1000:8.0f} ms",
        f"replay multi-origin median:    {multi_diff:+8.1f} %  "
        "vs Web (paper: +7.9 %)",
        f"replay single-server median:   {single_diff:+8.1f} %  "
        "vs Web (paper: +29.6 %)",
    ])


# -- C1: corpus statistics ---------------------------------------------- #

def _corpus_sweep(trials: int):
    """Trial ``i`` reads site ``i`` of the corpus (generation is cheap, so
    this claim always runs at least the paper's 500 sites)."""
    sites = corpus(trials)

    def trial(i: int) -> Dict[str, float]:
        page = sites[i].page
        return {"origins": sites[i].origin_count,
                "resources": page.resource_count, "bytes": page.total_bytes}

    return trial


def _single_server(samples: Samples) -> int:
    return sum(1 for count in samples["origins"].values if count == 1)


def _corpus_check(samples: Samples) -> List[Miss]:
    origins = samples["origins"]
    return misses(
        # The paper's corpus at least; a larger one keeps its ratio.
        ("corpus size", len(origins), ">=", DEFAULT_CORPUS_SIZE),
        ("single-server pages", _single_server(samples), "==",
         single_server_pages(len(origins))),
        ("median origin servers per site", origins.median, ">=", 17),
        ("median origin servers per site", origins.median, "<=", 23),
        ("95th percentile origin servers", origins.percentile(95), ">=", 42),
        ("95th percentile origin servers", origins.percentile(95), "<=", 62),
        # Every site is loadable content, not just metadata.
        ("fewest resources on a page", samples["resources"].minimum,
         ">", 5),
        ("fewest bytes on a page", samples["bytes"].minimum, ">", 100_000),
    )


def _corpus_render(samples: Samples) -> str:
    origins = samples["origins"]
    rows = [
        ["median origin servers per site", f"{origins.median:.0f}", "20"],
        ["95th percentile", f"{origins.percentile(95):.0f}", "51"],
        ["single-server pages", f"{_single_server(samples):.0f}", "9"],
        ["corpus size", f"{len(origins):.0f}", "500"],
    ]
    return format_table(
        ["statistic", "reproduced", "paper"], rows,
        title="Corpus origin-count distribution (paper §4)",
    )


# -- A1: isolation ------------------------------------------------------ #

_A1_CONDITIONS = (("alone", 0, False),
                  ("with 2 concurrent stacks", 2, False),
                  ("with host bulk transfer", 0, True))


def _isolation_sweep(trials: int):
    """Trial ``i`` loads one site through a full stack alone, next to two
    more stacks loading in the same simulation, and while a bulk transfer
    runs in the host namespace."""
    site = generate_site("isolation-bench.com", seed=77, n_origins=12)
    store = site.to_recorded_site()

    def load(sim: Simulator, tag: str):
        stack = ShellStack(HostMachine(sim, name=f"host-{tag}"))
        stack.add_replay(store)
        stack.add_link(14, 14)
        stack.add_delay(0.040)
        return stack.load(site.page)

    def isolated(seed: int, stacks: int, host_noise: bool) -> float:
        sim = Simulator(seed=seed)
        result = load(sim, "main")
        extras = [load(sim, f"extra-{extra}") for extra in range(stacks)]
        if host_noise:
            from repro.testing import TwoHostWorld  # imports repro.fabric

            noise = TwoHostWorld(sim=sim)
            noise.server.listen(
                None, 80,
                lambda conn: setattr(conn, "on_data",
                                     lambda p: conn.send_virtual(20_000_000)))
            bulk = noise.client.connect(noise.server_endpoint)
            bulk.on_established = lambda: bulk.send(b"G")
        sim.run_until(
            lambda: result.complete and all(r.complete for r in extras),
            timeout=900,
        )
        if not result.complete or result.resources_failed:
            raise ReproError(f"isolation trial {seed}: page load failed")
        return result.page_load_time

    def trial(i: int) -> Dict[str, float]:
        return {label: isolated(i, stacks, noise)
                for label, stacks, noise in _A1_CONDITIONS}

    return trial


def _isolation_check(samples: Samples) -> List[Miss]:
    # Bit-identical, not merely statistically indistinguishable.
    alone = samples["alone"]
    return misses(*(
        (f"loads that differ from alone, {label}",
         _differing(samples[label], alone), "==", 0)
        for label, __, __n in _A1_CONDITIONS[1:]))


def _isolation_render(samples: Samples) -> str:
    solo = samples["alone"]
    rows = [["alone", f"{solo.mean * 1000:.3f} ms", "-"]] + [
        [label, f"{samples[label].mean * 1000:.3f} ms",
         "identical" if samples[label].values == solo.values else "DIFFERS"]
        for label, __, __n in _A1_CONDITIONS[1:]
    ]
    return format_table(
        ["condition", "mean PLT", "vs alone"], rows,
        title="Isolation: the same measurement under interference "
              f"({len(solo)} loads each)",
    )


#: result-file name -> the paper claim it holds. Tier-1 runs each at
#: ``tier1`` trials and requires an empty ``check``; the benches run it
#: at ``scaled(trials, floor)`` and write ``render`` to
#: ``benchmarks/results/<name>.txt``.
CLAIMS: Dict[str, Claim] = {
    "figure2_overhead": Claim(_overhead_sweep, 500, 30, 8,
                              _overhead_check, _overhead_render),
    "table1_reproducibility": Claim(_machines_sweep, 100, 10, 3,
                                    _machines_check, _machines_render),
    "table2_multiorigin": Claim(_multiorigin_sweep, 60, 12, 4,
                                _multiorigin_check, _multiorigin_render),
    "figure3_actual_web": Claim(_actual_web_sweep, 100, 10, 4,
                                _actual_web_check, _actual_web_render),
    "corpus_stats": Claim(_corpus_sweep, 500, 500, 500,
                          _corpus_check, _corpus_render),
    "isolation": Claim(_isolation_sweep, 20, 5, 2,
                       _isolation_check, _isolation_render),
}
