"""The five workloads: inputs, one batch of work, and the checks on it.

Every workload follows one shape, driven by :mod:`.harness`:

* ``setup(directory)`` builds the inputs from the seed (repeatable; the
  harness times it, several rounds, for ``setup_s``);
* ``reference()`` runs the workload's op set once, serially and in this
  process, with an event-stream digest on every world — the expected
  outputs and the ``results_digest`` two commits are compared by;
* ``batch(index)`` is the timed unit; ``check(raw, index)`` (untimed)
  counts the ops in it that failed or whose outputs differ from the
  reference;
* ``traced(observer)`` runs the same op set serially with the observer's
  hooks on every world (for the campaigns this is the trial bodies the
  forked workers execute; the harness around them is measured by the
  probes and the ladder in :mod:`.trace`).

Sizes are fixed here, not tunable: a number is only comparable with another
commit's if both ran the same work.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple

from repro.analysis.sanitizer import EventStreamDigest
from repro.browser import Browser
from repro.cli.common import page_from_recording
from repro.core import HostMachine, ShellStack
from repro.corpus import alexa_corpus
from repro.errors import ReproError
from repro.fabric.backend import LocalBackend
from repro.fabric.coordinator import run_fabric
from repro.fsutil import atomic_write_text
from repro.linkem.queues import DropTailQueue
from repro.load import LoadScenario, default_population
from repro.load.arrivals import Poisson
from repro.load.runner import LoadSession
from repro.measure.journal import run_key
from repro.measure.runner import run_page_loads, run_trial
from repro.measure.stats import Sample
from repro.measure.supervise import SweepResult, TrialOutcome, run_supervised
from repro.net.address import Endpoint
from repro.record.cas import CAS_DIR_NAME, CasStore
from repro.record.store import RecordedSite
from repro.sim import Simulator
from repro.sim.random import stable_seed
from repro.transport.host import TransportHost
from repro.transport.wire import pieces_len

#: Table 2's centre cell: the network every page load here crosses.
LINK_MBPS = 14.0
ONE_WAY_DELAY = 0.040


class Checked(NamedTuple):
    """What ``check`` found in one batch."""

    attempted: int
    failed: int
    errors: List[str]


def trial_seed(seed: int, trial: int) -> int:
    """The simulator seed of op ``trial`` under benchmark seed ``seed``."""
    return stable_seed(seed, f"mmbench:{trial}")


def combined_digest(lines: List[str]) -> str:
    """One hex digest over per-op result lines, in op order."""
    combined = hashlib.blake2b(digest_size=16)
    for line in lines:
        combined.update(line.encode("utf-8") + b"\n")
    return combined.hexdigest()


def page_load_world(store, page, seed: int, observer=None):
    """One fresh world — ReplayShell + LinkShell 14 Mbit/s + DelayShell
    40 ms — with a page load started in it (``mm-webreplay site mm-link
    14 14 mm-delay 40 load``)."""
    sim = Simulator(seed=seed)
    if observer is not None:
        observer.attach(sim)
    machine = HostMachine(sim)
    stack = ShellStack(machine)
    stack.add_replay(store)
    stack.add_link(LINK_MBPS, LINK_MBPS)
    stack.add_delay(ONE_WAY_DELAY)
    browser = Browser(sim, stack.transport, stack.resolver_endpoint,
                      machine=machine)
    result = browser.load(page)
    if observer is not None:
        observer.add_world(sim, stack)
    return sim, result


def site_totals(sites) -> Tuple[float, float, float]:
    """What a set of sites costs to load, as far as its inputs show:
    total resources, bytes and origins."""
    return (sum(s.page.resource_count for s in sites),
            sum(s.page.total_bytes for s in sites),
            sum(s.origin_count for s in sites))


#: A draw is in balance when its totals are this close to the generator's
#: own per-site means (resources, bytes, origins); and the number of draws
#: a seed may take before settling for its closest.
TOLERANCES = (0.02, 0.02, 0.05)
DRAWS = 200
POOL_SITES = 256


def balanced_seed(seed: int, draw: Callable[[int, int], List[Any]],
                  sites: int, quick: bool) -> Tuple[int, int]:
    """The first of the seed's draws of ``sites`` sites that costs what an
    average draw costs; returns it with the number of draws taken.

    A corpus is a small sample of a heavy-tailed size distribution: 16
    sites drawn blind move the events per page load by ~10 %
    (interquartile ÷ median) from one seed to the next. The benchmark's
    driver runs every workload at ten seeds and reads the spread of the
    results as the benchmark's noise, so the inputs of different seeds
    have to be the same amount of work. The seed still draws the corpus
    — ``draw(stable_seed(seed, "draw:<n>"), sites)``, n = 0, 1, … — but
    keeps drawing until total resources, bytes and origins are each
    within their tolerance of the generator's per-site means, which are
    measured, not written down: on a pool of :data:`POOL_SITES` sites
    drawn at a constant seed, so every seed aims at the same totals and a
    change to the generator moves them along. After :data:`DRAWS` draws
    the closest one is used. ``--quick`` takes the first draw.
    """
    if quick:
        return stable_seed(seed, "draw:0"), 1
    pool = draw(0, POOL_SITES)
    targets = [total * sites / len(pool) for total in site_totals(pool)]
    closest, closest_miss = 0, float("inf")
    for attempt in range(DRAWS):
        candidate = stable_seed(seed, f"draw:{attempt}")
        miss = max(
            abs(total / target - 1.0) / tolerance
            for total, target, tolerance
            in zip(site_totals(draw(candidate, sites)), targets, TOLERANCES))
        if miss < closest_miss:
            closest, closest_miss = candidate, miss
        if miss <= 1.0:
            break
    return closest, attempt + 1


def corpus_drawer(scale: float, sites_per_single_origin: int):
    """``draw(seed, sites)`` for :func:`balanced_seed`: an Alexa-like
    corpus with one single-origin site per ``sites_per_single_origin``."""
    def draw(seed: int, sites: int):
        return alexa_corpus(
            seed=seed, size=sites, scale=scale,
            single_origin_sites=max(1, sites // sites_per_single_origin))
    return draw


def generate_corpus(draw, seed: int, size: int, phases: Dict[str, float]):
    """The seeded corpus and its recorded stores, with per-site phase
    times (ms) left in ``phases``."""
    started = time.perf_counter()
    sites = draw(seed, size)
    generated = time.perf_counter()
    stores = [site.to_recorded_site() for site in sites]
    recorded = time.perf_counter()
    phases["corpus.generate_ms_per_site"] = \
        (generated - started) * 1e3 / size
    phases["corpus.to_recorded_ms_per_site"] = \
        (recorded - generated) * 1e3 / size
    return sites, stores


def page_load_counters(results) -> Dict[str, float]:
    """The exact counters page-load results carry without any observer."""
    plt = Sample(r.page_load_time for r in results)
    return {
        "browser.resources_loaded": sum(r.resources_loaded for r in results),
        "browser.bytes_downloaded": sum(r.bytes_downloaded for r in results),
        "browser.plt_p50_s": plt.percentile(50.0),
        "browser.plt_p95_s": plt.percentile(95.0),
    }


class Workload:
    """Common state; see the module docstring for the contract."""

    name = ""
    op = ""

    def __init__(self, seed: int, quick: bool, workers: int) -> None:
        self.seed = seed
        self.quick = quick
        self.workers = workers
        #: Per-site set-up phase times (ms), refreshed by every ``setup``.
        self.phases: Dict[str, float] = {}
        #: Exact counters of the reference op set, observable untraced.
        self.counters: Dict[str, float] = {}
        #: Draws :func:`balanced_seed` took to settle this seed's inputs.
        self.draws = 0
        self.results_digest = ""

    @property
    def sizes(self) -> Dict[str, Any]:
        """The fixed batch sizes, for the output header."""
        raise NotImplementedError

    @property
    def ops_per_batch(self) -> int:
        raise NotImplementedError

    @property
    def trace_ops(self) -> int:
        """Ops in the reference op set (what ``traced`` runs)."""
        return self.ops_per_batch

    def observed_counters(self, raw) -> Dict[str, float]:
        """Exact counters only ``traced``'s return value carries."""
        return {}


# ---------------------------------------------------------------------- #
# page loads: replay_sweep and the trial set both campaigns share


class _PageLoads(Workload):
    """Shared by the workloads whose op is one replayed page load."""

    trials = 0

    def factory(self, observer=None) -> Callable[[int], Tuple[Any, Any]]:
        raise NotImplementedError

    def reference(self) -> List[str]:
        factory = self.factory()
        errors: List[str] = []
        self.expected: List[Optional[Tuple[float, str]]] = []
        results, events = [], 0
        last: Dict[str, Any] = {}

        def probe(index: int):
            world = factory(index)
            last["sim"] = world[0]
            return world

        for trial in range(self.trials):
            try:
                result = run_trial(probe, trial, capture_digest=True)
            except ReproError as exc:
                errors.append(f"reference: {exc}")
                self.expected.append(None)
                continue
            results.append(result)
            events += last["sim"].events_processed
            self.expected.append((result.page_load_time, result.event_digest))
        self.results_digest = combined_digest([
            f"{trial}:{entry[1]}:{entry[0]!r}" if entry else f"{trial}:lost"
            for trial, entry in enumerate(self.expected)
        ])
        #: The real payloads the harness probes pickle, journal and frame.
        self.reference_results = results
        if results:
            self.counters = page_load_counters(results)
            self.counters["sim.events_per_op"] = events / len(results)
        return errors

    @property
    def trace_ops(self) -> int:
        return self.trials

    def observed_counters(self, raw) -> Dict[str, float]:
        return page_load_counters(raw)

    def traced(self, observer) -> List[Any]:
        """The reference op set again, every world observed; the page
        load times must not move (the zero-observer-effect contract)."""
        results = run_page_loads(self.factory(observer), self.trials).results
        for trial, result in enumerate(results):
            expected = self.expected[trial]
            if expected is None or result.page_load_time != expected[0]:
                raise ReproError(
                    f"{self.name}: trial {trial} moved under observation "
                    f"({result.page_load_time!r} vs {expected!r})")
        return results


class ReplaySweep(_PageLoads):
    name = "replay_sweep"
    op = "page load"

    def __init__(self, seed: int, quick: bool, workers: int) -> None:
        super().__init__(seed, quick, workers)
        self.trials = 2 if quick else 16
        self.scale = 0.2 if quick else 1.0
        self.draw = corpus_drawer(self.scale, self.trials)
        self.corpus_seed, self.draws = balanced_seed(
            seed, self.draw, self.trials, quick)

    @property
    def sizes(self):
        return {"corpus_sites": self.trials, "corpus_scale": self.scale,
                "loads_per_batch": self.trials}

    @property
    def ops_per_batch(self) -> int:
        return self.trials

    def setup(self, directory: str) -> None:
        self.sites, self.stores = generate_corpus(
            self.draw, self.corpus_seed, self.trials, self.phases)

    def factory(self, observer=None):
        def factory(trial: int):
            return page_load_world(
                self.stores[trial], self.sites[trial].page,
                trial_seed(self.seed, trial), observer)
        return factory

    def batch(self, index: int):
        try:
            return run_page_loads(self.factory(), self.trials).results
        except ReproError as exc:
            return exc

    def check(self, raw, index: int) -> Checked:
        if isinstance(raw, ReproError):
            return Checked(self.trials, self.trials, [str(raw)])
        errors = []
        for trial, result in enumerate(raw):
            expected = self.expected[trial]
            if (result.resources_failed or expected is None
                    or result.page_load_time != expected[0]):
                errors.append(f"trial {trial}: page load time "
                              f"{result.page_load_time!r}, expected "
                              f"{expected!r}")
        return Checked(self.trials, len(errors), errors)


class _Campaign(_PageLoads):
    """The campaign pipeline around light trials.

    Set-up generates a corpus and saves it CAS v3; every trial is one
    ``mm-webreplay`` invocation's shape: load the recorded site from
    disk, rebuild its page, build a fresh world, load. A batch runs
    ``passes`` passes over the trial set through the engine under test,
    then writes the sweep summary as the campaign's artifact.
    """

    def __init__(self, seed: int, quick: bool, workers: int) -> None:
        super().__init__(seed, quick, workers)
        self.corpus_sites = 3 if quick else 20
        self.scale = 0.15 if quick else 0.3
        self.trials = 3 if quick else 30
        self.passes = 1 if quick else 2
        self.draw = corpus_drawer(self.scale, self.corpus_sites)
        self.corpus_seed, self.draws = balanced_seed(
            seed, self.draw, self.corpus_sites, quick)
        self.directory = ""
        self.batches_run = 0
        #: (store load seconds, whole factory seconds) per trial, filled
        #: while set to a list (the traced pass) — core.world_build_ms.
        self.factory_times: Optional[List[Tuple[float, float]]] = None

    @property
    def sizes(self):
        return {"corpus_sites": self.corpus_sites,
                "corpus_scale": self.scale, "trial_set": self.trials,
                "trials_per_batch": self.ops_per_batch}

    @property
    def ops_per_batch(self) -> int:
        return self.trials * self.passes

    def setup(self, directory: str) -> None:
        self.directory = directory
        sites, stores = generate_corpus(
            self.draw, self.corpus_seed, self.corpus_sites, self.phases)
        started = time.perf_counter()
        corpus = os.path.join(directory, "corpus")
        self.cas = CasStore(os.path.join(corpus, CAS_DIR_NAME))
        self.site_dirs = []
        for site, store in zip(sites, stores):
            site_dir = os.path.join(corpus, site.name)
            store.save(site_dir, cas=self.cas)
            self.site_dirs.append(site_dir)
        self.phases["record.save_ms_per_site"] = \
            (time.perf_counter() - started) * 1e3 / self.corpus_sites

    def factory(self, observer=None):
        def factory(index: int):
            # Indices past the trial set repeat it, so one serial
            # reference of the set covers a batch of any length.
            trial = index % self.trials
            started = time.perf_counter()
            store = RecordedSite.load(
                self.site_dirs[trial % self.corpus_sites])
            loaded = time.perf_counter()
            world = page_load_world(
                store, page_from_recording(store),
                trial_seed(self.seed, trial), observer)
            if self.factory_times is not None:
                self.factory_times.append(
                    (loaded - started, time.perf_counter() - started))
            return world
        return factory

    def expected_sweep(self, trials: int) -> Tuple[Optional[str], List[float]]:
        """The digest and sorted PLT sample a serial ``run_page_loads``
        + digest pass over ``trials`` indices produces."""
        outcomes = []
        for index in range(trials):
            entry = self.expected[index % self.trials]
            if entry is None:
                return None, []
            outcomes.append(TrialOutcome(
                trial=index, status="ok", attempts=1, error=None,
                result=_Plt(entry[0]), digest=entry[1]))
        sweep = SweepResult(outcomes)
        return sweep.digest, sweep.sample.values

    def journal_path(self) -> str:
        self.batches_run += 1
        return os.path.join(self.directory,
                            f"{self.name}.{self.batches_run}.journal.jsonl")

    def run_engine(self, journal: str):
        raise NotImplementedError

    def batch(self, index: int):
        journal = self.journal_path()
        sweep = self.run_engine(journal)
        summary = {"sweep": sweep.to_dict()}
        if any(o.succeeded for o in sweep.outcomes):
            sample = sweep.sample
            summary["plt"] = {
                "n": len(sample), "mean": sample.mean,
                "p50": sample.median, "p95": sample.percentile(95.0),
            }
        atomic_write_text(journal + ".summary.json",
                          json.dumps(summary, indent=2, sort_keys=True))
        return sweep

    def check(self, sweep, index: int) -> Checked:
        errors = []
        for outcome in sweep.outcomes:
            expected = self.expected[outcome.trial % self.trials]
            if not outcome.succeeded:
                errors.append(f"trial {outcome.trial}: {outcome.status}: "
                              f"{outcome.error}")
            elif expected is None or outcome.digest != expected[1]:
                errors.append(f"trial {outcome.trial}: digest "
                              f"{outcome.digest} differs from the serial "
                              f"reference")
        if not errors:
            digest, sample = self.expected_sweep(len(sweep.outcomes))
            if sweep.digest != digest or sweep.sample.values != sample:
                errors.append("sweep digest or PLT sample differs from the "
                              "serial reference")
        return Checked(len(sweep.outcomes), len(errors), errors)


class _Plt(NamedTuple):
    """Just enough of a page-load result for ``SweepResult.sample``."""

    page_load_time: float


class CampaignSupervised(_Campaign):
    name = "campaign_supervised"
    op = "trial"

    def run_engine(self, journal: str):
        return run_supervised(
            self.factory(), self.ops_per_batch, workers=self.workers,
            journal=journal,
            run_key=run_key(bench=self.name, seed=self.seed,
                            trials=self.ops_per_batch),
            capture_digest=True)


class CampaignFabric(_Campaign):
    name = "campaign_fabric"
    op = "trial"

    def run_engine(self, journal: str):
        return run_fabric(
            LocalBackend(self.factory()), trials=self.ops_per_batch,
            shards=self.workers, journal=journal, capture_digest=True,
            heartbeat=0.5, progress_deadline=30)


# ---------------------------------------------------------------------- #
# bulk_transfer


def _delay20(stack):
    stack.add_delay(0.020)


def _link14_delay40(stack):
    stack.add_link(LINK_MBPS, LINK_MBPS)
    stack.add_delay(ONE_WAY_DELAY)


def _link3_queue60(stack):
    stack.add_link(3.0, 3.0, downlink_queue=DropTailQueue(max_packets=60))


def _loss1_delay20(stack):
    stack.add_loss(0.01)
    stack.add_delay(0.020)


#: The fixed mix: a pure-delay path (pure-ACK stream, loss-free fast
#: path), the page-load network, a congested link with a bounded queue,
#: and a randomly lossy path — each with 1 and with 4 concurrent flows.
BULK_CELLS = tuple(
    (f"{name}x{flows}", build, flows)
    for name, build in (
        ("delay20", _delay20), ("link14-delay40", _link14_delay40),
        ("link3-queue60", _link3_queue60), ("loss1-delay20", _loss1_delay20),
    )
    for flows in (1, 4)
)


class BulkTransfer(Workload):
    name = "bulk_transfer"
    op = "flow"

    def __init__(self, seed: int, quick: bool, workers: int) -> None:
        super().__init__(seed, quick, workers)
        self.flow_bytes = 100_000 if quick else 2_500_000
        self.events = 0

    @property
    def sizes(self):
        return {"flow_bytes": self.flow_bytes,
                "cells": [name for name, _, _ in BULK_CELLS],
                "flows_per_batch": self.ops_per_batch}

    @property
    def ops_per_batch(self) -> int:
        return sum(flows for _, _, flows in BULK_CELLS)

    def setup(self, directory: str) -> None:
        """Nothing to build: the mix is fixed and the flows are virtual."""

    def run_cell(self, index: int, observer=None, digest=None) -> List[float]:
        """One cell: ``flows`` concurrent downloads of ``flow_bytes``
        each; returns every flow's virtual completion time."""
        _, build, flows = BULK_CELLS[index]
        sim = Simulator(seed=trial_seed(self.seed, index))
        if observer is not None:
            observer.attach(sim)
        elif digest is not None:
            sim.set_trace(digest)
        machine = HostMachine(sim)
        server = TransportHost.ensure(sim, machine.namespace)
        stack = ShellStack(machine)
        build(stack)
        address = machine.namespace.any_local_address()
        total = self.flow_bytes

        # Both ends of every flow are this workload's own, so their
        # public counters can be read after the run; worlds that build
        # their connections inside http and browser offer no such handle.
        connections = []

        def on_connection(conn) -> None:
            connections.append(conn)
            conn.on_data = lambda pieces: conn.send_virtual(total)

        server.listen(address, 80, on_connection)
        received = [0] * flows
        finished: List[Optional[float]] = [None] * flows

        def start(flow: int) -> None:
            conn = stack.transport.connect(Endpoint(address, 80))
            connections.append(conn)
            conn.on_established = lambda: conn.send(b"GET")

            def on_data(pieces) -> None:
                received[flow] += pieces_len(pieces)
                if received[flow] >= total and finished[flow] is None:
                    finished[flow] = sim.now

            conn.on_data = on_data

        for flow in range(flows):
            start(flow)
        sim.run_until(lambda: None not in finished, timeout=600.0,
                      check_every=16)
        if observer is not None:
            observer.add_world(sim, stack, connections)
        if None in finished or any(n != total for n in received):
            raise ReproError(
                f"{self.name}: cell {BULK_CELLS[index][0]} delivered "
                f"{received} of {total} bytes per flow")
        self.events += sim.events_processed
        return [float(t) for t in finished]

    def run_cells(self, observer=None, digests=None) -> List[List[float]]:
        self.events = 0
        return [
            self.run_cell(index, observer,
                          digests[index] if digests else None)
            for index in range(len(BULK_CELLS))
        ]

    def reference(self) -> List[str]:
        digests = [EventStreamDigest() for _ in BULK_CELLS]
        try:
            self.expected = self.run_cells(digests=digests)
        except ReproError as exc:
            self.expected = None
            return [f"reference: {exc}"]
        self.results_digest = combined_digest([
            f"{index}:{digest.hexdigest}:{times!r}"
            for index, (digest, times)
            in enumerate(zip(digests, self.expected))
        ])
        self.counters = {
            "sim.events_per_op": self.events / self.ops_per_batch}
        return []

    def batch(self, index: int):
        try:
            return self.run_cells()
        except ReproError as exc:
            return exc

    def check(self, raw, index: int) -> Checked:
        ops = self.ops_per_batch
        if isinstance(raw, ReproError):
            return Checked(ops, ops, [str(raw)])
        errors, failed = [], 0
        for (name, _, flows), times, expected in zip(
                BULK_CELLS, raw, self.expected or [None] * len(raw)):
            if times != expected:
                failed += flows
                errors.append(f"cell {name}: flow completion times "
                              f"{times!r} differ from the reference")
        return Checked(ops, failed, errors)

    def traced(self, observer) -> List[List[float]]:
        times = self.run_cells(observer)
        if times != self.expected:
            raise ReproError(f"{self.name}: flows moved under observation")
        return times


# ---------------------------------------------------------------------- #
# load_world


class LoadWorld(Workload):
    name = "load_world"
    op = "client"

    #: Offered rate, clients per *virtual* second: open loop, so the knee
    #: and the backlog are simulated quantities, not host ones.
    rate = 60.0
    sites = 4

    def __init__(self, seed: int, quick: bool, workers: int) -> None:
        super().__init__(seed, quick, workers)
        self.clients = 8 if quick else 180
        self.population_seed, self.draws = balanced_seed(
            seed, lambda sub, sites: self.population(sub, sites).sites,
            self.sites, quick)

    @property
    def sizes(self):
        return {"clients_per_batch": self.clients, "rate_per_s": self.rate,
                "sites": self.sites, "site_scale": 0.25,
                "server_workers": 2}

    @property
    def ops_per_batch(self) -> int:
        return self.clients

    @staticmethod
    def population(seed: int, sites: int):
        return default_population(seed, n_sites=sites, scale=0.25)

    def setup(self, directory: str) -> None:
        population = self.population(self.population_seed, self.sites)
        population.merged_store()
        self.scenario = LoadScenario(
            population=population, arrivals=Poisson(self.rate),
            clients=self.clients, server_workers=2)

    def session(self, index: int = 0, observer=None, capture_digest=False):
        """Session ``index`` of the run: arrivals and client plan are
        seeded ``seed + index``, so a run's batches are ``seed`` …
        ``seed + 8`` against one population."""
        session = LoadSession(self.scenario, self.seed + index,
                              instrument=observer is not None)
        if observer is not None:
            observer.trace(session.sim)
        result = session.run(capture_digest=capture_digest)
        if observer is not None:
            observer.add_world(session.sim, session.stack)
        return result

    def reference(self) -> List[str]:
        result = self.session(capture_digest=True)
        #: Session 0's summary; the other sessions of a run are checked
        #: for completing every client, this one byte for byte.
        self.expected = result.to_dict()
        self.expected.pop("event_digest")
        self.results_digest = combined_digest([
            f"{result.event_digest}:"
            f"{json.dumps(self.expected, sort_keys=True)}"
        ])
        self.counters = {"sim.events_per_op": result.events / self.clients}
        self.counters.update(load_counters(result))
        del self.counters["load.peak_backlog"]  # needs the registry
        if result.completed != self.clients or result.failed:
            return [f"reference: {result.completed} of {self.clients} "
                    f"clients completed, {result.failed} failed"]
        return []

    def batch(self, index: int):
        return self.session(index)

    def check(self, result, index: int) -> Checked:
        summary = result.to_dict()
        summary.pop("event_digest")
        failed = max(result.failed, self.clients - result.completed)
        errors = []
        if failed:
            errors.append(f"{failed} of {self.clients} clients failed or "
                          f"never finished")
        elif index == 0 and summary != self.expected:
            failed = self.clients
            errors.append("session summary differs from the reference")
        return Checked(self.clients, failed, errors)

    def traced(self, observer):
        result = self.session(observer=observer)
        observed = load_counters(result)
        for name in ("load.completed", "load.client_p50_s",
                     "load.client_p99_s", "load.throughput_virtual"):
            if observed[name] != self.counters[name]:
                raise ReproError(
                    f"{self.name}: {name} moved under observation")
        return result

    def observed_counters(self, raw) -> Dict[str, float]:
        return load_counters(raw)


def load_counters(result) -> Dict[str, float]:
    """The exact counters of one load session. ``peak_backlog`` needs the
    session instrumented (0 otherwise), the rest do not."""
    return {
        "load.completed": result.completed,
        "load.client_p50_s": result.plt.p50,
        "load.client_p99_s": result.plt.p99,
        "load.peak_backlog": result.peak_backlog,
        "load.throughput_virtual": result.throughput,
    }


WORKLOAD_CLASSES = {
    cls.name: cls
    for cls in (ReplaySweep, BulkTransfer, LoadWorld, CampaignSupervised,
                CampaignFabric)
}
