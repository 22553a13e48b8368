"""The traced run's instruments: where the time and the work go, by layer.

Four sources, all outside ``src/repro``:

* :class:`WorldObserver` — a ``Simulator.set_trace`` hook that buckets every
  executed event by the package owning its callback, a ``MetricsRegistry``
  attached through ``Simulator.use_metrics``, and after the run the public
  counters on pipes, queues, servers and — where the workload itself opened
  and accepted them — TCP connections. All exact: the same seed gives the
  same numbers.
* :func:`profile_shares` — ``cProfile`` self time summed by
  ``repro.<package>``.
* the store and harness probes — public functions timed directly on the
  workload's real payloads (its recorded corpus, its reference results).
* :func:`ladder` — the same trials through one more harness layer per rung,
  CPU per trial, reported the way the paper's Figure 2 reports shells.
"""

from __future__ import annotations

import cProfile
import os
import pickle
import pstats
import statistics
import time
from typing import Any, Callable, Dict, List, Sequence, Tuple

from repro.core.linkshell import LinkShell
from repro.core.replayshell import ReplayShell
from repro.errors import ReproError
from repro.fabric.backend import LocalBackend
from repro.fabric.coordinator import run_fabric
from repro.fabric.protocol import read_message, write_message
from repro.measure.journal import TrialJournal
from repro.measure.runner import run_page_loads, run_trial
from repro.measure.supervise import TrialOutcome, run_supervised
from repro.obs import MetricsRegistry
from repro.obs.artifact import write_artifact
from repro.record.matcher import RequestMatcher
from repro.record.store import RecordedSite
from repro.sim import Simulator

from .harness import Spans, header, prepare
from .spec import ATTRIBUTED, LADDER, PER_LAYER, PER_LAYER_BY_NAME
from .workloads import LoadWorld, ReplaySweep, _Campaign

_SHARED = frozenset(ATTRIBUTED) - {"other"}
#: Passes over the op set in a traced run: plain, profiled, observed.
TRACED_PASSES = 3


def layer_of_module(module: str) -> str:
    """``repro.<package>.…`` → ``<package>`` when it is an attributed
    layer, else ``other``."""
    parts = module.split(".")
    if len(parts) > 1 and parts[0] == "repro" and parts[1] in _SHARED:
        return parts[1]
    return "other"


def callback_layer(callback: object) -> str:
    """The layer owning an event callback.

    Unwraps the way ``repro.analysis.sanitizer.callback_name`` does
    (``functools.partial`` chains, then the callable's type) but keeps
    the module where that keeps the qualified name.
    """
    while not isinstance(getattr(callback, "__qualname__", None), str):
        inner = getattr(callback, "func", None)
        if inner is None or inner is callback:
            return layer_of_module(type(callback).__module__)
        callback = inner
    return layer_of_module(getattr(callback, "__module__", None) or "")


class WorldObserver:
    """Counts what the simulated worlds of one batch did.

    ``attach(sim)`` before the world is built (components capture their
    probe handles at construction), ``add_world(sim, stack)`` once it is;
    ``counters()`` after the batch has run.
    """

    def __init__(self) -> None:
        self.events: Dict[str, int] = {layer: 0 for layer in ATTRIBUTED}
        self.queue_depth_max = 0
        self.worlds: List[Tuple[Simulator, Any]] = []
        #: Both ends of every TCP connection a workload made itself.
        self.connections: List[Any] = []
        self._layers: Dict[object, str] = {}

    def trace(self, sim: Simulator) -> None:
        """Install the event hook only (the world brings its own
        registry, as ``LoadSession(instrument=True)`` does)."""
        events = self.events
        layers = self._layers

        def hook(time: float, seq: int, callback: Callable) -> None:
            function = getattr(callback, "__func__", callback)
            layer = layers.get(function)
            if layer is None:
                layer = callback_layer(callback)
                if hasattr(function, "__qualname__"):
                    # Partials are one object per event: never cached.
                    layers[function] = layer
            events[layer] += 1
            depth = sim.pending_events
            if depth > self.queue_depth_max:
                self.queue_depth_max = depth

        sim.set_trace(hook)

    def attach(self, sim: Simulator) -> None:
        MetricsRegistry.install(sim)
        self.trace(sim)

    def add_world(self, sim: Simulator, stack: Any,
                  connections: Sequence[Any] = ()) -> None:
        self.worlds.append((sim, stack))
        self.connections.extend(connections)

    def counters(self, ops: int) -> Dict[str, float]:
        """Every exact simulated-world counter of the batch.

        Segment and retransmission counts live on ``TcpConnection``
        objects, and a closed connection leaves its host's table, so
        they are read only where the workload held the connections
        itself (``bulk_transfer``); elsewhere they read 0, and
        ``net.packets_sent`` / ``packets_dropped`` stand guard.
        """
        out: Dict[str, float] = {
            f"{layer}.events": count for layer, count in self.events.items()
        }
        out["sim.events_per_op"] = sum(self.events.values()) / ops
        out["sim.queue_depth_max"] = self.queue_depth_max
        virtual_seconds = sum(sim.now for sim, _ in self.worlds)
        sent = dropped = opportunities = queue_drops = 0
        requests = peak_backlog = queries = accepted = 0
        queue_depth = occupancy = 0.0
        delivered = wasted = 0
        for sim, stack in self.worlds:
            for shell in stack.shells:
                pipes = (shell.uplink_pipe, shell.downlink_pipe)
                sent += sum(p.packets_sent for p in pipes)
                dropped += sum(p.packets_dropped for p in pipes)
                if isinstance(shell, LinkShell):
                    opportunities += sum(p.opportunities_used for p in pipes)
                    queue_drops += (shell.uplink_queue.drops
                                    + shell.downlink_queue.drops)
                elif isinstance(shell, ReplayShell):
                    requests += sum(s.requests_served for s in shell.servers)
                    accepted += sum(s.connections_accepted
                                    for s in shell.servers)
                    peak_backlog = max(
                        [peak_backlog]
                        + [s.peak_backlog for s in shell.servers])
                    queries += shell.dns.queries_answered
            registry = sim.metrics
            for name, series in registry.series.items():
                if not series.points:
                    continue
                peak = max(value for _, value in series.points)
                if name.endswith(".queue_depth"):
                    queue_depth = max(queue_depth, peak)
                elif name.endswith(".occupancy"):
                    occupancy = max(occupancy, peak)
            for name, counter in registry.counters.items():
                if name.endswith(".bytes_delivered"):
                    delivered += counter.value
                elif name.endswith(".bytes_wasted"):
                    wasted += counter.value
        connections = self.connections
        segments = sum(c.segments_sent for c in connections)
        retransmissions = sum(c.retransmissions for c in connections)
        out.update({
            "net.packets_sent": sent,
            "net.packets_dropped": dropped,
            "linkem.opportunities_used": opportunities,
            "linkem.queue_drops": queue_drops,
            "linkem.queue_depth_max": queue_depth,
            "linkem.utilization":
                delivered / (delivered + wasted) if delivered else 0.0,
            "http.requests": requests,
            "http.server.peak_occupancy": occupancy,
            "http.server.peak_backlog": peak_backlog,
            "dns.queries": queries,
            "transport.segments_sent": segments,
            "transport.retransmissions": retransmissions,
            "transport.retransmit_share":
                retransmissions / segments if segments else 0.0,
            "transport.connections":
                accepted + sum(1 for c in connections if c.passive),
            "transport.goodput_mbps_virtual":
                sum(c.bytes_delivered for c in connections) * 8 / 1e6
                / virtual_seconds if virtual_seconds else 0.0,
        })
        return out


def profile_shares(profile) -> Dict[str, float]:
    """``<layer>.self_share`` from a finished ``cProfile.Profile``: self
    time (``tottime``) summed by the ``repro.<package>`` a function's
    file sits in; stdlib, builtins and this benchmark are ``other``."""
    totals = {layer: 0.0 for layer in ATTRIBUTED}
    marker = os.sep + "repro" + os.sep
    for (filename, _, _), row in pstats.Stats(profile).stats.items():
        layer = "other"
        at = filename.rfind(marker)
        if at >= 0:
            package = filename[at + len(marker):].split(os.sep, 1)[0]
            if package in _SHARED:
                layer = package
        totals[layer] += row[2]
    whole = sum(totals.values())
    return {f"{layer}.self_share": (value / whole if whole else 0.0)
            for layer, value in totals.items()}


def dispatch_floor_us(events: int) -> float:
    """Host µs per event of an empty chained timer: ``schedule`` + the
    ``run`` loop's dispatch and nothing else."""
    sim = Simulator()
    remaining = [events]

    def tick() -> None:
        remaining[0] -= 1
        if remaining[0]:
            sim.schedule(0.001, tick)

    sim.schedule(0.001, tick)
    started = time.perf_counter()
    sim.run()
    return (time.perf_counter() - started) * 1e6 / events


# ---------------------------------------------------------------------- #
# observer-cost probes (replay_sweep's trial set)


class _RegistryOnly:
    """An observer that attaches a registry and nothing else.

    It keeps the first ``keep`` registries (for the artifact-write
    probe) and lets the rest go with their worlds: a few dozen retained
    registries are enough live objects to slow every later trial's
    garbage collections, which would be charged to whatever runs next.
    """

    def __init__(self, keep: int = 0) -> None:
        self.keep = keep
        self.registries: List[MetricsRegistry] = []

    def attach(self, sim: Simulator) -> None:
        registry = MetricsRegistry.install(sim)
        if len(self.registries) < self.keep:
            self.registries.append(registry)

    def add_world(self, sim: Simulator, stack: Any) -> None:
        pass


def observer_costs(workload, directory: str) -> Dict[str, float]:
    """What looking costs: the digest hook and the registry, each
    against the plain trial, and writing one trial's artifact.

    Plain and observed runs of one trial sit back to back (order
    alternating), so slow drift of the box hits both sides alike.
    """
    registries = _RegistryOnly(keep=3)
    variants = {
        "plain": lambda t: run_trial(workload.factory(), t),
        "digest": lambda t: run_trial(workload.factory(), t,
                                      capture_digest=True),
        "obs": lambda t: run_trial(workload.factory(registries), t),
    }
    ratios: Dict[str, List[float]] = {"digest": [], "obs": []}
    for trial in range(workload.trials):
        order = list(variants) if trial % 2 else list(variants)[::-1]
        spent = {}
        for name in order:
            started = time.process_time()
            variants[name](trial)
            spent[name] = time.process_time() - started
        for name, values in ratios.items():
            values.append(spent[name] / spent["plain"])
    started = time.perf_counter()
    for index, registry in enumerate(registries.registries):
        write_artifact(os.path.join(directory, f"obs-{index}.jsonl"),
                       registry, meta={"trial": index})
    written = time.perf_counter() - started
    # The median of the per-trial ratios: a burst of noise that lands on
    # one side of one trial moves one ratio, not the answer.
    return {
        "analysis.digest_overhead_pct":
            (statistics.median(ratios["digest"]) - 1.0) * 100.0,
        "obs.overhead_pct": (statistics.median(ratios["obs"]) - 1.0) * 100.0,
        "obs.artifact_write_ms": written * 1e3 / len(registries.registries),
    }


# ---------------------------------------------------------------------- #
# store probes


def matcher_match_us(store) -> float:
    """Host µs per ``RequestMatcher.match`` over a site's own requests."""
    matcher = RequestMatcher(store.pairs)
    requests = [pair.request for pair in store.pairs]
    rounds = max(1, 2000 // len(requests))
    started = time.perf_counter()
    for _ in range(rounds):
        for request in requests:
            matcher.match(request)
    return (time.perf_counter() - started) * 1e6 / (rounds * len(requests))


def store_probes(workload) -> Dict[str, float]:
    """The recorded store as the campaign trials use it: load, blob
    reads, on-disk size."""
    started = time.perf_counter()
    stores = [RecordedSite.load(site_dir) for site_dir in workload.site_dirs]
    load_ms = (time.perf_counter() - started) * 1e3 / len(stores)
    cas = workload.cas
    refs = [ref for ref, _ in cas.blobs()]
    started = time.perf_counter()
    for ref in refs:
        cas.get(ref)
    get_us = (time.perf_counter() - started) * 1e6 / len(refs)
    on_disk = 0
    for parent, _, files in os.walk(os.path.join(workload.directory,
                                                 "corpus")):
        on_disk += sum(os.path.getsize(os.path.join(parent, name))
                       for name in files)
    return {
        "record.load_ms_per_site": load_ms,
        "record.cas.get_us_per_blob": get_us,
        "record.matcher.match_us": matcher_match_us(stores[0]),
        "record.bytes_on_disk": on_disk,
        "record.dedup_ratio":
            (cas.written + cas.deduped) / cas.written if cas.written else 0.0,
    }


# ---------------------------------------------------------------------- #
# harness probes (the campaigns' reference results as payloads)


def fork_ms(rounds: int) -> float:
    """fork + ``_exit`` + ``waitpid`` from this (loaded) process."""
    started = time.perf_counter()
    for _ in range(rounds):
        pid = os.fork()
        if pid == 0:
            os._exit(0)
        os.waitpid(pid, 0)
    return (time.perf_counter() - started) * 1e3 / rounds


def harness_probes(workload, results: List[Any]) -> Dict[str, float]:
    """The per-trial harness taxes, each timed alone on real payloads."""
    count = len(results)
    out: Dict[str, float] = {}

    started = time.perf_counter()
    sizes = []
    for result in results:
        payload = pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)
        pickle.loads(payload)
        sizes.append(len(payload))
    out["measure.pickle_ms_per_result"] = \
        (time.perf_counter() - started) * 1e3 / count
    out["measure.result_bytes"] = sum(sizes) / count
    out["measure.fork_ms"] = fork_ms(5 if workload.quick else 25)

    path = os.path.join(workload.directory, "probe.journal.jsonl")
    journal = TrialJournal(path, key="probe")
    started = time.perf_counter()
    for trial, result in enumerate(results):
        journal.append(
            trial, {"status": "ok", "attempts": 1, "result": result},
            digest=getattr(result, "event_digest", None))
    out["measure.journal.append_ms"] = \
        (time.perf_counter() - started) * 1e3 / count
    journal.close()
    out["measure.journal.bytes_per_trial"] = os.path.getsize(path) / count
    started = time.perf_counter()
    recovered = TrialJournal(path, key="probe")
    out["measure.journal.recover_ms"] = \
        (time.perf_counter() - started) * 1e3
    started = time.perf_counter()
    recovered.rewrite()
    out["fabric.journal_rewrite_ms"] = (time.perf_counter() - started) * 1e3

    # One outcome frame, coordinator-bound, over a real pipe. The frame
    # is written before it is read, so it must fit the pipe's buffer;
    # results here are a few KiB against Linux's 64 KiB.
    outcomes = [
        TrialOutcome(trial=trial, status="ok", attempts=1, error=None,
                     result=result,
                     digest=getattr(result, "event_digest", None))
        for trial, result in enumerate(results)
    ]
    read_fd, write_fd = os.pipe()
    with os.fdopen(read_fd, "rb", buffering=0) as rfile, \
            os.fdopen(write_fd, "wb", buffering=0) as wfile:
        started = time.perf_counter()
        for outcome in outcomes:
            write_message(wfile, ("outcome", outcome))
            read_message(rfile)
        out["fabric.protocol.roundtrip_ms"] = \
            (time.perf_counter() - started) * 1e3 / count
    # A frame is a 16-byte header plus the pickled (kind, data) message.
    out["fabric.frame_bytes_per_trial"] = sum(
        16 + len(pickle.dumps(("outcome", outcome),
                              protocol=pickle.HIGHEST_PROTOCOL))
        for outcome in outcomes) / count

    backend = LocalBackend(workload.factory())
    rounds = 2 if workload.quick else 5
    started = time.perf_counter()
    handles = []
    for shard in range(rounds):
        handle = backend.start_worker(shard)
        read_message(handle.rfile)  # the worker's hello
        handles.append(handle)
    out["fabric.spawn_ms"] = (time.perf_counter() - started) * 1e3 / rounds
    for handle in handles:
        handle.kill()
        handle.wait()
        handle.close()
    return out


# ---------------------------------------------------------------------- #
# the Figure-2 ladder


def ladder(workload, spans) -> Dict[str, float]:
    """CPU per trial on the campaign trial set, one harness layer added
    per rung; each rung's overhead is over the rung below it.

    ``obs`` is a side rung (the campaigns attach no registry): the
    ``supervised1`` rung's base is ``bare``. Rungs run interleaved, a
    chunk of trials each per round, so drift of the box spreads over
    all of them instead of landing on one.
    """
    rounds = 1 if workload.quick else 3
    chunk = 2 if workload.quick else 20
    workers = workload.workers
    registries = _RegistryOnly()
    journals = [0]

    def journal() -> str:
        journals[0] += 1
        return os.path.join(workload.directory,
                            f"ladder.{journals[0]}.journal.jsonl")

    def shifted(base: int, observer=None):
        factory = workload.factory(observer)
        return lambda trial: factory(base + trial)

    rungs: Dict[str, Callable[[int], Any]] = {
        "bare": lambda base: run_page_loads(shifted(base), chunk),
        "obs": lambda base: run_page_loads(shifted(base, registries), chunk),
        "supervised1": lambda base: run_supervised(
            shifted(base), chunk, workers=1),
        "digest": lambda base: run_supervised(
            shifted(base), chunk, workers=1, capture_digest=True),
        "journal": lambda base: run_supervised(
            shifted(base), chunk, workers=1, capture_digest=True,
            journal=journal()),
        "pool2": lambda base: run_supervised(
            shifted(base), chunk, workers=workers, capture_digest=True,
            journal=journal()),
        "fabric1": lambda base: run_fabric(
            LocalBackend(shifted(base)), trials=chunk, shards=1,
            capture_digest=True, journal=journal()),
        "fabric2hb": lambda base: run_fabric(
            LocalBackend(shifted(base)), trials=chunk, shards=workers,
            capture_digest=True, journal=journal(), heartbeat=0.5,
            progress_deadline=30),
    }
    spent = {rung: 0.0 for rung in LADDER}
    heartbeats = 0
    for round_index in range(rounds):
        for rung in LADDER:
            with spans.span(f"ladder.{rung}", batch=round_index):
                result = rungs[rung](round_index * chunk)
            spent[rung] += spans.records[-1]["cpu"]
            if rung == "fabric2hb":
                heartbeats += \
                    result.metrics.counter("fabric.heartbeats").value
    out: Dict[str, float] = {"fabric.heartbeats": heartbeats}
    per_op = {rung: spent[rung] * 1e3 / (rounds * chunk) for rung in LADDER}
    for index, rung in enumerate(LADDER):
        below = "bare" if rung in ("bare", "obs", "supervised1") \
            else LADDER[index - 1]
        out[f"ladder.{rung}.cpu_ms_per_op"] = per_op[rung]
        out[f"ladder.{rung}.overhead_pct"] = \
            (per_op[rung] / per_op[below] - 1.0) * 100.0
    return out


def world_build_ms(times: List[Tuple[float, float]]) -> float:
    """Mean ms inside ``factory(i)`` outside the store load."""
    return sum(whole - load for load, whole in times) * 1e3 / len(times)


# ---------------------------------------------------------------------- #
# the traced run


def run_traced(workload, scratch: str) -> Dict[str, Any]:
    """One workload's per-layer metrics.

    After the probes, the workload's op set runs three times, serially,
    in this process: plain (the untraced wall the overhead is taken
    against), under ``cProfile`` alone (self time per layer, on the
    simulator's fast loop), and under the :class:`WorldObserver` (exact
    counts; the hook moves the simulator to its traced loop, so this
    pass is never timed per layer).
    """
    spans = Spans()
    errors = prepare(workload, scratch, 1, spans)
    ops = workload.trace_ops
    attempted = failed = 0
    campaign = isinstance(workload, _Campaign)

    def one_pass(name: str, observer=None):
        nonlocal attempted, failed
        attempted += ops
        raw = None
        with spans.span(name):
            try:
                raw = workload.traced(observer)
            except ReproError as exc:
                failed += ops
                errors.append(f"{name}: {exc}")
        return raw, spans.seconds(name)[0]

    values: Dict[str, float] = dict(workload.phases)

    # The probes first, while this process is what the untraced
    # workload's is: the passes further down leave profiles, registries
    # and whole worlds on the heap, where they slow every later garbage
    # collection and are copied on write by every later fork.
    if isinstance(workload, ReplaySweep):
        with spans.span("observer_costs"):
            values.update(observer_costs(workload, scratch))
        values["record.matcher.match_us"] = \
            matcher_match_us(workload.stores[0])
    elif isinstance(workload, LoadWorld):
        values["record.matcher.match_us"] = matcher_match_us(
            workload.scenario.population.merged_store())
    elif campaign and not errors:
        with spans.span("store_probes"):
            values.update(store_probes(workload))
        with spans.span("harness_probes"):
            values.update(harness_probes(workload,
                                         workload.reference_results))
        with spans.span("ladder"):
            values.update(ladder(workload, spans))

    if campaign:
        workload.factory_times = []
    _, plain_wall = one_pass("plain")
    if campaign:
        if workload.factory_times:
            values["core.world_build_ms"] = \
                world_build_ms(workload.factory_times)
        workload.factory_times = None

    profile = cProfile.Profile()
    profile.enable()
    try:
        _, profiled_wall = one_pass("profiled")
    finally:
        profile.disable()
    values.update(profile_shares(profile))

    observer = WorldObserver()
    raw, observed_wall = one_pass("observed", observer)
    values.update(observer.counters(ops))
    if raw is not None:
        values.update(workload.observed_counters(raw))
    events = sum(observer.events.values())
    values["sim.host_us_per_event"] = plain_wall * 1e6 / max(1, events)
    with spans.span("dispatch_floor"):
        values["sim.dispatch_us_per_event"] = dispatch_floor_us(
            20_000 if workload.quick else 200_000)
    values["trace.overhead_x"] = \
        (profiled_wall + observed_wall) / (2.0 * plain_wall)

    # The exact counters the untraced reference could see must read the
    # same here: observing must not have changed the simulation.
    for name, expected in workload.counters.items():
        if values.get(name) != expected:
            errors.append(f"exact counter {name} reads {values.get(name)!r} "
                          f"traced, {expected!r} untraced")

    unknown = sorted(set(values) - set(PER_LAYER_BY_NAME))
    if unknown:
        errors.append(f"undeclared per-layer metrics: {unknown}")
    metrics = {
        m.name: {"value": values.get(m.name, 0.0), "unit": m.unit}
        for m in PER_LAYER
    }
    return {
        "mode": "traced",
        "header": header(workload, TRACED_PASSES),
        "correct": not errors and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "results_digest": workload.results_digest,
        "metrics": metrics,
        "measured": sorted(values),
        "exact": {name: value for name, value in sorted(values.items())
                  if name in PER_LAYER_BY_NAME
                  and PER_LAYER_BY_NAME[name].exact},
        "spans": spans.records,
    }
