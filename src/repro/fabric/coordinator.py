"""The trial dispatcher: one queue, one kind of worker — byte-identical.

Every parallel batch of trials in this repo runs through
:func:`dispatch`: a single loop that owns a FIFO of pending trials and a
set of live workers obtained from a
:class:`~repro.fabric.backend.FabricBackend`, and hands each worker
**one trial at a time** over the framed protocol (``run [t]`` →
``outcome``, ``done``). It has two callers: the sweep
(:func:`~repro.measure.supervise.run_sweep`, the one body under
``run_supervised`` and :func:`run_fabric`, which adds the journal around
it) and :func:`~repro.measure.parallel.parallel_map` (loss budget 0, no
journal, the lowest failing index re-raised).

**The byte-identity guarantee.** Because trials are deterministic pure
functions of their index (DESIGN.md §6), *where* and *when* a trial runs
cannot change its result. Outcomes are merged purely by trial index — so
the :class:`~repro.measure.supervise.SweepResult` sample, the combined
event-stream digest, and the rewritten journal are byte-identical to an
in-process ``run_supervised(workers=1)`` of the same sweep, for any
worker count, any backend, and any interleaving of worker completions.
Tests assert this literally (``tests/test_fabric/``) and CI re-proves it
on every push — including under injected harness faults
(:mod:`repro.fabric.faults`).

**One loss/retry rule** (DESIGN.md §9 has the full fault × detection ×
recovery matrix):

* A *reported* failure never leaves the worker — that is
  :func:`~repro.measure.supervise.run_shard`'s retry/quarantine loop.
* A *lost holder* — crash, SIGKILL, torn stream, watchdog kill — costs
  exactly the one trial the worker held: it goes back on the queue and
  a replacement worker is spawned, until the trial has lost
  ``worker_retries`` + 1 holders and is recorded ``crashed``. Losses are
  counted per trial and never show in a successful outcome, which
  records only the trial's own deterministic history.
* A worker is *silent*, not slow, when neither an outcome nor a
  heartbeat arrived for ``deadline`` seconds since its trial was
  dispatched; the watchdog SIGKILLs it (a lost holder). With
  ``heartbeat`` set a slow trial keeps beating and is left alone.
* A *spawn failure* is retried with capped exponential backoff and
  seeded jitter; a slot that cannot be filled is given up and a host
  that crashes ``quarantine_after`` times running is benched — fewer
  workers pull from the same queue, the sweep degrades instead of
  aborting.
* An outcome frame *eaten by the wire* shows as a ``done`` for the run
  in flight with no outcome before it: the trial is sent again
  (bounded), because re-running a pure function is always safe.
* With ``speculate``, a worker that finds the queue empty copies the
  oldest trial still in flight elsewhere; the first outcome per trial
  wins, the duplicate is discarded unjournaled, and the sweep returns
  as soon as every trial has an outcome.
"""

from __future__ import annotations

import queue
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import (
    Any, Callable, Deque, Dict, List, Optional, Sequence, Tuple, Union,
)

from repro.errors import FabricError, ProtocolError
from repro.fabric.backend import FabricBackend, WorkerHandle
from repro.fabric.health import BackoffPolicy, HostHealth
from repro.fabric.protocol import PROTOCOL_VERSION, read_message, write_message
from repro.measure.journal import TrialJournal
from repro.measure.runner import DEFAULT_TRIAL_TIMEOUT
from repro.measure.supervise import SweepResult, TrialOutcome, run_sweep
from repro.obs.registry import MetricsRegistry

__all__ = [
    "FabricResult",
    "dispatch",
    "run_fabric",
]

#: How many damaged frames one read_message call may resync past in the
#: dispatcher's reader threads (checksum skips + magic scans).
_READ_RESYNC = 8

#: How many times one worker may be sent a trial again because the wire
#: ate its outcome before the dispatcher gives up on its stream.
_MAX_REDELIVERIES = 3

#: How many speculative duplicates one trial may get.
_SPECULATE_COPIES = 1

#: Seconds a worker told to shut down may linger before it is SIGKILLed.
_LINGER = 5.0


#: What ``run_fabric`` returns: the one :class:`SweepResult` every sweep
#: returns, under the fabric's name for it.
FabricResult = SweepResult


@dataclass
class _Worker:
    """Dispatcher-side record of one live worker and the trial it holds."""

    seq: int                      # worker sequence number (sidecar name)
    handle: WorkerHandle
    host: str                     # backend host key (health bookkeeping)
    trial: int                    # the one trial in flight
    started: float                # wall clock of that trial's dispatch
    last_beat: float              # dispatch or latest heartbeat since
    runs: int = 0                 # ``run`` frames sent so far
    speculative: bool = False     # ``trial`` is a copy of a straggler's
    redeliveries: int = 0
    stats: Dict[str, int] = field(default_factory=dict)  # reader's resyncs
    thread: threading.Thread = field(init=False)         # the reader


_Event = Tuple[int, str, Any]


def _reader(seq: int, handle: WorkerHandle, events: "queue.Queue[_Event]",
            io_deadline: Optional[float], stats: Dict[str, int]) -> None:
    """Pump one worker's messages into the dispatcher's event queue.

    One thread per worker: a blocking read only ever stalls its own
    worker's lane, and worker death surfaces as an ``eof``/``broken``
    event instead of a hung dispatcher. With an ``io_deadline`` even
    the blocking read is bounded (half-open connections become
    ``broken`` events); damaged frames are resync'd up to
    :data:`_READ_RESYNC` per read and counted in ``stats``.
    """
    try:
        while True:
            kind, data = read_message(handle.rfile, timeout=io_deadline,
                                      resync=_READ_RESYNC, stats=stats)
            events.put((seq, kind, data))
            if kind == "error":
                return
    except EOFError:
        events.put((seq, "eof", None))
    except (ProtocolError, OSError, ValueError) as exc:
        events.put((seq, "broken", str(exc)))


def run_fabric(
    backend: FabricBackend,
    trials: int,
    shards: int = 2,
    timeout: float = DEFAULT_TRIAL_TIMEOUT,
    allow_failures: bool = False,
    retries: int = 1,
    worker_retries: int = 1,
    journal: Optional[Union[str, TrialJournal]] = None,
    run_key: Optional[str] = None,
    capture_digest: bool = False,
    progress_deadline: Optional[float] = None,
    worker_journals: bool = False,
    metrics: Optional[MetricsRegistry] = None,
    heartbeat: Optional[float] = None,
    io_deadline: Optional[float] = None,
    spawn_retries: int = 2,
    quarantine_after: int = 3,
    speculate: bool = False,
) -> SweepResult:
    """Run a sweep over ``shards`` fabric workers; merge byte-identically.

    Args:
        backend: where workers come from (local fork, subprocess,
            remote). Spawned backends carry their own
            :class:`~repro.fabric.worker.FactorySpec`.
        trials: number of independent trials (indices ``0..trials-1``).
        shards: how many workers pull from the trial queue (never more
            than there are trials to run). The merge is by index, so
            the count never shows in the output.
        timeout, allow_failures, journal, run_key, capture_digest: as
            for :func:`~repro.measure.supervise.run_supervised`.
        retries: *in-worker* retry budget per trial for reported
            failures (same meaning as ``run_supervised``).
        worker_retries: how many lost holders (worker deaths, watchdog
            kills) a trial survives before it is recorded ``crashed``.
        progress_deadline: wall-clock seconds a worker holding a trial
            may go without evidence of life before the watchdog kills it
            (None disables). With ``heartbeat`` set this measures
            *silence* — a slow trial keeps beating and is left alone;
            without heartbeats it is seconds since the trial's dispatch,
            so a long trial can be killed as stalled. Harness wall time
            only; the per-trial virtual ``timeout`` still governs
            simulated time.
        worker_journals: also have each worker checkpoint to a
            ``<journal>.shard<seq>`` sidecar, merged into the main
            journal on the next resume (defense in depth for a killed
            *coordinator*; the coordinator already journals every
            streamed outcome itself).
        metrics: registry for ``fabric.*`` instruments (created when
            None; returned on the result either way).
        heartbeat: wall seconds between worker liveness pulses (None
            disables). Choose well under ``progress_deadline`` so
            several beats fit in one watchdog window.
        io_deadline: per-frame read/write deadline (wall seconds) on the
            coordinator's side of every worker stream. Bounds even the
            reader threads: a half-open connection becomes a lost worker
            instead of a hang. Must exceed ``heartbeat`` (beats are what
            keep an idle stream alive under a deadline).
        spawn_retries: extra attempts when ``backend.start_worker``
            fails, spaced by a :class:`BackoffPolicy` (seeded jitter).
        quarantine_after: consecutive crashes (spawn failures or worker
            deaths) after which a host is quarantined and the sweep
            degrades to the remaining workers.
        speculate: a worker that finds the queue empty duplicates the
            oldest trial still in flight; first outcome wins,
            byte-identity is unaffected (trials are pure functions of
            their index).

    Returns:
        A :class:`SweepResult` whose sample, digest, and journal are
        byte-identical to ``run_supervised(...)`` over the same sweep.
    """
    return run_sweep(
        None, backend, trials, shards, timeout=timeout,
        allow_failures=allow_failures, retries=retries,
        worker_retries=worker_retries, deadline=progress_deadline,
        journal=journal, run_key=run_key, capture_digest=capture_digest,
        worker_journals=worker_journals, metrics=metrics,
        heartbeat=heartbeat, io_deadline=io_deadline,
        spawn_retries=spawn_retries,
        health=HostHealth(quarantine_after=quarantine_after),
        speculate=speculate, spelled=("shards", "progress_deadline"))


def dispatch(
    backend: FabricBackend,
    pending: Sequence[int],
    workers: int,
    outcomes: Dict[int, TrialOutcome],
    config: Dict[str, Any],
    record: Callable[[TrialOutcome], None],
    worker_retries: int,
    deadline: Optional[float] = None,
    io_deadline: Optional[float] = None,
    spawn_retries: int = 2,
    health: Optional[HostHealth] = None,
    speculate: bool = False,
    sidecars: Optional[str] = None,
    metrics: Optional[MetricsRegistry] = None,
) -> None:
    """Run ``pending`` trials on up to ``workers`` workers from
    ``backend``, one trial per worker at a time; fill ``outcomes``.

    The queue is FIFO; a worker that reports is handed the next trial
    *before* its outcome is passed to ``record`` (the journal fsync), so
    it computes through the write. A worker with nothing left to run is
    sent home on the spot, so every live worker holds exactly one trial
    — which is what makes a loss cost exactly that trial, lets the
    watchdog clock start at dispatch, and needs no cooperation from a
    SIGKILLed victim. Every trial in ``pending`` has an outcome on
    return; every worker is reaped, whatever raises.

    Args:
        config: what every worker is configured with: ``retries``,
            ``heartbeat``, ``run_key``, and the trial knobs (``timeout``,
            ``allow_failures``, ``capture_digest``) or ``task``.
        record: called once per trial with its first outcome, in
            arrival order (the journal writer, or a caller's hook).
        worker_retries: lost holders a trial survives (see module doc).
        deadline: the liveness deadline, wall seconds (None: no
            watchdog).
        health: per-host crash streaks; the default never quarantines
            (one host has nowhere to fall back to).
        sidecars: journal path workers derive their ``.shard<seq>``
            sidecar journals from (None: workers hold no journal).
    """
    if metrics is None:
        metrics = MetricsRegistry()
    if health is None:
        # More consecutive crashes than every loss budget together allows.
        health = HostHealth(len(pending) * (worker_retries + 1) + 1)
    events: "queue.Queue[_Event]" = queue.Queue()
    todo: Deque[int] = deque(pending)
    active: Dict[int, _Worker] = {}
    spent: List[_Worker] = []       # retired workers, reaped at the end
    losses: Dict[int, int] = {}     # trial -> holders lost so far
    copies: Dict[int, int] = {}     # trial -> speculative duplicates
    slots = min(workers, len(pending))
    unresolved = len(pending)
    next_seq = 0
    max_gap = 0.0
    gave_up = "no worker could be spawned"
    backoff = BackoffPolicy()
    spec = backend.factory_spec()

    def crash(trial: int, reason: str) -> None:
        nonlocal unresolved
        outcomes[trial] = TrialOutcome(
            trial=trial, status="crashed", attempts=losses.get(trial, 1),
            error=f"trial {trial}: {reason}", result=None,
        )
        unresolved -= 1
        metrics.counter("fabric.trials_crashed").add(1)

    def spawn() -> bool:
        """Start a worker for the head of the queue, with backoff-retry
        and host quarantine; False when the slot cannot be filled."""
        nonlocal next_seq, gave_up
        seq = next_seq
        next_seq += 1
        host = backend.host_key(seq)
        handle: Optional[WorkerHandle] = None
        gave_up = f"host {host!r} is quarantined"
        for attempt in range(spawn_retries + 1):
            if not health.usable(host):
                break
            try:
                handle = backend.start_worker(seq)
                break
            except FabricError as exc:
                gave_up = (f"cannot spawn a worker on {host!r} after "
                           f"{attempt + 1} attempts: {exc}")
                if health.record_crash(host):
                    metrics.counter("fabric.hosts_quarantined").add(1)
                if attempt < spawn_retries and health.usable(host):
                    metrics.counter("fabric.spawn_retries").add(1)
                    backoff.sleep(attempt)
        if handle is None:
            metrics.counter("fabric.spawn_failures").add(1)
            return False
        now = time.monotonic()
        worker = _Worker(seq=seq, handle=handle, host=host,
                         trial=todo.popleft(), started=now, last_beat=now)
        worker.thread = threading.Thread(
            target=_reader, args=(seq, handle, events, io_deadline,
                                  worker.stats),
            name=f"fabric-reader-{seq}", daemon=True,
        )
        worker.thread.start()
        active[seq] = worker
        metrics.counter("fabric.workers_spawned").add(1)
        return True

    def send(worker: _Worker, message: Tuple[str, Any]) -> None:
        try:
            write_message(worker.handle.wfile, message, timeout=io_deadline)
        except (ProtocolError, OSError, ValueError) as exc:
            lose(worker, f"worker unreachable: {exc}")

    def run(worker: _Worker, trial: int) -> None:
        worker.trial = trial
        worker.started = worker.last_beat = time.monotonic()
        worker.runs += 1
        send(worker, ("run", [trial]))

    def configure(worker: _Worker, hello: Any) -> None:
        if not isinstance(hello, dict) or \
                hello.get("protocol") != PROTOCOL_VERSION:
            raise FabricError(
                f"worker {worker.handle.pid} speaks protocol "
                f"{hello.get('protocol') if isinstance(hello, dict) else hello!r}, "
                f"coordinator speaks {PROTOCOL_VERSION} — refusing the "
                f"whole sweep (a version skew is systemic, not a crash)"
            )
        settings = dict(config, protocol=PROTOCOL_VERSION, journal=(
            f"{sidecars}.shard{worker.seq}" if sidecars is not None else None))
        if spec is not None:  # fresh-process workers inherit no closure
            settings["factory"] = (spec.spec, spec.kwargs)
        send(worker, ("config", settings))
        if worker.seq in active:
            run(worker, worker.trial)

    def feed(worker: _Worker) -> None:
        """Hand ``worker`` its next trial: the head of the queue, else
        (speculating) a copy of the oldest trial still in flight
        elsewhere, else send it home."""
        worker.speculative = False
        if todo:
            run(worker, todo.popleft())
            return
        stragglers = [
            other for other in active.values()
            if other is not worker and other.trial not in outcomes
            and copies.get(other.trial, 0) < _SPECULATE_COPIES
        ] if speculate else []
        if not stragglers:
            shutdown(worker)
            return
        trial = min(stragglers, key=lambda other: other.started).trial
        copies[trial] = copies.get(trial, 0) + 1
        worker.speculative = True
        metrics.counter("fabric.speculative_trials").add(1)
        run(worker, trial)

    def shutdown(worker: _Worker) -> None:
        """End a finished worker's conversation politely (reaped, and
        SIGKILLed if it lingers, once the sweep is over)."""
        del active[worker.seq]
        spent.append(worker)
        try:
            write_message(worker.handle.wfile, ("shutdown", None),
                          timeout=io_deadline if io_deadline else _LINGER)
            worker.handle.wfile.close()
        except (ProtocolError, OSError, ValueError):
            pass

    def lose(worker: _Worker, failure: Optional[str]) -> None:
        """``worker`` is gone (dead, torn, wedged): reap it, and put the
        one trial it held back on the queue — or record the trial
        ``crashed`` once its loss budget is spent.

        Streams are closed later (at sweep end, once the reader thread
        has drained): a wedged stream's reader can be blocked forever,
        and closing its fd out from under it would let the fd number be
        reused mid-read.
        """
        if active.pop(worker.seq, None) is None:
            return
        spent.append(worker)
        worker.handle.kill()
        code = worker.handle.wait()
        metrics.counter("fabric.worker_crashes").add(1)
        if health.record_crash(worker.host):
            metrics.counter("fabric.hosts_quarantined").add(1)
        trial = worker.trial
        if trial in outcomes or any(other.trial == trial
                                    for other in active.values()):
            return  # answered, or a speculative copy still holds it
        losses[trial] = losses.get(trial, 0) + 1
        if losses[trial] <= worker_retries:
            todo.append(trial)
            metrics.counter("fabric.trials_reassigned").add(1)
        else:
            crash(trial, failure or "worker process died without reporting ("
                  + (f"signal {-code}" if code < 0 else f"exit code {code}")
                  + ")")

    try:
        while unresolved:
            while todo and len(active) < slots:
                if not spawn():
                    slots -= 1  # fewer workers pull from the same queue
            if not active:
                break  # nobody left to run what remains
            # A frame or a death is an event; only a deadline passing
            # needs a timeout.
            wait = None
            if deadline is not None:
                wait = max(0.0, min(w.last_beat for w in active.values())
                           + deadline - time.monotonic())
            try:
                seq, kind, data = events.get(timeout=wait)
            except queue.Empty:
                # Nothing is waiting to be read, so the silence is the
                # workers', not this loop's. It is measured from the
                # last *evidence of life* — dispatch or heartbeat — so
                # with heartbeats on, a slow-but-alive worker is never
                # killed; a wedged one (or a half-open pipe) is. Killing
                # here, not via the reader thread, matters: a wedged
                # stream's reader may never wake to deliver an eof.
                now = time.monotonic()
                for worker in [w for w in active.values()
                               if now - w.last_beat >= deadline]:
                    metrics.counter("fabric.watchdog_kills").add(1)
                    lose(worker, f"no outcome or heartbeat within the "
                                 f"{deadline}s wall-clock deadline; worker "
                                 f"killed by the watchdog")
                continue
            worker = active.get(seq)
            if worker is None:
                continue  # stale event from an already-retired worker
            now = time.monotonic()
            if kind == "hello":
                configure(worker, data)
            elif kind == "heartbeat":
                max_gap = max(max_gap, now - worker.last_beat)
                worker.last_beat = now
                metrics.counter("fabric.heartbeats").add(1)
            elif kind == "outcome":
                if not isinstance(data, TrialOutcome) \
                        or data.trial != worker.trial:
                    lose(worker, f"worker holding trial {worker.trial} sent "
                                 f"{data!r:.80} as its outcome")
                    continue
                max_gap = max(max_gap, now - worker.last_beat)
                health.record_success(worker.host)
                first = data.trial not in outcomes
                won = first and worker.speculative
                if first:
                    outcomes[data.trial] = data
                    unresolved -= 1
                feed(worker)  # before the fsync below, not after
                if first:
                    record(data)
                    metrics.counter("fabric.trials_completed").add(1)
                    if won:
                        metrics.counter("fabric.speculative_wins").add(1)
                elif data.trial in copies:
                    # A duplicate landed after the race was decided;
                    # discard it (first outcome won, bytes identical).
                    metrics.counter("fabric.speculative_losses").add(1)
            elif kind == "done":
                if not isinstance(data, dict) \
                        or data.get("batch") != worker.runs - 1:
                    continue  # an earlier run's: its outcome fed the worker
                # The run in flight is over and no outcome fed the
                # worker: the wire ate the frame (drop, resync'd
                # corruption). Pure functions re-run safely — bounded.
                if worker.trial in outcomes:
                    feed(worker)
                elif worker.redeliveries >= _MAX_REDELIVERIES:
                    lose(worker, f"worker's outcome frames were lost "
                                 f"{worker.redeliveries + 1} times running")
                else:
                    worker.redeliveries += 1
                    metrics.counter("fabric.trials_redelivered").add(1)
                    run(worker, worker.trial)
            elif kind == "error":
                lose(worker, f"worker error: {data}")
            elif kind == "eof":
                lose(worker, None)
            elif kind == "broken":
                lose(worker, f"worker stream broke: {data}")
    finally:
        for worker in active.values():
            worker.handle.kill()
        spent.extend(active.values())
        for worker in spent:
            if worker.handle.wait(timeout=_LINGER) is None:  # lingering
                worker.handle.kill()
                worker.handle.wait()
            worker.thread.join(timeout=2.0)
            if not worker.thread.is_alive():
                # A still-blocked reader (wedged stream) keeps its fds:
                # closing them would free the numbers for reuse under a
                # live read. The thread is a daemon; the leak is bounded
                # by the handful of wedges a sweep can see.
                worker.handle.close()

    metrics.counter("fabric.frames_resynced").add(
        sum(worker.stats.get("resyncs", 0) for worker in spent))
    metrics.gauge("fabric.heartbeat_gap_max").set(max_gap, 0.0)

    for trial in pending:  # no trial leaves without a fate
        if trial not in outcomes:
            crash(trial, gave_up)
