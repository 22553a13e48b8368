"""The trial dispatcher: one queue, one kind of worker — byte-identical.

Every parallel batch of trials in this repo runs through
:func:`dispatch`: a single loop that owns a FIFO of pending trials and a
set of live workers obtained from a
:class:`~repro.fabric.backend.FabricBackend`, and hands each worker
**one trial at a time** over the framed protocol (``run t`` →
``outcome``). It has two callers: the sweep
(:func:`~repro.measure.supervise.run_sweep`, the one body under
``run_supervised``, :func:`run_fabric` and ``mm-corpus generate``,
which journals every outcome it is handed) and
:func:`~repro.measure.parallel.parallel_map` (loss budget 0, no
journal, the lowest failing index re-raised). Workers hold no journal:
a killed coordinator costs at most the one trial each worker had in
flight, and determinism makes the re-run byte-identical.

**The byte-identity guarantee.** Because trials are deterministic pure
functions of their index (DESIGN.md §6), *where* and *when* a trial runs
cannot change its result. Outcomes are merged purely by trial index — so
the :class:`~repro.measure.supervise.SweepResult` sample, the combined
event-stream digest, and the rewritten journal are byte-identical to an
in-process ``run_supervised(workers=1)`` of the same sweep, for any
worker count, any backend, and any interleaving of worker completions.
Tests assert this literally (``tests/test_fabric/``) and CI re-proves it
on every push — including under the harness faults that
:mod:`repro.testing` injects (spawn failures, killed and wedged workers).

**One loss/retry rule** (DESIGN.md §9 has the full fault × detection ×
recovery matrix):

* A *reported* failure never leaves the worker — that is
  :func:`~repro.measure.supervise.run_shard`'s retry/quarantine loop.
* A *lost holder* — crash, SIGKILL, a torn or bad frame (any
  :class:`~repro.errors.ProtocolError`), watchdog kill — costs
  exactly the one trial the worker held: it goes back on the queue and
  a replacement worker is spawned, until the trial has lost
  ``retries`` + 1 holders and is recorded ``crashed``. Losses are
  counted per trial, never per worker or host, and never show in a
  successful outcome, which records only the trial's own deterministic
  history.
* A worker is *silent*, not slow, when neither an outcome nor a
  heartbeat arrived for ``deadline`` seconds since its trial was
  dispatched; the watchdog SIGKILLs it (a lost holder). With
  ``heartbeat`` set a slow trial keeps beating and is left alone.
* A *spawn failure* is retried after a doubling delay (0.05 s, capped
  at 2 s); a slot that cannot be filled is given up — fewer workers
  pull from the same queue, the sweep degrades instead of aborting.
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
from repro.fabric.protocol import PROTOCOL_VERSION, read_message, write_message
from repro.measure.journal import TrialJournal
from repro.measure.runner import DEFAULT_TRIAL_TIMEOUT
from repro.measure.supervise import SweepResult, TrialOutcome, run_sweep
from repro.obs.registry import MetricsRegistry

__all__ = [
    "dispatch",
    "run_fabric",
]

#: Seconds a worker told to shut down may linger before it is SIGKILLed.
_LINGER = 5.0

#: The delay before the first spawn retry, doubled per retry up to the cap.
_SPAWN_DELAY = 0.05
_SPAWN_DELAY_CAP = 2.0


@dataclass
class _Worker:
    """Dispatcher-side record of one live worker and the trial it holds."""

    seq: int                      # worker sequence number
    handle: WorkerHandle
    trial: int                    # the one trial in flight
    last_beat: float              # its dispatch, or a heartbeat since
    thread: threading.Thread = field(init=False)  # the reader


_Event = Tuple[int, str, Any]


def _reader(seq: int, handle: WorkerHandle, events: "queue.Queue[_Event]",
            io_deadline: Optional[float]) -> None:
    """Pump one worker's messages into the dispatcher's event queue.

    One thread per worker: a blocking read only ever stalls its own
    worker's lane, and worker death surfaces as an ``eof``/``broken``
    event instead of a hung dispatcher. With an ``io_deadline`` even
    the blocking read is bounded (a silent peer becomes a ``broken``
    event). A reader never ends without posting an event: the
    dispatcher may be waiting on nothing else, so whatever a read
    raises — a bad frame's :class:`~repro.errors.ProtocolError` first
    among them — is a ``broken`` stream, named by its error type.
    """
    try:
        while True:
            kind, data = read_message(handle.rfile, timeout=io_deadline)
            events.put((seq, kind, data))
            if kind == "error":
                return
    except EOFError:
        events.put((seq, "eof", None))
    except Exception as exc:
        events.put((seq, "broken", f"{type(exc).__name__}: {exc}"))


def run_fabric(
    backend: FabricBackend,
    trials: int,
    shards: int = 2,
    timeout: float = DEFAULT_TRIAL_TIMEOUT,
    allow_failures: bool = False,
    retries: int = 1,
    journal: Optional[Union[str, TrialJournal]] = None,
    run_key: Optional[str] = None,
    capture_digest: bool = False,
    progress_deadline: Optional[float] = None,
    metrics: Optional[MetricsRegistry] = None,
    heartbeat: Optional[float] = None,
    io_deadline: Optional[float] = None,
    spawn_retries: int = 2,
) -> SweepResult:
    """Run a sweep over ``shards`` fabric workers; merge byte-identically.

    Args:
        backend: where workers come from (local fork or subprocess).
            A spawning backend carries its own
            :class:`~repro.fabric.worker.FactorySpec`.
        trials: number of independent trials (indices ``0..trials-1``).
        shards: how many workers pull from the trial queue (never more
            than there are trials to run). The merge is by index, so
            the count never shows in the output.
        timeout, allow_failures, journal, run_key, capture_digest: as
            for :func:`~repro.measure.supervise.run_supervised`.
        retries: the budget of each of a trial's two failure counts,
            reported failures and lost holders (same meaning as
            ``run_supervised``).
        progress_deadline: wall-clock seconds a worker holding a trial
            may go without evidence of life before the watchdog kills it
            (None disables). With ``heartbeat`` set this measures
            *silence* — a slow trial keeps beating and is left alone;
            without heartbeats it is seconds since the trial's dispatch,
            so a long trial can be killed as stalled. Harness wall time
            only; the per-trial virtual ``timeout`` still governs
            simulated time.
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
            fails, after a doubling delay (0.05 s, capped at 2 s); a
            slot still unfilled is given up and the sweep degrades to
            the remaining workers.

    Returns:
        A :class:`SweepResult` whose sample, digest, and journal are
        byte-identical to ``run_supervised(...)`` over the same sweep.
    """
    return run_sweep(
        None, backend, trials, shards,
        config={"timeout": timeout, "allow_failures": allow_failures,
                "capture_digest": capture_digest},
        retries=retries, deadline=progress_deadline, journal=journal,
        run_key=run_key, metrics=metrics, heartbeat=heartbeat,
        io_deadline=io_deadline, spawn_retries=spawn_retries,
        spelled=("shards", "progress_deadline"))


def dispatch(
    backend: FabricBackend,
    pending: Sequence[int],
    workers: int,
    outcomes: Dict[int, TrialOutcome],
    config: Dict[str, Any],
    record: Callable[[TrialOutcome], None],
    deadline: Optional[float] = None,
    io_deadline: Optional[float] = None,
    spawn_retries: int = 2,
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
        config: what every worker is configured with: ``retries``
            (also the lost holders a trial survives, see module doc),
            ``heartbeat``, and the trial knobs (``timeout``,
            ``allow_failures``, ``capture_digest``) or ``task``.
        record: called once per trial with its outcome, in arrival
            order (the sweep's journal writer).
        deadline: the liveness deadline, wall seconds (None: no
            watchdog).
    """
    if metrics is None:
        metrics = MetricsRegistry()
    retries = config["retries"]
    events: "queue.Queue[_Event]" = queue.Queue()
    todo: Deque[int] = deque(pending)
    active: Dict[int, _Worker] = {}
    spent: List[_Worker] = []       # retired workers, reaped at the end
    losses: Dict[int, int] = {}     # trial -> holders lost so far
    slots = min(workers, len(pending))
    unresolved = len(pending)
    next_seq = 0
    max_gap = 0.0
    gave_up = "no worker could be spawned"
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
        """Start a worker for the head of the queue, retrying a failed
        spawn after a doubling delay; False when the slot cannot be
        filled."""
        nonlocal next_seq, gave_up
        seq = next_seq
        next_seq += 1
        handle: Optional[WorkerHandle] = None
        for attempt in range(spawn_retries + 1):
            try:
                handle = backend.start_worker(seq)
                break
            except FabricError as exc:
                gave_up = (f"cannot spawn a worker after {attempt + 1} "
                           f"attempts: {exc}")
                if attempt < spawn_retries:
                    metrics.counter("fabric.spawn_retries").add(1)
                    time.sleep(min(_SPAWN_DELAY * 2 ** attempt,
                                   _SPAWN_DELAY_CAP))
        if handle is None:
            metrics.counter("fabric.spawn_failures").add(1)
            return False
        worker = _Worker(seq=seq, handle=handle, trial=todo.popleft(),
                         last_beat=time.monotonic())
        worker.thread = threading.Thread(
            target=_reader, args=(seq, handle, events, io_deadline),
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
        worker.last_beat = time.monotonic()
        send(worker, ("run", trial))

    def configure(worker: _Worker, hello: Any) -> None:
        if not isinstance(hello, dict) or \
                hello.get("protocol") != PROTOCOL_VERSION:
            raise FabricError(
                f"worker {worker.handle.pid} speaks protocol "
                f"{hello.get('protocol') if isinstance(hello, dict) else hello!r}, "
                f"coordinator speaks {PROTOCOL_VERSION} — refusing the "
                f"whole sweep (a version skew is systemic, not a crash)"
            )
        settings = dict(config, protocol=PROTOCOL_VERSION)
        if spec is not None:  # fresh-process workers inherit no closure
            settings["factory"] = (spec.spec, spec.kwargs)
        send(worker, ("config", settings))
        if worker.seq in active:
            run(worker, worker.trial)

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
        trial = worker.trial
        losses[trial] = losses.get(trial, 0) + 1
        if losses[trial] <= retries:
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
                outcomes[data.trial] = data
                unresolved -= 1
                # The next trial goes out before the fsync below, not
                # after; with the queue empty the worker is sent home.
                if todo:
                    run(worker, todo.popleft())
                else:
                    shutdown(worker)
                record(data)
                metrics.counter("fabric.trials_completed").add(1)
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

    metrics.gauge("fabric.heartbeat_gap_max").set(max_gap, 0.0)

    for trial in pending:  # no trial leaves without a fate
        if trial not in outcomes:
            crash(trial, gave_up)
