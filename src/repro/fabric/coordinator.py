"""The fabric coordinator: shard, dispatch, merge — byte-identical.

:func:`run_fabric` is the distributed sibling of
:func:`~repro.measure.supervise.run_supervised`: the same sweep contract
(per-trial outcome taxonomy, bounded retry, checkpoint/resume journal),
executed by sharding trial indices across workers obtained from a
pluggable :class:`~repro.fabric.backend.FabricBackend`.

**The byte-identity guarantee.** Because trials are deterministic pure
functions of their index (DESIGN.md §6), *where* a trial runs cannot
change its result. The coordinator assigns shards round-robin
(``todo[k::shards]``), but merges outcomes purely by trial index — so
the :class:`~repro.measure.supervise.SweepResult` sample, the combined
event-stream digest, and the rewritten journal are byte-identical to a
serial ``run_supervised`` of the same sweep, for any shard count, any
backend, and any interleaving of worker completions. Tests assert this
literally (``tests/test_fabric/``) and CI re-proves it on every push —
including under injected harness faults (:mod:`repro.fabric.faults`).

**Failure model** (DESIGN.md §13 has the full fault × detection ×
recovery matrix):

* A worker that *dies* mid-shard (crash, SIGKILL, torn transport, read
  deadline) forfeits only its unreported trials: those are reassigned
  to a replacement worker up to ``worker_retries`` times, then recorded
  as ``crashed``. Trials that already have an outcome — journaled the
  moment they arrive — are never re-run.
* A worker that goes *silent* is distinguished from one that is merely
  slow by heartbeats: with ``heartbeat`` set, workers pulse liveness
  frames on a wall-clock timer even mid-trial, so ``progress_deadline``
  measures silence, not slowness. A wedged worker (alive, accepting
  work, never replying — the half-open connection) misses its beats,
  is SIGKILLed by the watchdog, and its trials reassigned.
* A *spawn failure* is retried with capped exponential backoff and
  seeded jitter (``spawn_retries`` attempts); hosts that crash
  ``quarantine_after`` times consecutively are quarantined, and their
  trials are *redistributed* to live workers — the sweep degrades to
  fewer shards instead of aborting. Quarantined hosts surface on
  :attr:`FabricResult.quarantined_hosts`.
* Outcome frames *eaten by the wire* (drop, resync'd corruption) are
  detected by the per-batch ``done`` message — the worker says how many
  trials it ran; any still-unreported trial is redelivered to the same
  live worker (bounded), because re-running a pure function is always
  safe.
* Near sweep end, ``speculate=True`` duplicates still-unfinished trials
  onto idle workers (MapReduce-style speculative execution). The first
  outcome per trial wins, duplicates are discarded unjournaled, and the
  sweep returns as soon as every trial has an outcome — stragglers stop
  setting the makespan, and determinism makes the duplicate's bytes
  identical anyway.
"""

from __future__ import annotations

import glob
import os
import queue
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set, Tuple, Union

from repro.errors import FabricError, ProtocolError
from repro.fabric.backend import FabricBackend, WorkerHandle
from repro.fabric.health import BackoffPolicy, HostHealth
from repro.fabric.protocol import PROTOCOL_VERSION, read_message, write_message
from repro.measure.journal import TrialJournal, merge_journals
from repro.measure.runner import DEFAULT_TRIAL_TIMEOUT
from repro.measure.supervise import (
    SweepResult,
    TrialOutcome,
    _journal_record,
    _replay_journal,
)
from repro.obs.registry import MetricsRegistry

__all__ = [
    "FabricResult",
    "run_fabric",
]

#: How many damaged frames one read_message call may resync past in the
#: coordinator's reader threads (checksum skips + magic scans).
_READ_RESYNC = 8

#: How many times a live worker may be asked to redeliver outcomes the
#: wire ate before the coordinator gives up on its stream.
_MAX_REDELIVERIES = 3


class FabricResult(SweepResult):
    """A :class:`SweepResult` plus the fabric's own observability.

    Everything inherited (sample, digest, counts, to_dict) is computed
    from the outcomes alone, so it compares equal to a serial sweep's.

    Attributes:
        metrics: harness-side instruments under the ``fabric.`` prefix —
            shards, workers spawned, crashes, trials completed / resumed
            / reassigned / redelivered, spawn retries, heartbeats,
            speculative wins/losses, wall seconds, trials per second.
        shards: the shard count the sweep ran with.
        quarantined_hosts: hosts evicted for consecutive crashes, mapped
            to the crash streak that evicted them (empty when none — the
            degraded-but-complete signal).
    """

    def __init__(self, outcomes: List[TrialOutcome],
                 metrics: MetricsRegistry, shards: int,
                 quarantined_hosts: Optional[Dict[str, int]] = None) -> None:
        super().__init__(outcomes)
        self.metrics = metrics
        self.shards = shards
        self.quarantined_hosts = dict(quarantined_hosts or {})

    def __repr__(self) -> str:
        return super().__repr__().replace(
            "<SweepResult", f"<FabricResult shards={self.shards}")


@dataclass
class _ShardState:
    """Coordinator-side record of one live worker and its trials."""

    seq: int                      # worker sequence number (sidecar name)
    handle: WorkerHandle
    host: str                     # backend host key (health bookkeeping)
    remaining: List[int]          # assigned trials not yet reported
    last_progress: float          # wall clock of the last outcome
    last_heartbeat: float = 0.0   # wall clock of the last heartbeat
    configured: bool = False      # hello handshake completed
    batches_sent: int = 0
    batches_done: int = 0
    redeliveries: int = 0
    kill_reason: Optional[str] = None
    thread: Optional[threading.Thread] = None
    sidecar: Optional[str] = None
    stats: Dict[str, int] = field(default_factory=dict)

    def last_beat(self) -> float:
        """Latest evidence of life (outcome or heartbeat)."""
        return max(self.last_progress, self.last_heartbeat)

    def fail_message(self, fallback: str) -> str:
        return self.kill_reason or fallback


_Event = Tuple[int, str, Any]


def _reader(seq: int, handle: WorkerHandle, events: "queue.Queue[_Event]",
            io_deadline: Optional[float], stats: Dict[str, int]) -> None:
    """Pump one worker's messages into the coordinator's event queue.

    One thread per worker: a blocking read only ever stalls its own
    worker's lane, and worker death surfaces as an ``eof``/``broken``
    event instead of a hung coordinator. With an ``io_deadline`` even
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
    spawn_backoff: Optional[BackoffPolicy] = None,
    quarantine_after: int = 3,
    speculate: bool = False,
    speculate_copies: int = 1,
) -> FabricResult:
    """Run a sweep sharded across fabric workers; merge byte-identically.

    Args:
        backend: where workers come from (local fork, subprocess,
            remote). Spawned backends carry their own
            :class:`~repro.fabric.worker.FactorySpec`.
        trials: number of independent trials (indices ``0..trials-1``).
        shards: how many workers to split the pending trials across.
            Sharding is round-robin by index; the merge is by index, so
            the shard count never shows in the output.
        timeout: virtual-time budget per trial (as ``run_supervised``).
        allow_failures: forwarded to each trial.
        retries: *in-worker* retry budget per trial (the serial retry
            loop each worker runs; same meaning as ``run_supervised``).
        worker_retries: how many replacement workers a trial may be
            reassigned to after worker deaths before it is recorded as
            ``crashed``.
        journal: a :class:`TrialJournal` or path. Completed trials are
            replayed, not re-run; new outcomes are checkpointed as they
            stream in; the journal is compacted (``rewrite``) on return,
            so its bytes match a serial run's journal.
        run_key: stamps/validates the journal.
        capture_digest: capture per-trial event-stream digests so
            :attr:`SweepResult.digest` proves cross-backend equivalence.
        progress_deadline: wall-clock seconds a worker may go without
            evidence of life before the watchdog kills it (None
            disables). With ``heartbeat`` set this measures *silence* —
            a slow trial keeps beating and is left alone; without
            heartbeats it measures time between outcomes, so a long
            trial can be killed as stalled. Harness wall time only; the
            per-trial virtual ``timeout`` still governs simulated time.
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
            reader threads: a half-open connection becomes a retire
            instead of a hang. Must exceed ``heartbeat`` (beats are what
            keep an idle stream alive under a deadline).
        spawn_retries: extra attempts when ``backend.start_worker``
            fails, spaced by ``spawn_backoff``.
        spawn_backoff: the backoff policy between spawn retries
            (default: :class:`BackoffPolicy` with its seeded jitter).
        quarantine_after: consecutive crashes (spawn failures or worker
            deaths) after which a host is quarantined and the sweep
            degrades to the remaining workers.
        speculate: near sweep end, duplicate still-unfinished trials
            onto idle workers; first outcome wins, byte-identity is
            unaffected (trials are pure functions of their index).
        speculate_copies: how many speculative duplicates one trial may
            get.

    Returns:
        A :class:`FabricResult` whose sample, digest, and journal are
        byte-identical to ``run_supervised(...)`` over the same sweep.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials!r}")
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards!r}")
    if retries < 0:
        raise ValueError(f"retries must be >= 0, got {retries!r}")
    if worker_retries < 0:
        raise ValueError(
            f"worker_retries must be >= 0, got {worker_retries!r}")
    if progress_deadline is not None and progress_deadline <= 0:
        raise ValueError(
            f"progress_deadline must be positive, got {progress_deadline!r}")
    if heartbeat is not None and heartbeat <= 0:
        raise ValueError(f"heartbeat must be positive, got {heartbeat!r}")
    if io_deadline is not None and io_deadline <= 0:
        raise ValueError(
            f"io_deadline must be positive, got {io_deadline!r}")
    if io_deadline is not None and heartbeat is not None \
            and io_deadline <= heartbeat:
        raise ValueError(
            f"io_deadline ({io_deadline!r}) must exceed the heartbeat "
            f"interval ({heartbeat!r}): beats are what keep an idle "
            f"stream alive under a read deadline")
    if spawn_retries < 0:
        raise ValueError(
            f"spawn_retries must be >= 0, got {spawn_retries!r}")
    if speculate_copies < 1:
        raise ValueError(
            f"speculate_copies must be >= 1, got {speculate_copies!r}")

    if metrics is None:
        metrics = MetricsRegistry()
    health = HostHealth(quarantine_after=quarantine_after)
    backoff = spawn_backoff if spawn_backoff is not None else BackoffPolicy()
    started = time.monotonic()

    if journal is not None and not isinstance(journal, TrialJournal):
        journal = TrialJournal(journal, key=run_key)
    if journal is not None:
        # Surface resume-time damage instead of silently swallowing it:
        # records the journal reader had to drop (torn tail, bitrot).
        metrics.counter("fabric.journal_records_dropped").add(
            journal.dropped_records)
        leftover = sorted(glob.glob(journal.path + ".shard*"))
        if leftover:
            merged = merge_journals(journal, leftover)
            metrics.counter("fabric.sidecar_trials_merged").add(merged)
            for path in leftover:
                os.remove(path)

    outcomes, pending = _replay_journal(journal, trials)
    metrics.counter("fabric.shards").add(shards)
    metrics.counter("fabric.trials_from_journal").add(len(outcomes))

    if pending:
        _run_sharded(
            backend, pending, shards, timeout, allow_failures, retries,
            worker_retries, capture_digest, progress_deadline,
            worker_journals, journal, outcomes, metrics,
            heartbeat, io_deadline, spawn_retries, backoff, health,
            speculate, speculate_copies,
        )

    if journal is not None:
        # Canonical form: header + one record per trial, in trial order —
        # byte-identical to an uninterrupted serial run's journal.
        journal.rewrite()

    elapsed = time.monotonic() - started
    completed = sum(1 for o in outcomes.values()
                    if o.succeeded and not o.from_journal)
    metrics.gauge("fabric.wall_seconds").set(elapsed, 0.0)
    if elapsed > 0:
        metrics.gauge("fabric.trials_per_s").set(completed / elapsed, 0.0)
    return FabricResult(
        [outcomes[trial] for trial in range(trials)], metrics, shards,
        quarantined_hosts=health.quarantined)


def _run_sharded(
    backend: FabricBackend,
    pending: List[int],
    shards: int,
    timeout: float,
    allow_failures: bool,
    retries: int,
    worker_retries: int,
    capture_digest: bool,
    progress_deadline: Optional[float],
    worker_journals: bool,
    journal: Optional[TrialJournal],
    outcomes: Dict[int, TrialOutcome],
    metrics: MetricsRegistry,
    heartbeat: Optional[float],
    io_deadline: Optional[float],
    spawn_retries: int,
    backoff: BackoffPolicy,
    health: HostHealth,
    speculate: bool,
    speculate_copies: int,
) -> None:
    """Dispatch pending trials across workers and merge their streams."""
    events: "queue.Queue[_Event]" = queue.Queue()
    active: Dict[int, _ShardState] = {}
    spent: List[_ShardState] = []   # retired states, closed at the end
    next_seq = 0
    #: trial -> number of workers it has been assigned to so far
    assignments: Dict[int, int] = {}
    #: trial -> speculative duplicate count / owning worker seqs
    spec_copies: Dict[int, int] = {}
    spec_seqs: Dict[int, Set[int]] = {}
    max_gap = 0.0
    spec = backend.factory_spec()
    if backend.needs_factory_spec and spec is None:
        raise FabricError(
            f"{type(backend).__name__} spawns fresh workers but carries "
            f"no factory spec"
        )

    def crash_trial(trial: int, reason: str) -> None:
        outcomes[trial] = TrialOutcome(
            trial=trial, status="crashed",
            attempts=assignments.get(trial, 1),
            error=f"trial {trial}: {reason}", result=None,
        )
        metrics.counter("fabric.trials_crashed").add(1)

    def degrade(indices: List[int], reason: str) -> None:
        """A shard could not be (re)spawned: push its trials onto the
        least-loaded live worker instead of aborting; with no live
        worker left, the trials crash (the sweep still returns)."""
        indices = [t for t in indices if t not in outcomes]
        if not indices:
            return
        live = [st for st in active.values() if st.kill_reason is None]
        if live:
            target = min(live, key=lambda st: len(st.remaining))
            metrics.counter("fabric.shards_degraded").add(1)
            metrics.counter("fabric.trials_redistributed").add(len(indices))
            queue_batch(target, indices)
        else:
            for trial in indices:
                crash_trial(trial, reason)

    def queue_batch(state: _ShardState, indices: List[int]) -> None:
        """Hand extra trials to a live worker (it runs batches in
        arrival order). Before the handshake the batch just joins the
        initial assignment."""
        fresh = [t for t in indices if t not in state.remaining]
        state.remaining.extend(fresh)
        for trial in indices:
            assignments[trial] = assignments.get(trial, 0) + 1
        if state.configured:
            send_run(state, indices)

    def send_run(state: _ShardState, indices: List[int]) -> bool:
        try:
            write_message(state.handle.wfile, ("run", list(indices)),
                          timeout=io_deadline)
            state.batches_sent += 1
            return True
        except (ProtocolError, OSError, ValueError) as exc:
            retire(state, f"worker unreachable for a new batch: {exc}")
            return False

    def start_shard(indices: List[int],
                    deferred: Optional[List[Tuple[List[int], str]]] = None,
                    ) -> None:
        """Spawn a worker for ``indices``, with backoff-retry and host
        quarantine; on total failure degrade (or defer the degrade, for
        the initial sharding where later shards may still spawn)."""
        nonlocal next_seq
        indices = [t for t in indices if t not in outcomes]
        if not indices:
            return
        seq = next_seq
        next_seq += 1
        host = backend.host_key(seq)
        if not health.usable(host):
            reason = f"host {host!r} is quarantined"
            if deferred is not None:
                deferred.append((indices, reason))
            else:
                degrade(indices, reason)
            return
        handle: Optional[WorkerHandle] = None
        for attempt in range(spawn_retries + 1):
            try:
                handle = backend.start_worker(seq)
                break
            except FabricError as exc:
                if health.record_crash(host):
                    metrics.counter("fabric.hosts_quarantined").add(1)
                if attempt >= spawn_retries or not health.usable(host):
                    metrics.counter("fabric.spawn_failures").add(1)
                    reason = (f"cannot spawn worker on {host!r} after "
                              f"{attempt + 1} attempts: {exc}")
                    if deferred is not None:
                        deferred.append((indices, reason))
                    else:
                        degrade(indices, reason)
                    return
                metrics.counter("fabric.spawn_retries").add(1)
                backoff.sleep(attempt)
        assert handle is not None
        sidecar = None
        if worker_journals and journal is not None:
            sidecar = f"{journal.path}.shard{seq}"
        state = _ShardState(
            seq=seq, handle=handle, host=host, remaining=list(indices),
            last_progress=time.monotonic(), sidecar=sidecar,
        )
        state.thread = threading.Thread(
            target=_reader, args=(seq, handle, events, io_deadline,
                                  state.stats),
            name=f"fabric-reader-{seq}", daemon=True,
        )
        state.thread.start()
        active[seq] = state
        for trial in indices:
            assignments[trial] = assignments.get(trial, 0) + 1
        metrics.counter("fabric.workers_spawned").add(1)

    def configure(state: _ShardState, hello: Any) -> None:
        if not isinstance(hello, dict) or \
                hello.get("protocol") != PROTOCOL_VERSION:
            raise FabricError(
                f"worker {state.handle.pid} speaks protocol "
                f"{hello.get('protocol') if isinstance(hello, dict) else hello!r}, "
                f"coordinator speaks {PROTOCOL_VERSION} — refusing the "
                f"whole sweep (a version skew is systemic, not a crash)"
            )
        config: Dict[str, Any] = {
            "protocol": PROTOCOL_VERSION,
            "timeout": timeout,
            "allow_failures": allow_failures,
            "retries": retries,
            "capture_digest": capture_digest,
            "journal": state.sidecar,
            "run_key": journal.key if journal is not None else None,
            "heartbeat": heartbeat,
        }
        if backend.needs_factory_spec:
            config["factory"] = (spec.spec, spec.kwargs)
        write_message(state.handle.wfile, ("config", config),
                      timeout=io_deadline)
        state.configured = True
        send_run(state, state.remaining)

    def retire(state: _ShardState, failure: Optional[str]) -> None:
        """Tear a worker down; reassign or quarantine its leftovers.

        Streams are closed later (at sweep end, once the reader thread
        has drained): a wedged stream's reader can be blocked forever,
        and closing its fd out from under it would let the fd number be
        reused mid-read.
        """
        if state.seq not in active:
            return
        del active[state.seq]
        spent.append(state)
        state.handle.kill()
        state.handle.wait()
        if failure is None:
            return
        metrics.counter("fabric.worker_crashes").add(1)
        if health.record_crash(state.host):
            metrics.counter("fabric.hosts_quarantined").add(1)
        reassign: List[int] = []
        for trial in state.remaining:
            if trial in outcomes:
                # Already answered — by a speculative duplicate or an
                # earlier copy of a redelivered batch. Re-running it
                # would waste a worker and double-journal the trial.
                continue
            if assignments.get(trial, 1) <= worker_retries:
                reassign.append(trial)
            else:
                crash_trial(trial, failure)
        if reassign:
            metrics.counter("fabric.trials_reassigned").add(len(reassign))
            start_shard(reassign)

    def shutdown_worker(state: _ShardState) -> None:
        """End a finished worker's conversation politely; escalate to
        SIGKILL only if it lingers."""
        if state.seq in active:
            del active[state.seq]
        spent.append(state)
        try:
            write_message(state.handle.wfile, ("shutdown", None),
                          timeout=io_deadline if io_deadline else 5.0)
        except (ProtocolError, OSError, ValueError):
            pass
        try:
            state.handle.wfile.close()
        except (OSError, ValueError):
            pass
        if state.handle.wait(timeout=5.0) is None and state.handle.alive():
            state.handle.kill()
            state.handle.wait()

    def speculative_batch() -> List[int]:
        """Unfinished trials an idle worker may duplicate."""
        batch = []
        for trial in pending:
            if trial in outcomes:
                continue
            if spec_copies.get(trial, 0) >= speculate_copies:
                continue
            batch.append(trial)
        return batch

    def worker_idle(state: _ShardState) -> None:
        """All the worker's batches are done and nothing is owed:
        speculate on stragglers or send it home."""
        batch = speculative_batch() if speculate else []
        if batch:
            for trial in batch:
                spec_copies[trial] = spec_copies.get(trial, 0) + 1
                spec_seqs.setdefault(trial, set()).add(state.seq)
            metrics.counter("fabric.speculative_trials").add(len(batch))
            queue_batch(state, batch)
        else:
            shutdown_worker(state)

    def watchdog() -> None:
        """Retire workers silent past the progress deadline.

        Silence is measured from the last *evidence of life* — outcome
        or heartbeat — so with heartbeats on, a slow-but-alive worker
        is never killed; a wedged one (or a half-open pipe) is. Idle
        workers (nothing owed) are exempt. Retiring here, not via the
        reader thread, matters: a wedged stream's reader may never wake
        to deliver an eof."""
        if progress_deadline is None:
            return
        now = time.monotonic()
        for state in list(active.values()):
            if state.kill_reason is not None or not state.remaining:
                continue
            if now - state.last_beat() > progress_deadline:
                state.kill_reason = (
                    f"no outcome or heartbeat for {progress_deadline}s "
                    f"(wall clock); worker killed by the fabric watchdog"
                )
                metrics.counter("fabric.watchdog_kills").add(1)
                retire(state, state.kill_reason)

    # Initial round-robin sharding. The scheme is irrelevant to the
    # output (the merge is by trial index); round-robin just balances
    # shard sizes within one trial of each other. Spawn failures are
    # deferred until every shard has had its chance, so early failures
    # degrade onto later successes.
    deferred: List[Tuple[List[int], str]] = []
    for k in range(shards):
        shard_indices = pending[k::shards]
        if shard_indices:
            start_shard(shard_indices, deferred=deferred)
    for indices, reason in deferred:
        degrade(indices, reason)

    try:
        while active and any(t not in outcomes for t in pending):
            try:
                seq, kind, data = events.get(timeout=0.25)
            except queue.Empty:
                watchdog()
                continue
            state = active.get(seq)
            if state is None:
                continue  # stale event from an already-retired worker
            now = time.monotonic()
            if kind == "hello":
                try:
                    configure(state, data)
                except (ProtocolError, BrokenPipeError, OSError) as exc:
                    retire(state, f"worker died during handshake: {exc}")
            elif kind == "heartbeat":
                max_gap = max(max_gap, now - state.last_beat())
                state.last_heartbeat = now
                metrics.counter("fabric.heartbeats").add(1)
            elif kind == "outcome":
                if not isinstance(data, TrialOutcome):
                    retire(state, f"worker sent a "
                                  f"{type(data).__name__} outcome")
                    continue
                max_gap = max(max_gap, now - state.last_beat())
                state.last_progress = now
                health.record_success(state.host)
                if data.trial not in outcomes:
                    outcomes[data.trial] = data
                    _journal_record(journal, data)
                    metrics.counter("fabric.trials_completed").add(1)
                    if seq in spec_seqs.get(data.trial, ()):
                        metrics.counter("fabric.speculative_wins").add(1)
                elif data.trial in spec_copies:
                    # A duplicate landed after the race was decided;
                    # discard it (first outcome won, bytes identical).
                    metrics.counter("fabric.speculative_losses").add(1)
                for other in active.values():
                    if data.trial in other.remaining:
                        other.remaining.remove(data.trial)
            elif kind == "done":
                state.batches_done += 1
                if state.batches_done >= state.batches_sent:
                    state.remaining = [t for t in state.remaining
                                       if t not in outcomes]
                    if state.remaining:
                        # The worker ran everything it was given, yet
                        # trials are unreported: the wire ate outcome
                        # frames (drop, resync'd corruption). Pure
                        # functions re-run safely — redeliver, bounded.
                        if state.redeliveries >= _MAX_REDELIVERIES:
                            retire(state, f"worker lost outcomes for "
                                          f"{len(state.remaining)} trials "
                                          f"after {state.redeliveries} "
                                          f"redeliveries")
                        else:
                            state.redeliveries += 1
                            metrics.counter(
                                "fabric.trials_redelivered").add(
                                    len(state.remaining))
                            send_run(state, state.remaining)
                    else:
                        worker_idle(state)
            elif kind == "error":
                retire(state, f"worker error: {data}")
            elif kind in ("eof", "broken"):
                detail = "worker stream ended mid-shard" if kind == "eof" \
                    else f"worker stream broke: {data}"
                retire(state, state.fail_message(detail))
            watchdog()
    finally:
        for state in list(active.values()):
            state.handle.kill()
            state.handle.wait()
            spent.append(state)
        active.clear()
        for state in spent:
            if state.thread is not None:
                state.thread.join(timeout=2.0)
            if state.thread is None or not state.thread.is_alive():
                # A still-blocked reader (wedged stream) keeps its fds:
                # closing them would free the numbers for reuse under a
                # live read. The thread is a daemon; the leak is bounded
                # by the handful of wedges a sweep can see.
                state.handle.close()

    metrics.counter("fabric.frames_resynced").add(
        sum(state.stats.get("resyncs", 0) for state in spent))
    metrics.gauge("fabric.heartbeat_gap_max").set(max_gap, 0.0)

    for trial in pending:  # safety net: no trial leaves without a fate
        if trial not in outcomes:
            crash_trial(trial, "lost by the fabric (worker retired "
                               "without reporting it)")

    if worker_journals and journal is not None:
        for path in glob.glob(journal.path + ".shard*"):
            os.remove(path)
