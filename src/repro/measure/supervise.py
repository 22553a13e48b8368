"""Supervised sweeps: watchdog, bounded retry, quarantine, resume.

:func:`run_page_loads` and :class:`ParallelRunner` treat a sweep as
all-or-nothing: the first failing trial raises and every completed trial
is discarded. That is the right contract for a 5-trial unit test and the
wrong one for the paper's production shape — Figure 2 sweeps 500 sites,
Tables 1–2 run 100 loads per configuration, and at that scale a single
OOM-killed worker or one pathological trial must not cost the run.

:func:`run_supervised` is the harness-resilience contract:

* **Warm workers** — trials run in at most ``workers`` long-lived
  forked processes, each handed one attempt at a time over its pipe:
  losing a worker costs exactly the attempt it held (see
  :func:`_run_pool` for what that keeps and what it gives up).
* **Watchdog** — every attempt gets a *wall-clock* deadline, counted
  from its dispatch, in addition to its virtual-time budget. A worker
  that stops making progress (a real infinite loop, a deadlocked import,
  a pathological allocation) is SIGKILLed at the deadline and treated
  like any other failed attempt.
* **Crash detection** — a worker that dies without reporting (nonzero
  exit, SIGKILL, segfault) is detected by its exit, not by a hung pipe.
* **Bounded retry with quarantine** — a failed attempt is retried up to
  ``retries`` times; a trial that exhausts its budget is *quarantined*:
  recorded, excluded from the sample, and the sweep moves on.
* **Partial results** — the sweep always returns a :class:`SweepResult`
  carrying a per-trial outcome taxonomy (``ok`` / ``retried`` /
  ``quarantined`` / ``crashed``) instead of raising on the first loss.
* **Checkpoint/resume** — with a ``journal``, every completed trial is
  fsync'd to disk as it finishes; a killed sweep restarted with the same
  journal re-runs only the missing trials. Determinism (DESIGN.md §6)
  makes the merge exact: the resumed sweep's sample and per-trial
  event-stream digests are byte-identical to an uninterrupted run's.

Wall clocks are deliberate here: this module is *harness*-domain, not
simulation-domain (mm-lint's REP001 scope) — deadlines measure the real
machine the sweep runs on, never the simulated world.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import pickle
import time
from collections import deque
from dataclasses import dataclass
from multiprocessing.connection import Connection, wait as connection_wait
from typing import (
    Any, Callable, Deque, Dict, Iterable, Iterator, List, Optional, Tuple,
    Union,
)

from repro.errors import ReproError
from repro.measure.journal import TrialJournal
from repro.measure.parallel import default_workers, fork_available
from repro.measure.runner import (
    DEFAULT_TRIAL_TIMEOUT,
    ScenarioFactory,
    run_trial,
)
from repro.measure.stats import Sample

__all__ = [
    "DEFAULT_DEADLINE",
    "OUTCOME_STATES",
    "SweepResult",
    "TrialOutcome",
    "run_shard",
    "run_supervised",
]

#: Default per-trial wall-clock deadline, seconds (None disables).
DEFAULT_DEADLINE: Optional[float] = None

#: The per-trial outcome taxonomy, in reporting order.
OUTCOME_STATES = ("ok", "retried", "quarantined", "crashed")


@dataclass(frozen=True)
class TrialOutcome:
    """One trial's fate under supervision.

    Attributes:
        trial: the trial index.
        status: ``ok`` (first attempt succeeded), ``retried`` (succeeded
            after >= 1 failed attempt), ``quarantined`` (every attempt
            failed with an error or deadline), ``crashed`` (the final
            attempt's worker died without reporting).
        attempts: attempts consumed (including the successful one).
        error: the final failure message (None for ok/retried).
        result: the trial's result (None for quarantined/crashed).
        from_journal: True when the result was replayed from a journal
            instead of re-run.
        digest: the trial's event-stream digest hex (when captured).
    """

    trial: int
    status: str
    attempts: int
    error: Optional[str]
    result: Optional[Any]
    from_journal: bool = False
    digest: Optional[str] = None

    @property
    def succeeded(self) -> bool:
        return self.status in ("ok", "retried")


class SweepResult:
    """Everything a supervised sweep produced, losses included.

    Attributes:
        outcomes: one :class:`TrialOutcome` per trial, in trial order.
    """

    def __init__(self, outcomes: List[TrialOutcome]) -> None:
        self.outcomes = outcomes

    @property
    def results(self) -> List[Optional[Any]]:
        """Per-trial results in trial order (None where the trial was
        lost) — index-stable, so trial ``i`` is always ``results[i]``."""
        return [o.result for o in self.outcomes]

    @property
    def sample(self) -> Sample:
        """PLT sample over the successful trials, in trial order.

        Because trials are deterministic and collected by index, this is
        bit-identical however the sweep was scheduled, retried, or
        resumed.

        Raises:
            ReproError: when every trial was lost (a Sample cannot be
                empty); check :attr:`complete` or :meth:`counts` first.
        """
        successful = [o for o in self.outcomes if o.succeeded]
        if not successful:
            counts = self.counts()
            raise ReproError(
                f"sweep produced no successful trials "
                f"({counts['quarantined']} quarantined, "
                f"{counts['crashed']} crashed)"
            )
        return Sample(o.result.page_load_time for o in successful)

    @property
    def complete(self) -> bool:
        """True when no trial was lost."""
        return all(o.succeeded for o in self.outcomes)

    def counts(self) -> Dict[str, int]:
        """status -> trial count, over :data:`OUTCOME_STATES`."""
        counts = {state: 0 for state in OUTCOME_STATES}
        for outcome in self.outcomes:
            counts[outcome.status] += 1
        return counts

    @property
    def quarantined(self) -> List[TrialOutcome]:
        """Trials lost to repeated errors or deadlines."""
        return [o for o in self.outcomes if o.status == "quarantined"]

    @property
    def crashed(self) -> List[TrialOutcome]:
        """Trials lost to worker crashes."""
        return [o for o in self.outcomes if o.status == "crashed"]

    @property
    def digest(self) -> Optional[str]:
        """Combined event-stream digest over successful trials.

        BLAKE2 over ``trial:per-trial-digest`` lines in trial order —
        the sweep-level fingerprint the kill-and-resume equivalence
        check compares. None unless every successful trial carried a
        digest (run with ``capture_digest=True``).
        """
        successful = [o for o in self.outcomes if o.succeeded]
        if not successful or any(o.digest is None for o in successful):
            return None
        combined = hashlib.blake2b(digest_size=16)
        for outcome in successful:
            combined.update(f"{outcome.trial}:{outcome.digest}\n".encode())
        return combined.hexdigest()

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready summary (CI artifacts, reports)."""
        return {
            "trials": len(self.outcomes),
            "counts": self.counts(),
            "complete": self.complete,
            "digest": self.digest,
            "losses": [
                {"trial": o.trial, "status": o.status,
                 "attempts": o.attempts, "error": o.error}
                for o in self.outcomes if not o.succeeded
            ],
            "resumed_trials": sum(
                1 for o in self.outcomes if o.from_journal
            ),
        }

    def __repr__(self) -> str:
        counts = self.counts()
        return (
            f"<SweepResult trials={len(self.outcomes)} "
            + " ".join(f"{k}={v}" for k, v in counts.items() if v)
            + ">"
        )


# ---------------------------------------------------------------------- #
# worker side


def _attempt(run: Callable[[int], Any], trial: int) -> Tuple[str, Any]:
    """Run one attempt in a worker; the message to send the parent.

    The result is pickled *here*, so an unpicklable result becomes a
    clear structured error instead of an opaque pool crash — the parent
    re-raises it with the trial index attached.
    """
    try:
        result = run(trial)
    except Exception as exc:
        text = str(exc)
        return ("error", text if text.startswith(f"trial {trial}")
                else f"trial {trial}: {text}")
    try:
        return ("ok", pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL))
    except Exception as exc:
        return ("error",
                f"trial {trial} returned an unpicklable result "
                f"({type(result).__name__}): {exc}")


def _warm_worker(conn: Connection, inherited: List[Connection],
                 run: Callable[[int], Any]) -> None:
    """One warm worker: ``recv trial index → run → send result`` over
    ``conn``, until the parent closes its end.

    ``inherited`` are the parent-side pipe ends fork copied into this
    process — this worker's own and every earlier worker's. They are
    closed first: while any copy stays open ``recv`` never sees EOF, and
    the workers of a SIGKILLed driver would block in it forever.

    A failed attempt (an exception, an unpicklable result) is reported
    and the loop goes on; only a death the trial inflicts on the process,
    or the watchdog's SIGKILL, ends a worker early.
    """
    for end in inherited:
        end.close()
    try:
        while True:
            conn.send(_attempt(run, conn.recv()))
    except (EOFError, ConnectionError):
        pass  # the parent retired this worker, or is gone
    finally:
        conn.close()


@dataclass
class _Worker:
    """Parent-side record of one warm worker and its in-flight attempt."""

    process: multiprocessing.process.BaseProcess
    conn: Connection
    trial: int = -1
    attempt: int = 0
    started: float = 0.0


# ---------------------------------------------------------------------- #
# supervisor


def run_supervised(
    factory: ScenarioFactory,
    trials: int,
    workers: Optional[int] = None,
    timeout: float = DEFAULT_TRIAL_TIMEOUT,
    allow_failures: bool = False,
    deadline: Optional[float] = DEFAULT_DEADLINE,
    retries: int = 1,
    journal: Optional[Union[str, TrialJournal]] = None,
    run_key: Optional[str] = None,
    capture_digest: bool = False,
) -> SweepResult:
    """Run a sweep under supervision; never lose the whole run.

    Args:
        factory: the scenario factory (as for ``run_page_loads``).
        trials: number of independent trials.
        workers: worker process cap (default: one per core). ``1`` — or
            a platform without ``fork`` — runs the serial fallback:
            same taxonomy and journaling, but no wall-clock kill and no
            crash containment (those need process isolation).
        timeout: virtual-time budget per trial (inside the simulation).
        allow_failures: forwarded to :func:`run_trial`.
        deadline: wall-clock seconds per *attempt*; a worker still
            running at its deadline is SIGKILLed and the attempt counts
            as failed. None disables the watchdog.
        retries: failed attempts retried at most this many times before
            the trial is quarantined.
        journal: a :class:`TrialJournal` or a path to one. Completed
            trials found in it are replayed, not re-run; every newly
            completed trial is appended (fsync'd) as it finishes.
        run_key: stamps/validates the journal (see
            :func:`repro.measure.journal.run_key`); ignored when
            ``journal`` is already a TrialJournal.
        capture_digest: capture each trial's event-stream digest (see
            :func:`run_trial`) so :attr:`SweepResult.digest` can prove
            kill-and-resume equivalence.

    Returns:
        A :class:`SweepResult` — partial results with a per-trial
        outcome taxonomy instead of all-or-nothing failure.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials!r}")
    if retries < 0:
        raise ValueError(f"retries must be >= 0, got {retries!r}")
    if deadline is not None and deadline <= 0:
        raise ValueError(f"deadline must be positive, got {deadline!r}")
    if workers is None:
        workers = default_workers()
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers!r}")

    if journal is not None and not isinstance(journal, TrialJournal):
        journal = TrialJournal(journal, key=run_key)

    outcomes, pending = _replay_journal(journal, trials)
    try:
        # The pool is used whenever it can be (even for one pending
        # trial): supervision — the watchdog kill, crash containment —
        # only works across a process boundary.
        if workers == 1 or not fork_available():
            for outcome in run_shard(factory, pending, timeout,
                                     allow_failures, retries,
                                     capture_digest, journal):
                outcomes[outcome.trial] = outcome
        elif pending:
            _run_pool(
                lambda trial: run_trial(factory, trial, timeout,
                                        allow_failures,
                                        capture_digest=capture_digest),
                pending, workers, deadline, retries, journal, outcomes)
    finally:
        if journal is not None:
            journal.close()
    return SweepResult([outcomes[trial] for trial in range(trials)])


def _replay_journal(
    journal: Optional[TrialJournal], trials: int,
) -> Tuple[Dict[int, TrialOutcome], List[int]]:
    """Split a sweep into the outcomes ``journal`` already holds
    (``from_journal=True``) and the trial indices still to run."""
    completed = journal.completed if journal is not None else {}
    outcomes: Dict[int, TrialOutcome] = {}
    pending: List[int] = []
    for trial in range(trials):
        if trial in completed:
            status, attempts, result = \
                _unwrap_journal_payload(completed[trial])
            outcomes[trial] = TrialOutcome(
                trial=trial, status=status, attempts=attempts, error=None,
                result=result, from_journal=True,
                digest=journal.digest_for(trial),
            )
        else:
            pending.append(trial)
    return outcomes, pending


def _unwrap_journal_payload(entry: Any) -> Tuple[str, int, Any]:
    """Journal payloads are ``{"status", "attempts", "result"}`` wrappers
    (see :func:`_journal_record`); tolerate a bare result for journals
    written by other callers."""
    if isinstance(entry, dict) and "result" in entry:
        return (str(entry.get("status", "ok")),
                int(entry.get("attempts", 1)), entry["result"])
    return "ok", 1, entry


def _journal_record(journal: Optional[TrialJournal],
                    outcome: TrialOutcome) -> None:
    if journal is None or not outcome.succeeded:
        return
    journal.append(
        outcome.trial,
        {"status": outcome.status, "attempts": outcome.attempts,
         "result": outcome.result},
        digest=outcome.digest,
    )


def _success_outcome(trial: int, attempt: int, result: Any) -> TrialOutcome:
    return TrialOutcome(
        trial=trial,
        status="ok" if attempt == 1 else "retried",
        attempts=attempt,
        error=None,
        result=result,
        digest=getattr(result, "event_digest", None),
    )


def run_shard(
    factory: ScenarioFactory,
    indices: Iterable[int],
    timeout: float,
    allow_failures: bool = False,
    retries: int = 1,
    capture_digest: bool = False,
    journal: Optional[TrialJournal] = None,
) -> Iterator[TrialOutcome]:
    """Run trials in order in this process, yielding each outcome as it
    lands — the one attempt/quarantine loop, shared by the in-process
    fallback of :func:`run_supervised` (same taxonomy, no kill/crash
    containment) and by every fabric worker.

    First successful attempt → ``ok``; success after failures →
    ``retried``; retry budget exhausted → ``quarantined``. When a
    ``journal`` is given, every *successful* outcome is checkpointed
    (fsync'd) before it is yielded — so a fabric worker that dies after
    journaling trial N never makes the coordinator re-run N, it merges
    the sidecar instead.
    """
    for trial in indices:
        error = None
        outcome: Optional[TrialOutcome] = None
        for attempt in range(1, retries + 2):
            try:
                result = run_trial(factory, trial, timeout, allow_failures,
                                   capture_digest=capture_digest)
            except ReproError as exc:
                error = str(exc)
                continue
            outcome = _success_outcome(trial, attempt, result)
            break
        if outcome is None:
            outcome = TrialOutcome(
                trial=trial, status="quarantined", attempts=retries + 1,
                error=error, result=None,
            )
        _journal_record(journal, outcome)
        yield outcome


def _run_pool(
    run: Callable[[int], Any],
    pending: List[int],
    workers: int,
    deadline: Optional[float],
    retries: int,
    journal: Optional[TrialJournal],
    outcomes: Dict[int, TrialOutcome],
) -> None:
    """The supervising pool: warm workers with watchdog and retry.

    At most ``workers`` long-lived forked processes (never more than
    there are attempts to run), each handed **one attempt at a time**.
    That is what keeps the isolation contract: the deadline clock of an
    attempt starts at its dispatch, SIGKILL needs no cooperation from
    the victim, and a crashed or killed worker takes down exactly the
    one attempt it held — it is replaced by a fresh fork before that
    trial is retried. What is given up against a process per trial is
    interpreter state: it now carries across the trials one worker
    runs, exactly as in :func:`run_shard` and every fabric worker;
    trial purity (DESIGN.md §6) is what makes that safe.

    A worker that reports is handed its next attempt *before* its result
    is unpickled and journaled, so it computes through the fsync. Every
    worker in ``pool`` has an attempt in flight; one with nothing left
    to run is retired on the spot.
    """
    context = multiprocessing.get_context("fork")
    queue: Deque[Tuple[int, int]] = deque((trial, 1) for trial in pending)
    pool: List[_Worker] = []

    def spawn() -> _Worker:
        conn, child = context.Pipe()
        process = context.Process(
            target=_warm_worker,
            args=(child, [worker.conn for worker in pool] + [conn], run),
        )
        process.start()
        child.close()  # the worker's death is then EOF on ``conn``
        pool.append(_Worker(process, conn))
        return pool[-1]

    def feed(worker: _Worker) -> None:
        """Hand ``worker`` the next queued attempt, or retire it."""
        if not queue:
            drop(worker)
            return
        worker.trial, worker.attempt = queue.popleft()
        worker.started = time.monotonic()
        try:
            worker.conn.send(worker.trial)
        except OSError:
            pass  # died between trials: its sentinel fails this attempt

    def drop(worker: _Worker) -> None:
        pool.remove(worker)
        worker.conn.close()  # EOF ends a live worker's loop
        worker.process.join()

    def lose(worker: _Worker, failure: str, crashed: bool) -> None:
        """``worker``'s attempt failed: requeue the trial or record it."""
        if worker.attempt <= retries:
            queue.append((worker.trial, worker.attempt + 1))
            return
        outcomes[worker.trial] = TrialOutcome(
            trial=worker.trial, attempts=worker.attempt, error=failure,
            status="crashed" if crashed else "quarantined", result=None,
        )

    try:
        while queue or pool:
            while queue and len(pool) < workers:
                feed(spawn())
            # A report or a death is a readable fd; only a deadline
            # passing needs a timeout.
            wait = None
            if deadline is not None:
                wait = max(0.01, min(worker.started for worker in pool)
                           + deadline - time.monotonic())
            ready = connection_wait(
                [worker.conn for worker in pool]
                + [worker.process.sentinel for worker in pool],
                timeout=wait,
            )
            for worker in list(pool):
                message = None
                if worker.conn in ready:
                    try:
                        message = worker.conn.recv()
                    except (EOFError, OSError):
                        pass  # died mid-report
                elif worker.process.sentinel not in ready:
                    if (deadline is not None
                            and time.monotonic() - worker.started > deadline):
                        worker.process.kill()
                        drop(worker)
                        lose(
                            worker,
                            f"trial {worker.trial}: exceeded the {deadline}s "
                            f"wall-clock deadline (attempt {worker.attempt}); "
                            f"worker killed by the watchdog",
                            crashed=False,
                        )
                    continue
                if message is None:
                    drop(worker)
                    code = worker.process.exitcode
                    how = f"signal {-code}" if code < 0 else f"exit code {code}"
                    lose(
                        worker,
                        f"trial {worker.trial}: worker process died without "
                        f"reporting ({how}, attempt {worker.attempt})",
                        crashed=True,
                    )
                    continue
                kind, body = message
                trial, attempt = worker.trial, worker.attempt
                if kind != "ok":
                    lose(worker, body, crashed=False)  # requeue, then feed
                feed(worker)
                if kind == "ok":
                    outcome = _success_outcome(trial, attempt,
                                               pickle.loads(body))
                    outcomes[trial] = outcome
                    _journal_record(journal, outcome)
    finally:
        for worker in list(pool):
            worker.process.kill()
            drop(worker)
