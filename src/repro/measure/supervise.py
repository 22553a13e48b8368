"""Supervised sweeps: watchdog, bounded retry, quarantine, resume.

:func:`~repro.measure.runner.run_page_loads` treats a sweep as
all-or-nothing: the first failing trial raises and every completed trial
is discarded. That is the right contract for a 5-trial unit test and the
wrong one for the paper's production shape — Figure 2 sweeps 500 sites,
Tables 1–2 run 100 loads per configuration, and at that scale a single
OOM-killed worker or one pathological trial must not cost the run.

:func:`run_sweep` is the harness-resilience contract and the one loop
that opens, replays, appends to and compacts a journal.
:func:`run_supervised` (local forks) and
:func:`repro.fabric.coordinator.run_fabric` (workers from any backend)
are its two page-load spellings;
:func:`~repro.measure.robustness.run_chaos_trials` and ``mm-corpus
generate`` hand it tasks of their own. It has two ways to run a batch:
in this process (:func:`run_shard`, for ``workers=1`` or a platform
without ``fork``) or *dispatched* — the one trial dispatcher
(:func:`repro.fabric.coordinator.dispatch`), whose workers run the same
:func:`run_shard`. What the caller gets either way:

* **Warm workers** — at most ``workers`` long-lived forked processes,
  each handed one trial at a time: losing a worker costs exactly the
  trial it held, and one replacement fork.
* **Watchdog** — ``deadline`` wall-clock seconds from a trial's
  dispatch, in addition to its virtual-time budget. A worker that stops
  making progress (a real infinite loop, a deadlocked import, a
  pathological allocation) is SIGKILLed at the deadline — a lost holder.
* **One loss/retry rule** — a *reported* failure is handled where the
  trial ran: a ``ReproError`` is retried up to ``retries`` times, then
  the trial is ``quarantined``; any other exception is a bug a re-run
  would only repeat, ``quarantined`` at once with its type and message;
  a *lost holder* (crash, SIGKILL, watchdog kill) is counted per trial
  separately, also bounded by ``retries``, then the trial is
  ``crashed``. A successful outcome records only the trial's own
  deterministic history, so the journal is byte-identical to the serial
  one under any harness fault.
* **Partial results** — the sweep always returns a :class:`SweepResult`
  carrying a per-trial outcome taxonomy (``ok`` / ``retried`` /
  ``quarantined`` / ``crashed``) instead of raising on the first loss.
* **Checkpoint/resume** — with a ``journal``, every completed trial is
  fsync'd to disk as it finishes; a killed sweep restarted with the same
  journal re-runs only the missing trials, and the journal is compacted
  to canonical trial order on return. Determinism (DESIGN.md §6) makes
  the merge exact: the resumed sweep's sample and per-trial event-stream
  digests are byte-identical to an uninterrupted run's.

Wall clocks are deliberate here: this module is *harness*-domain, not
simulation-domain (mm-lint's REP001 scope) — deadlines measure the real
machine the sweep runs on, never the simulated world.
"""

from __future__ import annotations

import hashlib
import time
import traceback
from dataclasses import dataclass
from functools import partial
from typing import (
    Any, Callable, Dict, Iterable, Iterator, List, Optional, Tuple, Union,
)

from repro.errors import ReproError
from repro.measure.journal import TrialJournal, open_journal
from repro.measure.parallel import (
    default_workers, fork_available, trial_scope,
)
from repro.measure.runner import (
    DEFAULT_TRIAL_TIMEOUT,
    ScenarioFactory,
    run_trial,
)
from repro.measure.stats import Sample
from repro.obs.registry import MetricsRegistry

__all__ = [
    "OUTCOME_STATES",
    "SweepResult",
    "TrialOutcome",
    "run_shard",
    "run_supervised",
    "run_sweep",
]

#: The per-trial outcome taxonomy, in reporting order.
OUTCOME_STATES = ("ok", "retried", "quarantined", "crashed")


@dataclass(frozen=True)
class TrialOutcome:
    """One trial's fate under supervision.

    Attributes:
        trial: the trial index.
        status: ``ok`` (first attempt succeeded), ``retried`` (succeeded
            after >= 1 attempt that reported an error), ``quarantined``
            (every attempt reported an error), ``crashed`` (every worker
            that held the trial was lost: died, or was killed by the
            watchdog, without reporting).
        attempts: attempts the trial itself consumed (including the
            successful one) — lost holders are not attempts and never
            show in a successful outcome; for ``crashed``, the number
            of holders lost.
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
    """Everything a sweep produced, losses included.

    Sample, digest, counts and ``to_dict`` are computed from the
    outcomes alone, so they compare equal however the sweep was run.

    Attributes:
        outcomes: one :class:`TrialOutcome` per trial, in trial order.
        metrics: harness-side instruments under the ``fabric.`` prefix —
            shards, trials completed / resumed, journal records dropped,
            wall seconds, trials per second, and from a dispatched sweep
            also workers spawned, crashes, reassignments, heartbeats,
            speculation (None for a result assembled by hand).
        shards: the worker count the sweep ran with.
    """

    def __init__(self, outcomes: List[TrialOutcome],
                 metrics: Optional[MetricsRegistry] = None,
                 shards: int = 1) -> None:
        self.outcomes = outcomes
        self.metrics = metrics
        self.shards = shards

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
        """Trials lost to repeated reported errors."""
        return [o for o in self.outcomes if o.status == "quarantined"]

    @property
    def crashed(self) -> List[TrialOutcome]:
        """Trials lost to worker crashes and watchdog kills."""
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
# the sweep


def run_supervised(
    factory: ScenarioFactory,
    trials: int,
    workers: Optional[int] = None,
    timeout: float = DEFAULT_TRIAL_TIMEOUT,
    allow_failures: bool = False,
    deadline: Optional[float] = None,
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
            a platform without ``fork`` — runs in this process: same
            taxonomy and journaling, but no wall-clock kill and no
            crash containment (those need process isolation).
        timeout: virtual-time budget per trial (inside the simulation).
        allow_failures: forwarded to :func:`run_trial`.
        deadline: wall-clock seconds from a trial's dispatch; a worker
            still holding the trial then is SIGKILLed — a lost holder.
            None disables the watchdog.
        retries: the budget of each of a trial's two failure counts: a
            trial whose attempt *reports* a ``ReproError`` is retried in
            place at most this many times, then ``quarantined``; a trial
            whose *holder is lost* (crash, watchdog kill) goes back on
            the queue at most this many times, then is ``crashed``.
        journal: a :class:`TrialJournal` or a path to one. Completed
            trials found in it are replayed, not re-run; every newly
            completed trial is appended (fsync'd) as it finishes, and
            the journal is compacted to trial order on return.
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
    if workers is None:
        workers = default_workers()
    return run_sweep(
        partial(run_trial, factory, timeout=timeout,
                allow_failures=allow_failures, capture_digest=capture_digest),
        None, trials, workers, retries=retries, deadline=deadline,
        journal=journal, run_key=run_key)


def run_sweep(
    task: Optional[Callable[[int], Any]],
    backend: Optional[Any],
    trials: int,
    workers: int = 1,
    config: Optional[Dict[str, Any]] = None,
    retries: int = 0,
    deadline: Optional[float] = None,
    journal: Optional[Union[str, TrialJournal]] = None,
    run_key: Optional[str] = None,
    metrics: Optional[MetricsRegistry] = None,
    heartbeat: Optional[float] = None,
    io_deadline: Optional[float] = None,
    spawn_retries: int = 2,
    speculate: bool = False,
    spelled: Tuple[str, str] = ("workers", "deadline"),
) -> SweepResult:
    """The sweep: the one body under :func:`run_supervised` and
    :func:`repro.fabric.coordinator.run_fabric`, which only map their
    arguments onto it (their docstrings describe each), and under every
    other journaled loop of trials.

    Validate; open the journal and count the records resume drops;
    replay what it holds; run the rest on ``workers`` workers from
    ``backend`` through :func:`repro.fabric.coordinator.dispatch` —
    with no ``backend``, forked ``LocalBackend(task)`` workers when
    ``workers > 1`` and the platform forks, else ``task`` in this
    process; journal each success as it lands; compact the journal to
    trial order; close it whatever raised. The defaults run each task
    once.

    Args:
        config: what dispatched workers are configured with: the trial
            knobs of :func:`run_trial` for workers holding a factory,
            else ``{"task": True}`` (workers of ``LocalBackend(task)``).
        retries: the budget of each of a trial's two failure counts —
            reported failures retried in place, lost holders requeued.
        spelled: what the caller's signature calls ``workers`` and
            ``deadline``, for error messages.
    """
    for name, value, floor in (
            ("trials", trials, 1), (spelled[0], workers, 1),
            ("retries", retries, 0), ("spawn_retries", spawn_retries, 0)):
        if value < floor:
            raise ValueError(f"{name} must be >= {floor}, got {value!r}")
    for name, value in ((spelled[1], deadline), ("heartbeat", heartbeat),
                        ("io_deadline", io_deadline)):
        if value is not None and value <= 0:
            raise ValueError(f"{name} must be positive, got {value!r}")
    if io_deadline is not None and heartbeat is not None \
            and io_deadline <= heartbeat:
        raise ValueError(
            f"io_deadline ({io_deadline!r}) must exceed the heartbeat "
            f"interval ({heartbeat!r}): beats are what keep an idle "
            f"stream alive under a read deadline")

    # Workers are used whenever they can be (even for one pending
    # trial): supervision — the watchdog kill, crash containment —
    # only works across a process boundary.
    if backend is None and workers > 1 and fork_available():
        # Imported here: repro.fabric is built on this module.
        from repro.fabric.backend import LocalBackend

        backend = LocalBackend(task)
    if metrics is None:
        metrics = MetricsRegistry()
    started = time.monotonic()
    journal = open_journal(journal, run_key)
    try:
        outcomes, pending, dropped = _replay_journal(journal, trials)
        if journal is not None:
            # Surface resume-time damage instead of swallowing it.
            metrics.counter("fabric.journal_records_dropped").add(dropped)
        metrics.counter("fabric.shards").add(workers)
        metrics.counter("fabric.trials_from_journal").add(len(outcomes))

        if backend is None:
            for outcome in run_shard(task, pending, retries):
                outcomes[outcome.trial] = outcome
                _journal_record(journal, outcome)
                metrics.counter("fabric.trials_completed").add(1)
        elif pending:
            from repro.fabric.coordinator import dispatch  # see above

            dispatch(
                backend, pending, workers, outcomes,
                config=dict(config or {"task": True}, retries=retries,
                            heartbeat=heartbeat),
                record=partial(_journal_record, journal),
                deadline=deadline, io_deadline=io_deadline,
                spawn_retries=spawn_retries, speculate=speculate,
                metrics=metrics,
            )

        if journal is not None:
            # Canonical form: header + one record per trial, in trial
            # order — byte-identical however the sweep was run.
            journal.rewrite()
    finally:
        if journal is not None:
            journal.close()

    elapsed = time.monotonic() - started
    completed = sum(1 for o in outcomes.values()
                    if o.succeeded and not o.from_journal)
    metrics.gauge("fabric.wall_seconds").set(elapsed, 0.0)
    if elapsed > 0:
        metrics.gauge("fabric.trials_per_s").set(completed / elapsed, 0.0)
    return SweepResult(
        [outcomes[index] for index in range(trials)], metrics, workers)


def _replay_journal(
    journal: Optional[TrialJournal], trials: int,
) -> Tuple[Dict[int, TrialOutcome], List[int], int]:
    """Split a sweep into the outcomes ``journal`` already holds
    (``from_journal=True``) and the trial indices still to run, and
    count the records resume drops: the damaged ones recovery skipped,
    and any not in :func:`_journal_record`'s shape (a bare result an
    older writer journaled), whose trials run again."""
    if journal is None:
        return {}, list(range(trials)), 0
    completed = journal.completed
    outcomes: Dict[int, TrialOutcome] = {}
    pending: List[int] = []
    dropped = journal.dropped_records
    for trial in range(trials):
        entry = completed.get(trial)
        if isinstance(entry, dict) \
                and entry.keys() == {"status", "attempts", "result"}:
            outcomes[trial] = TrialOutcome(
                trial=trial, status=entry["status"],
                attempts=entry["attempts"], error=None,
                result=entry["result"], from_journal=True,
                digest=journal.digest_for(trial),
            )
        else:
            dropped += trial in completed
            pending.append(trial)
    return outcomes, pending, dropped


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


def run_shard(
    task: Callable[[int], Any],
    indices: Iterable[int],
    retries: int = 1,
) -> Iterator[TrialOutcome]:
    """Run ``task(index)`` for each index in order in this process,
    yielding each outcome as it lands — the one attempt/quarantine loop,
    run by the in-process sweep (same taxonomy, no kill/crash
    containment) and inside every dispatched worker. A page-load trial
    is :func:`~repro.measure.runner.run_trial` bound to its factory.

    First successful attempt → ``ok``; success after ``ReproError``s →
    ``retried``; retry budget exhausted → ``quarantined``. Any other
    ``Exception`` is a bug a deterministic task would only raise again:
    reported once, in place, ``quarantined`` with ``TypeName: message``
    (the traceback goes to stderr). Nothing here touches a journal:
    :func:`run_sweep` checkpoints the outcomes it is handed.
    The loop runs under :func:`~repro.measure.parallel.trial_scope`.
    """
    with trial_scope():
        for trial in indices:
            outcome: Optional[TrialOutcome] = None
            for attempt in range(1, retries + 2):
                try:
                    result = task(trial)
                except ReproError as exc:
                    error = str(exc)
                    continue
                except Exception as exc:
                    traceback.print_exc()  # the outcome keeps only the summary
                    error = f"{type(exc).__name__}: {exc}"
                    break
                outcome = TrialOutcome(
                    trial=trial, status="ok" if attempt == 1 else "retried",
                    attempts=attempt, error=None, result=result,
                    digest=getattr(result, "event_digest", None),
                )
                break
            if outcome is None:
                outcome = TrialOutcome(
                    trial=trial, status="quarantined", attempts=attempt,
                    error=error, result=None,
                )
            yield outcome
