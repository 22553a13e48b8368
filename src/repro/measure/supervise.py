"""Supervised sweeps: watchdog, bounded retry, quarantine, resume.

:func:`run_page_loads` and :class:`ParallelRunner` treat a sweep as
all-or-nothing: the first failing trial raises and every completed trial
is discarded. That is the right contract for a 5-trial unit test and the
wrong one for the paper's production shape — Figure 2 sweeps 500 sites,
Tables 1–2 run 100 loads per configuration, and at that scale a single
OOM-killed worker or one pathological trial must not cost the run.

:func:`run_supervised` is the harness-resilience contract. It has two
ways to run a batch: in this process (:func:`run_shard`, for
``workers=1`` or a platform without ``fork``) or *dispatched* — the one
trial dispatcher (:func:`repro.fabric.coordinator.dispatch`) over
forked workers, the engine ``run_fabric`` and ``parallel_map`` also run
on. What the caller gets either way:

* **Warm workers** — at most ``workers`` long-lived forked processes,
  each handed one trial at a time: losing a worker costs exactly the
  trial it held, and one replacement fork.
* **Watchdog** — ``deadline`` wall-clock seconds from a trial's
  dispatch, in addition to its virtual-time budget. A worker that stops
  making progress (a real infinite loop, a deadlocked import, a
  pathological allocation) is SIGKILLed at the deadline — a lost holder.
* **One loss/retry rule** — a *reported* failure (``ReproError``) is
  retried inside the worker up to ``retries`` times, then the trial is
  ``quarantined``; a *lost holder* (crash, SIGKILL, watchdog kill) is
  counted per trial separately, also bounded by ``retries``, then the
  trial is ``crashed``. A successful outcome records only the trial's
  own deterministic history, so the journal is byte-identical to the
  serial one under any harness fault.
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
from dataclasses import dataclass
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple, Union

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
        deadline: wall-clock seconds from a trial's dispatch; a worker
            still holding the trial then is SIGKILLed — a lost holder.
            None disables the watchdog.
        retries: the budget of each of a trial's two failure counts: a
            trial whose attempt *reports* an error is retried in place
            at most this many times, then ``quarantined``; a trial whose
            *holder is lost* (crash, watchdog kill) goes back on the
            queue at most this many times, then is ``crashed``.
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
        # Workers are used whenever they can be (even for one pending
        # trial): supervision — the watchdog kill, crash containment —
        # only works across a process boundary.
        if workers == 1 or not fork_available():
            for outcome in run_shard(factory, pending, timeout,
                                     allow_failures, retries,
                                     capture_digest, journal):
                outcomes[outcome.trial] = outcome
        elif pending:
            # Imported here: repro.fabric is built on this module.
            from repro.fabric.backend import LocalBackend
            from repro.fabric.coordinator import dispatch

            dispatch(
                LocalBackend(factory), pending, workers, outcomes,
                config={"timeout": timeout, "allow_failures": allow_failures,
                        "retries": retries, "capture_digest": capture_digest},
                record=lambda outcome: _journal_record(journal, outcome),
                worker_retries=retries, deadline=deadline)
        if journal is not None:
            journal.rewrite()
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
    lands — the one attempt/quarantine loop, run by the in-process
    fallback of :func:`run_supervised` (same taxonomy, no kill/crash
    containment) and inside every dispatched worker.

    First successful attempt → ``ok``; success after failures →
    ``retried``; retry budget exhausted → ``quarantined``. When a
    ``journal`` is given, every *successful* outcome is checkpointed
    (fsync'd) before it is yielded — so a worker that dies after
    journaling trial N to its sidecar never makes a resumed sweep
    re-run N, the sidecar is merged instead.
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
            outcome = TrialOutcome(
                trial=trial, status="ok" if attempt == 1 else "retried",
                attempts=attempt, error=None, result=result,
                digest=getattr(result, "event_digest", None),
            )
            break
        if outcome is None:
            outcome = TrialOutcome(
                trial=trial, status="quarantined", attempts=retries + 1,
                error=error, result=None,
            )
        _journal_record(journal, outcome)
        yield outcome
