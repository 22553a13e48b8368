"""Robustness measurement: page loads under fault injection.

Page-load trials under a :class:`~repro.chaos.plan.FaultPlan` do not fit
:func:`~repro.measure.runner.run_page_loads` — there, a failed resource
is a measurement bug and raises. Under chaos the failures *are* the
measurement. :func:`run_chaos_trials` never raises on a degraded load:
every trial lands in exactly one outcome category and every failed fetch
in exactly one failure class, so PLT-degradation curves and failure
taxonomies come out of one pass.

Failure classes (per failed fetch):

* ``reset`` — connection reset mid-transfer (RST from a server fault or
  a chaos-injected transport reset);
* ``truncated`` — the body ended short of its advertised length;
* ``dns`` — resolution failed (SERVFAIL, NXDOMAIN, resolver timeout);
* ``timeout`` — a transport-level timer fired;
* ``closed`` — the connection closed with requests outstanding;
* ``other`` — anything else.

Load outcomes (per trial): ``success`` (everything loaded), ``degraded``
(onload fired with failed resources), ``hung`` (onload never fired
within the timeout).

The trials run as one in-process sweep (no retries), so a journaled
robustness run checkpoints and resumes like every other sweep.
"""

from __future__ import annotations

from functools import partial
from typing import Dict, List, NamedTuple, Optional

from repro.browser.engine import PageLoadResult
from repro.errors import (
    ConnectionClosed,
    ConnectionReset,
    DnsError,
    ReproError,
    ResetMidTransfer,
    TimeoutError_,
    TruncatedBody,
)
from repro.measure.runner import DEFAULT_TRIAL_TIMEOUT, ScenarioFactory
from repro.measure.stats import Sample
from repro.measure.supervise import run_sweep

#: Stable category order for tables and artifacts.
FAILURE_CLASSES = ("reset", "truncated", "dns", "timeout", "closed", "other")

OUTCOMES = ("success", "degraded", "hung")


def classify_error(exc: Exception) -> str:
    """Map a fetch failure to its taxonomy class (see module docstring).

    Subclass order matters: ResetMidTransfer/TruncatedBody are checked
    before their transport/HTTP base classes. DNS resolver timeouts
    arrive as DnsError (the resolver's own retry budget expired), so
    they classify as ``dns``, not ``timeout``.
    """
    if isinstance(exc, TruncatedBody):
        return "truncated"
    if isinstance(exc, (ResetMidTransfer, ConnectionReset)):
        return "reset"
    if isinstance(exc, DnsError):
        return "dns"
    if isinstance(exc, TimeoutError_):
        return "timeout"
    if isinstance(exc, ConnectionClosed):
        return "closed"
    return "other"


class LoadOutcome(NamedTuple):
    """One chaos trial, classified."""

    trial: int
    outcome: str  # "success" | "degraded" | "hung"
    plt: Optional[float]  # None for hung loads
    resources_loaded: int
    resources_failed: int
    #: failure class -> count, over this load's failed fetches.
    failures: Dict[str, int]
    result: PageLoadResult


class RobustnessSummary:
    """Aggregate of one scenario's chaos trials.

    Attributes:
        outcomes: the per-trial :class:`LoadOutcome` records.
        plt: Sample over completed (success + degraded) loads' PLTs.
        failure_counts: failure class -> total count across trials.
    """

    def __init__(self, outcomes: List[LoadOutcome]) -> None:
        self.outcomes = outcomes
        self.plt = Sample(
            o.plt for o in outcomes if o.plt is not None
        ) if any(o.plt is not None for o in outcomes) else None
        self.failure_counts: Dict[str, int] = {c: 0 for c in FAILURE_CLASSES}
        for outcome in outcomes:
            for cls, count in outcome.failures.items():
                self.failure_counts[cls] = (
                    self.failure_counts.get(cls, 0) + count
                )

    @property
    def trials(self) -> int:
        return len(self.outcomes)

    def count(self, outcome: str) -> int:
        """How many trials ended with ``outcome``."""
        return sum(1 for o in self.outcomes if o.outcome == outcome)

    @property
    def success_rate(self) -> float:
        """Fraction of trials that loaded every resource."""
        return self.count("success") / len(self.outcomes)

    @property
    def completion_rate(self) -> float:
        """Fraction of trials whose onload fired (success or degraded)."""
        return 1.0 - self.count("hung") / len(self.outcomes)

    def to_dict(self) -> dict:
        """JSON-ready summary (the bench artifact's per-scenario record)."""
        return {
            "trials": self.trials,
            "outcomes": {name: self.count(name) for name in OUTCOMES},
            "success_rate": self.success_rate,
            "completion_rate": self.completion_rate,
            "failure_counts": dict(self.failure_counts),
            "plt": None if self.plt is None else {
                "mean": self.plt.mean,
                "p50": self.plt.percentile(50),
                "p95": self.plt.percentile(95),
                "n": len(self.plt),
            },
        }

    def __repr__(self) -> str:
        return (
            f"<RobustnessSummary trials={self.trials} "
            f"success={self.count('success')} "
            f"degraded={self.count('degraded')} hung={self.count('hung')}>"
        )


def classify_result(
    trial: int, result: PageLoadResult
) -> LoadOutcome:
    """Classify one (possibly incomplete) page-load result."""
    failures: Dict[str, int] = {}
    for __, exc in result.failures:
        cls = classify_error(exc)
        failures[cls] = failures.get(cls, 0) + 1
    # Failures recorded before the structured-failure channel existed
    # (or from callbacks without exceptions) still count, as "other".
    unclassified = result.resources_failed - sum(failures.values())
    if unclassified > 0:
        failures["other"] = failures.get("other", 0) + unclassified
    if not result.complete:
        outcome = "hung"
        plt = None
    elif result.resources_failed:
        outcome = "degraded"
        plt = result.page_load_time
    else:
        outcome = "success"
        plt = result.page_load_time
    return LoadOutcome(
        trial=trial, outcome=outcome, plt=plt,
        resources_loaded=result.resources_loaded,
        resources_failed=result.resources_failed,
        failures=failures, result=result,
    )


def run_chaos_trial(
    factory: ScenarioFactory,
    trial: int,
    timeout: float = DEFAULT_TRIAL_TIMEOUT,
) -> LoadOutcome:
    """Run one trial under faults; classify instead of raising.

    A load that never reaches onload inside ``timeout`` virtual seconds
    is a ``hung`` outcome, not an error — under a long outage that is a
    legitimate measurement.
    """
    sim, result = factory(trial)
    sim.run_until(lambda: result.complete, timeout=timeout)
    result.metrics = sim.metrics
    return classify_result(trial, result)


def run_chaos_trials(
    factory: ScenarioFactory,
    trials: int,
    timeout: float = DEFAULT_TRIAL_TIMEOUT,
    journal=None,
    run_key: Optional[str] = None,
) -> RobustnessSummary:
    """Run ``trials`` independent page loads under a fault plan.

    Args:
        factory: builds one trial world (simulator + live result); the
            chaos plan is the factory's business — typically via
            ``ShellStack.add_chaos``.
        trials: how many independent loads.
        timeout: virtual-time budget per trial before it counts as hung.
        journal: a :class:`~repro.measure.journal.TrialJournal` or path,
            as for :func:`~repro.measure.supervise.run_supervised` — a
            killed robustness sweep resumes to the identical summary.
        run_key: stamps/validates a path-given journal (see
            :func:`repro.measure.journal.run_key`).

    Raises:
        ReproError: naming every trial that raised instead of loading
            (a broken factory, not a degraded load), so the summary
            never silently shrinks; the others stay journaled.
    """
    sweep = run_sweep(partial(run_chaos_trial, factory, timeout=timeout),
                      None, trials, journal=journal, run_key=run_key)
    lost = [f"trial {o.trial}: {o.error}" for o in sweep.outcomes
            if not o.succeeded]
    if lost:
        raise ReproError(f"{len(lost)} of {trials} chaos trials lost: "
                         + "; ".join(lost))
    return RobustnessSummary(sweep.results)
