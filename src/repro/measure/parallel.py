"""Parallel trial execution over forked workers.

Every measurement in the paper is built from *independent* simulated page
loads — Figure 2's corpus CDF, Table 1's 100-load distributions, Table 2's
nine-configuration grid. Independence is what makes them honest (no TCP
state or cache leaks between loads) and it is also what makes them
embarrassingly parallel: each trial owns its whole world (simulator,
namespaces, browser), so trials can run on separate cores with no shared
state at all.

:class:`ParallelRunner` fans trials out over forked workers and preserves
the serial runner's contract exactly:

* **Determinism** — seeding lives in the scenario factory (``factory(i)``
  seeds from the trial index), and results are collected in trial-index
  order, so the returned :class:`~repro.measure.stats.Sample` is
  bit-identical to the serial runner's.
* **Failure semantics** — a failing trial raises the same
  :class:`~repro.errors.ReproError` with the same wording (both paths
  share :func:`~repro.measure.runner.run_trial`), and the error surfaced
  is the one with the lowest trial index, matching the serial
  first-failure order.
* **Graceful degradation** — ``workers=1``, ``trials == 1``, or a
  platform without ``fork`` all fall back to the serial in-process path.

There is no pool of its own here: :func:`parallel_map` runs on the one
trial dispatcher (:func:`repro.fabric.coordinator.dispatch`) — the loop
``run_supervised`` and ``run_fabric`` run on — with loss budget 0 (a dead
worker is an error, not a retry) and no journal. Scenario factories and
tasks are usually closures (over a recorded site, a machine profile, link
parameters) and closures do not pickle; the dispatcher's local workers are
*forked*, so they inherit the task with their memory image, and only trial
indices and pickled results ever cross a pipe.

Why trial-level and not event-level parallelism: the simulator's event
loop is intrinsically sequential (each event may schedule the next), and
splitting one load across cores would break the strict ``(time, seq)``
causal order that makes runs reproducible. Parallelising *across* trials
keeps every simulated world single-threaded and bit-exact while scaling
throughput with cores — the same shape as ERRANT's batch emulation sweeps.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.errors import ReproError
from repro.measure.runner import (
    DEFAULT_TRIAL_TIMEOUT,
    ScenarioFactory,
    ScenarioResult,
    run_trial,
)
from repro.measure.stats import Sample

__all__ = [
    "ParallelRunner",
    "default_workers",
    "fork_available",
    "parallel_map",
]


class _Finished:
    """One generic task's result, shaped like the finished world a
    worker's ``run_trial`` drives: a simulator with nothing left to run
    and a page load that is already complete. The payload is pickled
    *here*, in the worker, so an unpicklable result is a clear error
    naming its index instead of a dead worker."""

    complete = True
    resources_failed = 0
    metrics = None

    def __init__(self, task: Callable[[int], Any], index: int) -> None:
        try:
            value, self.ok = task(index), True
        except Exception as exc:
            # ``trial_index`` survives pickling via the exception's
            # ``__dict__``: the caller learns *which* index failed even
            # when the message does not say.
            exc.trial_index = index
            value, self.ok = exc, False
        try:
            self.payload = pickle.dumps(value, pickle.HIGHEST_PROTOCOL)
        except Exception as exc:
            error = ReproError(
                f"trial {index} returned an unpicklable result "
                f"({type(value).__name__}): {exc}"
            )
            error.trial_index = index
            self.payload, self.ok = pickle.dumps(error), False

    def run_until(self, *_args: Any, **_kwargs: Any) -> None:
        """Nothing to simulate."""


def fork_available() -> bool:
    """Whether this platform supports the ``fork`` start method."""
    return "fork" in multiprocessing.get_all_start_methods()


def default_workers() -> int:
    """Worker count when none is given: one per available core."""
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:  # platforms without sched_getaffinity
        return max(1, os.cpu_count() or 1)


def parallel_map(
    task: Callable[[int], Any],
    count: int,
    workers: int,
    indices: Optional[Sequence[int]] = None,
    on_result: Optional[Callable[[int, Any], None]] = None,
) -> List[Any]:
    """Evaluate ``[task(0), ..., task(count - 1)]``, possibly in parallel.

    The generic primitive under :class:`ParallelRunner` (and the
    ``mm-corpus --workers`` flag): results come back in index order, an
    exception raised by ``task`` propagates for the lowest failing index,
    and the serial path is used when parallelism cannot help (or the
    platform lacks fork, which closure-carrying tasks require).

    Args:
        task: called with each index; may be a closure (fork-inherited).
        count: number of indices.
        workers: worker cap; effective size is ``min(workers, count)``.
        indices: run exactly these indices instead of ``range(count)``
            (a resumed run's remaining work); results come back in the
            order given.
        on_result: called in the *parent* as ``on_result(index, result)``
            when each result arrives — the checkpoint hook: a caller
            journaling completions loses at most the in-flight tasks to
            a kill, not everything. Completion order, not index order.

    Raises:
        ReproError: if a worker process dies holding an index (the
            other indices still run; the lowest failing index wins).
        Exception: whatever ``task`` itself raised, re-raised for the
            lowest failing index.
    """
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count!r}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers!r}")
    todo = list(range(count)) if indices is None else list(indices)
    workers = min(workers, len(todo))
    if workers <= 1 or not fork_available():
        results = []
        for index in todo:
            try:
                result = task(index)
            except Exception as exc:
                exc.trial_index = index
                raise
            if on_result is not None:
                on_result(index, result)
            results.append(result)
        return results

    # Imported here: repro.fabric is built on repro.measure.
    from repro.fabric.backend import LocalBackend
    from repro.fabric.coordinator import dispatch

    def finished(index: int):
        done = _Finished(task, index)
        return done, done  # (simulator, page load) to run_trial

    collected: Dict[int, Any] = {}
    failures: Dict[int, BaseException] = {}

    def collect(outcome) -> None:
        value = pickle.loads(outcome.result.payload)
        if not outcome.result.ok:
            failures[outcome.trial] = value  # re-raised below, lowest first
            return
        if on_result is not None:
            on_result(outcome.trial, value)
        collected[outcome.trial] = value

    outcomes: Dict[int, Any] = {}
    dispatch(
        LocalBackend(finished),
        list(dict.fromkeys(todo)),
        workers,
        outcomes,
        config={"retries": 0},
        record=collect,
        worker_retries=0,
    )
    for index, outcome in outcomes.items():
        if not outcome.succeeded:
            failures[index] = ReproError(
                f"parallel worker process died unexpectedly "
                f"(workers={workers}, count={count}): {outcome.error}"
            )
    if failures:
        raise failures[min(failures)]
    return [collected[index] for index in todo]


class ParallelRunner:
    """Run independent page-load trials across forked workers.

    Drop-in counterpart to :func:`~repro.measure.runner.run_page_loads`:
    same arguments, same :class:`~repro.measure.runner.ScenarioResult`,
    same errors — the only difference is wall-clock time.

    Args:
        workers: worker cap; defaults to the number of available cores.
            ``workers=1`` runs serially in-process (no fork).

    Example:
        >>> from repro.measure.parallel import ParallelRunner
        >>> ParallelRunner(workers=1).workers
        1
    """

    def __init__(self, workers: Optional[int] = None) -> None:
        if workers is None:
            workers = default_workers()
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers!r}")
        self.workers = workers

    def run_page_loads(
        self,
        factory: ScenarioFactory,
        trials: int,
        timeout: float = DEFAULT_TRIAL_TIMEOUT,
        allow_failures: bool = False,
    ) -> ScenarioResult:
        """Run ``trials`` independent page loads, fanned over the workers.

        Results (and therefore the PLT :class:`Sample`) are ordered by
        trial index regardless of completion order, so statistics are
        bit-identical to the serial runner's for the same factory.

        Observability rides along: each trial's metrics registry (plain
        data, hence picklable) returns with its result, so
        ``ScenarioResult.metrics`` / ``merged_metrics()`` re-assemble in
        trial order exactly as under the serial runner.

        Raises:
            ReproError: hung load or failed resources (lowest failing
                trial index wins, as in the serial runner), or a crashed
                worker process.
        """
        if trials < 1:
            raise ValueError(f"trials must be >= 1, got {trials!r}")

        def task(trial: int):
            return run_trial(factory, trial, timeout, allow_failures)

        results = parallel_map(task, trials, workers=self.workers)
        return ScenarioResult(Sample(r.page_load_time for r in results), results)

    def __repr__(self) -> str:
        return f"ParallelRunner(workers={self.workers})"
