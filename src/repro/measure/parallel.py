"""Parallel trial execution over forked workers.

Every measurement in the paper is built from *independent* simulated page
loads — Figure 2's corpus CDF, Table 1's 100-load distributions, Table 2's
nine-configuration grid. Independence is what makes them honest (no TCP
state or cache leaks between loads) and it is also what makes them
embarrassingly parallel: each trial owns its whole world (simulator,
namespaces, browser), so trials can run on separate cores with no shared
state at all.

:func:`parallel_map` fans any ``index -> result`` task out over forked
workers and hands the results back in index order, so what it computes
is bit-identical to the serial loop it falls back to (``workers=1``, one
index, or a platform without ``fork``) — errors included: the lowest
failing index raises what the serial loop would have raised first.
:func:`~repro.measure.runner.run_page_loads` with ``workers=`` is this
for page loads.

There is no pool of its own here: :func:`parallel_map` runs on the one
trial dispatcher (:func:`repro.fabric.coordinator.dispatch`) — the loop
every dispatched sweep runs on — with loss budget 0 (a dead worker is an
error, not a retry) and no journal, and its workers run the task as it
is. A loop that must survive a kill checkpoints through
:func:`~repro.measure.supervise.run_sweep` instead, the one journaled
loop. Scenario factories and tasks are usually closures (over a recorded
site, a machine profile, link parameters) and closures do not pickle; the
dispatcher's local workers are *forked*, so they inherit the task with
their memory image, and only trial indices and pickled results ever cross
a pipe.

Why trial-level and not event-level parallelism: the simulator's event
loop is intrinsically sequential (each event may schedule the next), and
splitting one load across cores would break the strict ``(time, seq)``
causal order that makes runs reproducible. Parallelising *across* trials
keeps every simulated world single-threaded and bit-exact while scaling
throughput with cores — the same shape as ERRANT's batch emulation sweeps.

A finished world is cyclic garbage (simulator → queue → connection ↔
timer ↔ callbacks), so :func:`~repro.measure.runner.run_trial` collects
it before returning, and a :class:`~repro.load.runner.LoadSession`
collects before it builds its world; both go through
:func:`collect_finished_worlds`, the package's one collection. The loops
that run trials back to back hold the heap they started with out of that
pass (:func:`trial_scope`), so it walks only what the loop allocated —
and a forked worker never walks, and so never copies, the heap it
inherited.
"""

from __future__ import annotations

import contextlib
import gc
import multiprocessing
import os
from typing import Any, Callable, Dict, Iterator, List

from repro.errors import ReproError

__all__ = [
    "collect_finished_worlds",
    "default_workers",
    "fork_available",
    "parallel_map",
    "trial_scope",
]


def fork_available() -> bool:
    """Whether this platform supports the ``fork`` start method."""
    return "fork" in multiprocessing.get_all_start_methods()


def default_workers() -> int:
    """Worker count when none is given: one per available core."""
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:  # platforms without sched_getaffinity
        return max(1, os.cpu_count() or 1)


@contextlib.contextmanager
def trial_scope() -> Iterator[None]:
    """Freeze the heap present at entry for the duration of a trial loop.

    Frozen objects are skipped by every collection, so each trial's
    closing collection walks only objects born inside the scope. Only
    the outermost scope freezes — an inner one, or a caller that froze
    the heap itself, finds it frozen and leaves it so — and it unfreezes
    on every exit: return, exception, or a generator closed early. A
    task run inside must not freeze or unfreeze the heap itself.
    """
    if gc.get_freeze_count():
        yield
        return
    gc.freeze()
    try:
        yield
    finally:
        gc.unfreeze()


def collect_finished_worlds() -> None:
    """Free every finished world nothing references any more.

    A world is one reference cycle, which reference counting never
    frees, so without this pass it waits for whichever full collection
    comes next — overlapping the world built after it. Inside
    :func:`trial_scope` the pass walks only what the loop allocated.
    """
    gc.collect()


def parallel_map(
    task: Callable[[int], Any],
    count: int,
    workers: int,
) -> List[Any]:
    """Evaluate ``[task(0), ..., task(count - 1)]``, possibly in parallel.

    The generic primitive under ``run_page_loads(workers=)`` and the
    capacity sweep: results come back in index order, an exception
    raised by ``task`` propagates for the lowest failing index, and the
    serial path is used when parallelism cannot help (or the platform
    lacks fork, which closure-carrying tasks require).

    Args:
        task: called with each index; may be a closure (fork-inherited).
        count: number of indices.
        workers: worker cap; effective size is ``min(workers, count)``.

    Raises:
        ReproError: if a worker process dies holding an index (the
            other indices still run; the lowest failing index wins).
        Exception: whatever ``task`` itself raised, re-raised for the
            lowest failing index.

    Example:
        >>> parallel_map(lambda i: i * i, 4, workers=1)
        [0, 1, 4, 9]
    """
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count!r}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers!r}")
    workers = min(workers, count)
    if workers <= 1 or not fork_available():
        results = []
        with trial_scope():
            for index in range(count):
                try:
                    results.append(task(index))
                except Exception as exc:
                    exc.trial_index = index
                    raise
        return results

    # Imported here: repro.fabric is built on repro.measure.
    from repro.fabric.backend import LocalBackend
    from repro.fabric.coordinator import dispatch

    def carried(index: int):
        """``task(index)`` — an exception it raises crosses the pipe as
        a value, so the caller gets it back with its type."""
        try:
            return True, task(index)
        except Exception as exc:
            # ``trial_index`` survives pickling via the exception's
            # ``__dict__``: the caller learns *which* index failed even
            # when the message does not say.
            exc.trial_index = index
            return False, exc

    outcomes: Dict[int, Any] = {}
    dispatch(
        LocalBackend(carried),
        range(count),
        workers,
        outcomes,
        config={"task": True, "retries": 0},
        record=lambda outcome: None,
    )
    failures: Dict[int, BaseException] = {}
    for index, outcome in outcomes.items():
        if outcome.status == "crashed":
            failures[index] = ReproError(
                f"parallel worker process died unexpectedly "
                f"(workers={workers}, count={count}): {outcome.error}"
            )
        elif not outcome.succeeded:  # its result would not pickle
            failures[index] = ReproError(outcome.error)
        elif not outcome.result[0]:
            failures[index] = outcome.result[1]
    if failures:
        raise failures[min(failures)]
    return [outcomes[index].result[1] for index in range(count)]
