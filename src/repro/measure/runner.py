"""Trial runners.

Each trial is an independent simulation: the scenario factory gets a trial
index, builds a fresh world (simulator, shells, browser), starts a page
load, and hands back the live result. The runner drives the simulator to
completion and collects page load times. Independent trials keep
measurements honest — no TCP state, caches, or queue occupancy leak
between loads, matching how the paper restarts the browser per load.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, List, NamedTuple, Tuple

from repro.browser.engine import PageLoadResult
from repro.errors import ReproError
from repro.measure.parallel import collect_finished_worlds, parallel_map
from repro.measure.stats import Sample
from repro.sim.simulator import Simulator

#: A scenario factory returns the trial's simulator and its live result.
ScenarioFactory = Callable[[int], Tuple[Simulator, PageLoadResult]]

#: Wall-clock cap per trial, virtual seconds.
DEFAULT_TRIAL_TIMEOUT = 600.0


class ScenarioResult(NamedTuple):
    """All trials of one scenario."""

    sample: Sample
    results: List[PageLoadResult]

    @property
    def plt(self) -> Sample:
        """Alias: the page-load-time sample (seconds)."""
        return self.sample

    @property
    def metrics(self) -> List[object]:
        """Per-trial metrics registries, in trial order (None entries for
        uninstrumented trials)."""
        return [getattr(r, "metrics", None) for r in self.results]

    def merged_metrics(self):
        """All trials' registries merged under ``trial{i}.`` prefixes.

        Returns None when no trial carried a registry.
        """
        per_trial = self.metrics
        if not any(registry is not None for registry in per_trial):
            return None
        from repro.obs.registry import MetricsRegistry

        return MetricsRegistry.merge_trials(per_trial)


def run_trial(
    factory: ScenarioFactory,
    trial: int,
    timeout: float = DEFAULT_TRIAL_TIMEOUT,
    allow_failures: bool = False,
    capture_digest: bool = False,
) -> PageLoadResult:
    """Build and drive one trial to completion.

    The single-trial unit: ``run_page_loads`` below, the sweep in
    :mod:`repro.measure.supervise` and every dispatched worker run a
    page-load trial as this function bound to a factory — keeping every
    path identical in behaviour and error wording by construction.

    It ends with a full collection, which frees the finished world and
    any world the caller held into this trial; inside
    :func:`~repro.measure.parallel.trial_scope` that pass walks only the
    loop's own objects.

    Args:
        capture_digest: install an event-stream digest
            (:class:`~repro.analysis.sanitizer.EventStreamDigest`) on the
            trial's simulator and stash its hex on
            ``result.event_digest`` — the per-trial fingerprint that lets
            a journal-resumed sweep prove byte-equivalence to an
            uninterrupted run.

    Raises:
        ReproError: on a hung load, or failed resources unless allowed.
    """
    sim, result = factory(trial)
    digest = None
    if capture_digest:
        from repro.analysis.sanitizer import EventStreamDigest

        digest = EventStreamDigest()
        sim.set_trace(digest)
    sim.run_until(lambda: result.complete, timeout=timeout)
    # Metrics ride along on the result so parallel trials (which pickle
    # results back from worker processes) keep their registries.
    result.metrics = sim.metrics
    if digest is not None:
        result.event_digest = digest.hexdigest
    # Collect the world now, not at whichever full pass comes next.
    del sim
    collect_finished_worlds()
    if not result.complete:
        raise ReproError(
            f"trial {trial}: page load did not finish within "
            f"{timeout} virtual seconds "
            f"(loaded={result.resources_loaded}, "
            f"failed={result.resources_failed})"
        )
    if result.resources_failed and not allow_failures:
        raise ReproError(
            f"trial {trial}: {result.resources_failed} resources "
            f"failed: {result.errors[:3]}"
        )
    return result


def run_page_loads(
    factory: ScenarioFactory,
    trials: int,
    timeout: float = DEFAULT_TRIAL_TIMEOUT,
    allow_failures: bool = False,
    workers: int = 1,
) -> ScenarioResult:
    """Run ``trials`` independent page loads and collect their PLTs.

    All-or-nothing: the first failing trial (by index) raises and the
    rest are discarded — :func:`~repro.measure.supervise.run_supervised`
    is the sweep that keeps partial results.

    Args:
        factory: builds one trial world; receives the trial index (use it
            to vary seeds).
        trials: how many independent loads.
        timeout: virtual-time budget per trial.
        allow_failures: when False (default), a load with failed resources
            raises — silent partial loads would corrupt the measurement.
        workers: above 1, trials are fanned out over that many forked
            workers (:func:`~repro.measure.parallel.parallel_map`).
            Results — each carrying its trial's metrics registry — are
            collected by trial index, so the sample is bit-identical to
            ``workers=1``; only wall-clock time differs.

    Raises:
        ReproError: on a hung load, or failed resources unless allowed
            (the lowest failing trial index wins at any ``workers``), or
            a crashed worker process.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials!r}")
    task = partial(run_trial, factory, timeout=timeout,
                   allow_failures=allow_failures)
    results = parallel_map(task, trials, workers)
    return ScenarioResult(Sample(r.page_load_time for r in results), results)
