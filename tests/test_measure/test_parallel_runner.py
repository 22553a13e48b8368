"""Tests for ``run_page_loads(workers=)`` and its ``parallel_map`` primitive."""

import os

import pytest

from repro.browser import Browser
from repro.core import HostMachine, ShellStack
from repro.corpus import generate_site
from repro.errors import ReproError
from repro.measure.parallel import (
    default_workers,
    fork_available,
    parallel_map,
)
from repro.measure.runner import run_page_loads
from repro.sim import Simulator

needs_fork = pytest.mark.skipif(
    not fork_available(), reason="platform lacks the fork start method"
)


def _make_factory(site, store=None):
    if store is None:
        store = site.to_recorded_site()

    def factory(trial):
        sim = Simulator(seed=trial)
        machine = HostMachine(sim)
        stack = ShellStack(machine)
        stack.add_replay(store)
        browser = Browser(sim, stack.transport, stack.resolver_endpoint,
                          machine=machine)
        return sim, browser.load(site.page)

    return factory


def _failing_factory():
    """A factory whose every load has exactly one unresolvable resource."""
    from repro.browser.resources import Resource, Url

    site = generate_site("pfail.com", seed=52, n_origins=3, scale=0.5)
    store = site.to_recorded_site()
    site.page.root.children.append(Resource(
        Url.parse("http://unresolvable.example/x.js"), "js", 100))
    return _make_factory(site, store)


class TestParallelMap:
    def test_serial_path(self):
        assert parallel_map(lambda i: i * i, 5, workers=1) == [0, 1, 4, 9, 16]

    @needs_fork
    def test_parallel_path_ordered(self):
        assert parallel_map(lambda i: i * i, 8, workers=3) == \
            [i * i for i in range(8)]

    @needs_fork
    def test_closures_cross_the_fork(self):
        payload = {"base": 100}
        assert parallel_map(lambda i: payload["base"] + i, 4, workers=2) == \
            [100, 101, 102, 103]

    @needs_fork
    def test_task_exception_propagates(self):
        def task(i):
            if i == 2:
                raise ReproError("trial 2 exploded")
            return i

        with pytest.raises(ReproError, match="trial 2 exploded"):
            parallel_map(task, 6, workers=2)

    @needs_fork
    def test_worker_crash_raises_repro_error(self, tmp_path):
        def task(i):
            if i == 1:
                os._exit(13)  # hard crash, no exception to pickle
            (tmp_path / str(i)).touch()
            return i

        with pytest.raises(ReproError, match="worker process died") as info:
            parallel_map(task, 4, workers=2)
        assert "exit code 13" in str(info.value)
        # Loss budget 0: the dead worker's index is an error, not a
        # retry — and it cost nothing but itself.
        assert sorted(os.listdir(tmp_path)) == ["0", "2", "3"]

    def test_bad_args(self):
        with pytest.raises(ValueError):
            parallel_map(lambda i: i, 3, workers=0)
        with pytest.raises(ValueError):
            parallel_map(lambda i: i, -1, workers=2)
        assert parallel_map(lambda i: i, 0, workers=4) == []

    @needs_fork
    def test_lowest_failing_index_raised_with_trial_tag(self):
        def task(i):
            if i in (1, 3):
                raise ReproError(f"trial {i} broke")
            return i

        with pytest.raises(ReproError, match="trial 1 broke") as excinfo:
            parallel_map(task, 5, workers=2)
        assert excinfo.value.trial_index == 1

    @needs_fork
    def test_unpicklable_result_is_a_clear_error(self):
        def task(i):
            return lambda: i  # closures do not pickle

        with pytest.raises(ReproError, match="unpicklable"):
            parallel_map(task, 2, workers=2)


class TestParallelRunner:
    """``run_page_loads(workers=N)``: the all-or-nothing call, fanned out."""

    def test_default_workers_positive(self):
        assert default_workers() >= 1

    def test_bad_workers(self):
        site = generate_site("badw.com", seed=50, n_origins=2, scale=0.3)
        with pytest.raises(ValueError, match="workers"):
            run_page_loads(_make_factory(site), trials=2, workers=0)

    def test_bad_trials(self):
        with pytest.raises(ValueError):
            run_page_loads(lambda t: None, trials=0, workers=2)

    def test_workers_1_is_serial(self):
        site = generate_site("ser.com", seed=50, n_origins=4, scale=0.5)
        result = run_page_loads(_make_factory(site), trials=3, workers=1)
        assert len(result.plt) == 3
        assert all(v > 0 for v in result.plt.values)

    @needs_fork
    def test_sample_bit_identical_to_serial(self):
        site = generate_site("det.com", seed=51, n_origins=4, scale=0.5)
        factory = _make_factory(site)
        serial = run_page_loads(factory, trials=5)
        parallel = run_page_loads(factory, trials=5, workers=3)
        assert serial.sample.values == parallel.sample.values
        assert [r.page_load_time for r in serial.results] == \
            [r.page_load_time for r in parallel.results]

    @needs_fork
    def test_trials_fewer_than_workers(self):
        site = generate_site("few.com", seed=53, n_origins=3, scale=0.5)
        factory = _make_factory(site)
        parallel = run_page_loads(factory, trials=2, workers=8)
        serial = run_page_loads(factory, trials=2)
        assert parallel.sample.values == serial.sample.values

    @needs_fork
    def test_failure_propagates_with_trial_index(self):
        with pytest.raises(ReproError, match="trial 0: 1 resources failed"):
            run_page_loads(_failing_factory(), trials=3, workers=2)

    @needs_fork
    def test_allow_failures_collects_results(self):
        result = run_page_loads(_failing_factory(), trials=3,
                                allow_failures=True, workers=2)
        assert len(result.results) == 3
        assert all(r.resources_failed == 1 for r in result.results)

    @needs_fork
    def test_timeout_raises(self):
        site = generate_site("slowpar.com", seed=54, n_origins=3, scale=0.5)
        with pytest.raises(ReproError, match="did not finish"):
            run_page_loads(_make_factory(site), trials=2, timeout=0.001,
                           workers=2)

    @needs_fork
    def test_worker_crash_surfaces_as_repro_error(self):
        site = generate_site("crash.com", seed=55, n_origins=3, scale=0.5)
        inner = _make_factory(site)

        def factory(trial):
            if trial == 1:
                os._exit(13)
            return inner(trial)

        with pytest.raises(ReproError, match="worker process died"):
            run_page_loads(factory, trials=3, workers=2)


def _instrumented_factory(site, store=None):
    from repro.obs import MetricsRegistry

    if store is None:
        store = site.to_recorded_site()

    def factory(trial):
        sim = Simulator(seed=trial)
        registry = MetricsRegistry.install(sim)
        # A per-trial marker series so ordering is checkable after merge.
        registry.timeseries("trial_marker").record(0.0, float(trial))
        machine = HostMachine(sim)
        stack = ShellStack(machine)
        stack.add_replay(store)
        browser = Browser(sim, stack.transport, stack.resolver_endpoint,
                          machine=machine)
        return sim, browser.load(site.page)

    return factory


class TestMetricsRideAlong:
    def test_serial_metrics_in_trial_order(self):
        site = generate_site("obs-ser.com", seed=58, n_origins=3, scale=0.5)
        result = run_page_loads(_instrumented_factory(site), trials=3)
        registries = result.metrics
        assert len(registries) == 3
        for trial, registry in enumerate(registries):
            assert registry is not None
            assert registry.series["trial_marker"].last == float(trial)

    @needs_fork
    def test_parallel_metrics_pickle_back_in_trial_order(self):
        site = generate_site("obs-par.com", seed=59, n_origins=3, scale=0.5)
        factory = _instrumented_factory(site)
        parallel = run_page_loads(factory, trials=4, workers=3)
        for trial, registry in enumerate(parallel.metrics):
            assert registry.series["trial_marker"].last == float(trial)
        merged = parallel.merged_metrics()
        assert merged.series["trial2.trial_marker"].last == 2.0
        # Instrumented probes rode along too, not just the marker.
        assert any(".cwnd" in name for name in merged.series)

    def test_uninstrumented_merged_metrics_is_none(self):
        site = generate_site("obs-none.com", seed=60, n_origins=3, scale=0.5)
        result = run_page_loads(_make_factory(site), trials=2)
        assert result.metrics == [None, None]
        assert result.merged_metrics() is None

