"""Trial-scoped collection: a trial's world dies with its trial.

A finished world is one reference cycle (simulator, event queue,
connections, their timers and callbacks), which reference counting never
frees. ``run_trial`` collects it before returning, and the loops that run
trials back to back (``parallel_map``'s in-process loop and ``run_shard``)
freeze the heap they start with, so that pass walks only what the loop
allocated. These tests hold both halves: the world is gone when its trial
returns, memory does not grow with the number of trials, and no entry
point leaves the heap frozen, however it exits.
"""

import gc
import tracemalloc
import weakref
from functools import partial

import pytest

from repro.errors import ReproError
from repro.measure.parallel import fork_available, parallel_map, trial_scope
from repro.measure.runner import run_page_loads, run_trial
from repro.measure.supervise import run_shard, run_supervised
from repro.scenarios import replay_smoke

needs_fork = pytest.mark.skipif(
    not fork_available(), reason="platform lacks the fork start method"
)


class Abort(BaseException):
    """Escapes every ``except Exception`` in the harness."""


@pytest.fixture(scope="module")
def factory():
    return replay_smoke()


def frozen_during(index):
    return gc.get_freeze_count()


def failing(exc, index):
    raise exc


@pytest.mark.parametrize("scoped", [False, True], ids=["bare", "scoped"])
def test_world_is_dead_when_run_trial_returns(factory, collector_off,
                                              scoped):
    worlds = []

    def probe(trial):
        sim, result = factory(trial)
        worlds.append(weakref.ref(sim))
        return sim, result

    if scoped:
        with trial_scope():
            result = run_trial(probe, 0)
    else:
        result = run_trial(probe, 0)
    assert result.complete
    assert worlds[0]() is None


def test_a_world_held_into_the_next_trial_dies_there(factory, collector_off):
    held = {}

    def probe(trial):
        world = factory(trial)
        held["sim"] = world[0]
        return world

    run_trial(probe, 0)
    first = weakref.ref(held["sim"])
    run_trial(probe, 1)
    assert first() is None


def test_memory_does_not_grow_with_the_number_of_trials(factory):
    gc.collect()
    tracemalloc.start()
    try:
        run_page_loads(factory, 1)
        one = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        run_page_loads(factory, 8)
        eight = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert eight < 2 * one


class TestFreezeIsReleased:
    def test_parallel_map_freezes_only_while_it_runs(self):
        assert parallel_map(frozen_during, 2, workers=1)[0] > 0
        assert gc.get_freeze_count() == 0

    @pytest.mark.parametrize("exc", [ReproError("boom"), ValueError("bug")],
                             ids=["repro", "other"])
    def test_parallel_map_raising(self, exc):
        with pytest.raises(type(exc)):
            parallel_map(partial(failing, exc), 2, workers=1)
        assert gc.get_freeze_count() == 0

    def test_run_page_loads(self, factory):
        run_page_loads(factory, 2)
        assert gc.get_freeze_count() == 0
        with pytest.raises(ReproError, match="boom"):
            run_page_loads(partial(failing, ReproError("boom")), 2)
        assert gc.get_freeze_count() == 0

    def test_in_process_sweep(self, factory):
        sweep = run_supervised(factory, 2, workers=1)
        assert sweep.complete
        assert gc.get_freeze_count() == 0
        for exc in (ReproError("boom"), TypeError("bug")):
            sweep = run_supervised(partial(failing, exc), 2, workers=1)
            assert sweep.counts()["quarantined"] == 2
            assert gc.get_freeze_count() == 0
        with pytest.raises(Abort):
            run_supervised(partial(failing, Abort()), 2, workers=1)
        assert gc.get_freeze_count() == 0

    def test_run_shard_closed_early(self):
        shard = run_shard(frozen_during, [0, 1, 2])
        assert next(shard).result > 0
        assert gc.get_freeze_count() > 0
        shard.close()
        assert gc.get_freeze_count() == 0

    @needs_fork
    def test_dispatched(self, factory):
        # Each worker runs its trials frozen; the parent never freezes.
        assert all(count > 0 for count in
                   parallel_map(frozen_during, 4, workers=2))
        assert gc.get_freeze_count() == 0
        with pytest.raises(ValueError, match="bug"):
            parallel_map(partial(failing, ValueError("bug")), 4, workers=2)
        assert gc.get_freeze_count() == 0
        sweep = run_supervised(factory, 4, workers=2)
        assert sweep.complete
        assert gc.get_freeze_count() == 0

    def test_only_the_outermost_scope_freezes(self):
        with trial_scope():
            frozen = gc.get_freeze_count()
            assert frozen > 0
            with trial_scope():
                pass
            assert gc.get_freeze_count() == frozen
        assert gc.get_freeze_count() == 0

    def test_a_callers_own_freeze_is_left_alone(self):
        gc.freeze()
        try:
            frozen = gc.get_freeze_count()
            with trial_scope():
                pass
            assert gc.get_freeze_count() == frozen
        finally:
            gc.unfreeze()
