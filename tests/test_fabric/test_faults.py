"""Tests for the fabric fault injector: plans, pumps, and the injected
runs staying byte-identical to serial."""

import pytest

from repro.errors import ChaosError, FabricError
from repro.fabric.backend import LocalBackend
from repro.fabric.coordinator import run_fabric
from repro.fabric.faults import (
    FabricFaultPlan,
    FaultyBackend,
    FrameFault,
    KillWorker,
    SpawnFault,
    WedgeWorker,
)
from repro.scenarios import replay_smoke
from repro.measure.supervise import run_supervised

KW = {"name": "fabtest.example", "seed": 7, "n_origins": 2, "scale": 0.3}
TRIALS = 6


@pytest.fixture(scope="module")
def factory():
    return replay_smoke(**KW)


@pytest.fixture(scope="module")
def serial(factory):
    result = run_supervised(factory, TRIALS, workers=1, capture_digest=True)
    assert result.complete
    return result


def assert_identical(result, reference):
    assert result.complete
    assert result.digest == reference.digest
    assert result.sample.values == reference.sample.values
    for ours, theirs in zip(result.outcomes, reference.outcomes):
        assert ours.status == theirs.status
        assert ours.digest == theirs.digest


class TestClauseValidation:
    def test_frame_fault_rejects_bad_fields(self):
        with pytest.raises(ChaosError, match="action"):
            FrameFault(action="explode")
        with pytest.raises(ChaosError, match="direction"):
            FrameFault(direction="sideways")
        with pytest.raises(ChaosError, match="shard"):
            FrameFault(shard=-1)
        with pytest.raises(ChaosError, match="skip"):
            FrameFault(skip=-1)
        with pytest.raises(ChaosError, match="count"):
            FrameFault(count=0)
        with pytest.raises(ChaosError, match="rate"):
            FrameFault(rate=1.5)
        with pytest.raises(ChaosError, match="delay"):
            FrameFault(action="delay", delay=0.0)

    def test_spawn_kill_wedge_validation(self):
        with pytest.raises(ChaosError, match="fail_first"):
            SpawnFault(fail_first=0)
        with pytest.raises(ChaosError, match="shard"):
            KillWorker(shard=-1)
        with pytest.raises(ChaosError, match="after_outcomes"):
            WedgeWorker(after_outcomes=-1)

    def test_plan_rejects_foreign_clauses(self):
        with pytest.raises(ChaosError, match="not a fabric fault clause"):
            FabricFaultPlan(clauses=("drop the frames",))

    def test_frozen(self):
        clause = FrameFault()
        with pytest.raises(AttributeError):
            clause.action = "delay"


class TestPlanSerialization:
    PLAN = FabricFaultPlan(
        clauses=(
            FrameFault(action="corrupt", direction="w2c", shard=1,
                       kinds=("outcome",), skip=2, count=3),
            FrameFault(action="drop", direction="both", rate=0.1),
            SpawnFault(shard=0, fail_first=2),
            KillWorker(shard=1, after_outcomes=4),
            WedgeWorker(shard=2, after_outcomes=1),
        ),
        name="torture",
        seed=99,
    )

    def test_json_round_trip(self):
        assert FabricFaultPlan.from_json(self.PLAN.to_json()) == self.PLAN

    def test_equal_plans_equal_text(self):
        again = FabricFaultPlan.from_json(self.PLAN.to_json())
        assert again.to_json() == self.PLAN.to_json()

    def test_unknown_clause_type_refused(self):
        with pytest.raises(ChaosError, match="unknown type"):
            FabricFaultPlan.from_dict(
                {"clauses": [{"type": "meteor-strike"}]})

    def test_unknown_field_refused(self):
        with pytest.raises(ChaosError, match="unknown fields"):
            FabricFaultPlan.from_dict(
                {"clauses": [{"type": "spawn", "blast_radius": 3}]})

    def test_not_json_refused(self):
        with pytest.raises(ChaosError, match="not valid JSON"):
            FabricFaultPlan.from_json("{nope")

    def test_selection_helpers(self):
        assert len(self.PLAN.frame_clauses("w2c", 1)) == 2
        assert len(self.PLAN.frame_clauses("c2w", 1)) == 1  # rate clause
        assert self.PLAN.spawn_budget(0) == 2
        assert self.PLAN.spawn_budget(1) == 0
        assert self.PLAN.kill_clause(1).after_outcomes == 4
        assert self.PLAN.kill_clause(0) is None
        assert self.PLAN.wedge_clause(2) is not None


class TestFaultyBackendDeterminism:
    def test_rate_rng_is_reproducible(self, factory):
        plan = FabricFaultPlan(seed=5)
        a = FaultyBackend(LocalBackend(factory), plan)
        b = FaultyBackend(LocalBackend(factory), plan)
        assert ([a._rng(0, "w2c").random() for _ in range(8)]
                == [b._rng(0, "w2c").random() for _ in range(8)])
        assert (a._rng(0, "w2c").random() != a._rng(1, "w2c").random())


class TestInjectedRunsStayIdentical:
    """Each fault class delivered for real — and the merged result still
    byte-identical to the serial reference."""

    def test_dropped_outcomes(self, factory, serial):
        backend = FaultyBackend(LocalBackend(factory), FabricFaultPlan(
            [FrameFault(action="drop", kinds=("outcome",), skip=1,
                        count=1)]))
        result = run_fabric(backend, TRIALS, shards=2, capture_digest=True)
        assert backend.injected.get("frames_dropped", 0) >= 1
        assert (result.metrics.counter("fabric.trials_redelivered").value
                >= 1)
        assert_identical(result, serial)

    def test_corrupted_frames_resync(self, factory, serial):
        backend = FaultyBackend(LocalBackend(factory), FabricFaultPlan(
            [FrameFault(action="corrupt", kinds=("outcome",), count=2)]))
        result = run_fabric(backend, TRIALS, shards=2, capture_digest=True)
        assert backend.injected.get("frames_corrupted", 0) >= 2
        assert (result.metrics.counter("fabric.frames_resynced").value
                >= 2)
        assert_identical(result, serial)

    def test_truncated_stream_reassigns(self, factory, serial):
        backend = FaultyBackend(LocalBackend(factory), FabricFaultPlan(
            [FrameFault(action="truncate", kinds=("outcome",), skip=1,
                        count=1, shard=0)]))
        result = run_fabric(backend, TRIALS, shards=2, retries=2,
                            capture_digest=True)
        assert backend.injected.get("frames_truncated", 0) == 1
        assert result.metrics.counter("fabric.worker_crashes").value >= 1
        assert_identical(result, serial)

    def test_spawn_failures_retried_with_backoff(self, factory, serial):
        backend = FaultyBackend(LocalBackend(factory), FabricFaultPlan(
            [SpawnFault(shard=0, fail_first=2)]))
        result = run_fabric(backend, TRIALS, shards=2, spawn_retries=2,
                            capture_digest=True)
        assert backend.injected.get("spawn_failures", 0) == 2
        assert result.metrics.counter("fabric.spawn_retries").value == 2
        assert_identical(result, serial)

    def test_spawn_retries_wait_a_doubling_delay(self, factory, serial,
                                                 monkeypatch):
        # 0.05 s, doubled per retry, capped at 2 s; no jitter. The
        # dispatcher's clock is swapped so the test sleeps none of it.
        from types import SimpleNamespace

        from repro.fabric import coordinator

        slept = []
        monkeypatch.setattr(coordinator, "time", SimpleNamespace(
            sleep=slept.append, monotonic=coordinator.time.monotonic))
        backend = FaultyBackend(LocalBackend(factory), FabricFaultPlan(
            [SpawnFault(shard=0, fail_first=7)]))
        result = run_fabric(backend, TRIALS, shards=1, spawn_retries=7,
                            capture_digest=True)
        assert slept == pytest.approx([0.05, 0.1, 0.2, 0.4, 0.8, 1.6, 2.0])
        assert_identical(result, serial)

    def test_killed_worker_reassigns(self, factory, serial):
        backend = FaultyBackend(LocalBackend(factory), FabricFaultPlan(
            [KillWorker(shard=0, after_outcomes=1)]))
        result = run_fabric(backend, TRIALS, shards=2, retries=2,
                            capture_digest=True)
        assert backend.injected.get("workers_killed", 0) == 1
        assert_identical(result, serial)

    def test_spawn_faults_are_real_fabric_errors(self, factory):
        backend = FaultyBackend(LocalBackend(factory), FabricFaultPlan(
            [SpawnFault(shard=0, fail_first=1)]))
        with pytest.raises(FabricError, match="injected spawn failure"):
            backend.start_worker(0)
        # Budget spent: the next attempt goes through to the real backend.
        handle = backend.start_worker(0)
        try:
            assert handle.alive()
        finally:
            handle.kill()
            handle.wait()
            handle.close()
