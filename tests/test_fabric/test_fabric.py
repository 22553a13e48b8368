"""The fabric's headline guarantee: byte-identical to serial, any backend.

Every test here compares a sharded ``run_fabric`` sweep against one
serial ``run_supervised`` fixture — same factory, same trials — and
asserts literal equality of the PLT sample, the per-trial event-stream
digests, the combined sweep digest, and (where journaled) the journal
file bytes.
"""

import os
import signal
import stat
import sys
import threading
import time

import pytest

from repro.fabric.backend import LocalBackend, RemoteBackend, SubprocessBackend
from repro.fabric.coordinator import run_fabric
from repro.scenarios import replay_smoke
from repro.fabric.worker import FactorySpec
from repro.measure.journal import TrialJournal
from repro.measure.supervise import run_supervised

KW = {"name": "fabtest.example", "seed": 7, "n_origins": 2, "scale": 0.3}
SPEC = FactorySpec("repro.scenarios:replay_smoke", KW)
TRIALS = 6


@pytest.fixture(scope="module")
def factory():
    return replay_smoke(**KW)


@pytest.fixture(scope="module")
def serial(factory, tmp_path_factory):
    """The reference: one serial supervised sweep, journaled."""
    path = tmp_path_factory.mktemp("serial") / "journal.jsonl"
    result = run_supervised(factory, TRIALS, workers=1, journal=str(path),
                            capture_digest=True)
    assert result.complete
    return result, path.read_bytes()


def assert_identical(result, reference):
    assert result.complete
    assert result.digest == reference.digest
    assert result.sample.values == reference.sample.values
    for ours, theirs in zip(result.outcomes, reference.outcomes):
        assert ours.trial == theirs.trial
        assert ours.status == theirs.status
        assert ours.digest == theirs.digest


class TestLocalBackend:
    @pytest.mark.parametrize("shards", [1, 2, 4])
    def test_byte_identical_to_serial(self, shards, factory, serial,
                                      tmp_path):
        reference, reference_bytes = serial
        journal = tmp_path / "journal.jsonl"
        result = run_fabric(LocalBackend(factory), TRIALS, shards=shards,
                            journal=str(journal), capture_digest=True)
        assert_identical(result, reference)
        assert journal.read_bytes() == reference_bytes
        assert result.shards == shards
        assert (result.metrics.counter("fabric.workers_spawned").value
                == min(shards, TRIALS))

    def test_more_shards_than_trials(self, factory, serial):
        reference, __ = serial
        result = run_fabric(LocalBackend(factory), TRIALS,
                            shards=TRIALS + 3, capture_digest=True)
        assert_identical(result, reference)

    def test_validation(self, factory):
        backend = LocalBackend(factory)
        with pytest.raises(ValueError, match="trials"):
            run_fabric(backend, 0)
        with pytest.raises(ValueError, match="shards"):
            run_fabric(backend, 1, shards=0)
        with pytest.raises(ValueError, match="retries"):
            run_fabric(backend, 1, retries=-1)
        with pytest.raises(ValueError, match="progress_deadline"):
            run_fabric(backend, 1, progress_deadline=0)


class TestSpawnedBackends:
    def test_subprocess_byte_identical_to_serial(self, serial, tmp_path):
        reference, reference_bytes = serial
        journal = tmp_path / "journal.jsonl"
        result = run_fabric(SubprocessBackend(SPEC), TRIALS, shards=2,
                            journal=str(journal), capture_digest=True)
        assert_identical(result, reference)
        assert journal.read_bytes() == reference_bytes

    def test_remote_backend_over_fake_ssh(self, serial, tmp_path):
        # A fake ssh that drops the hostname and runs the command
        # locally: proves the transport shape without a network.
        reference, __ = serial
        fake_ssh = tmp_path / "fake-ssh"
        fake_ssh.write_text('#!/bin/sh\nshift\nexec sh -c "$@"\n')
        fake_ssh.chmod(fake_ssh.stat().st_mode | stat.S_IEXEC)
        src_root = os.path.dirname(os.path.dirname(os.path.abspath(
            __import__("repro").__file__)))
        backend = RemoteBackend(
            "measurement-host", SPEC,
            ssh_command=(str(fake_ssh),),
            python=sys.executable,
            remote_pythonpath=src_root,
        )
        result = run_fabric(backend, TRIALS, shards=2, capture_digest=True)
        assert_identical(result, reference)

    def test_remote_command_shape(self):
        backend = RemoteBackend("host9", SPEC, python="python3",
                                remote_pythonpath="/opt/repro/src")
        command = backend.remote_command()
        assert command.startswith("PYTHONPATH=/opt/repro/src ")
        assert "python3 -m repro.cli.mm_fabric worker" in command


class _KillFirstWorker(LocalBackend):
    """A LocalBackend whose first worker is SIGKILLed mid-sweep."""

    def __init__(self, factory, after=0.5):
        super().__init__(factory)
        self.after = after
        self.killed = []

    def start_worker(self, shard):
        handle = super().start_worker(shard)
        if not self.killed:
            self.killed.append(handle.pid)

            def assassin(pid=handle.pid):
                time.sleep(self.after)
                try:
                    os.kill(pid, signal.SIGKILL)
                except OSError:
                    pass

            threading.Thread(target=assassin, daemon=True).start()
        return handle


class TestWorkerCrash:
    def test_sigkill_mid_shard_reassigns_and_stays_identical(self, serial):
        # The killed worker's one in-flight trial goes back on the queue.
        reference, __ = serial
        # pace widens the kill window in wall time only — virtual-time
        # results (and therefore digests) are untouched.
        paced = replay_smoke(pace=0.3, **KW)
        backend = _KillFirstWorker(paced, after=0.5)
        result = run_fabric(backend, TRIALS, shards=2, retries=2,
                            capture_digest=True)
        assert backend.killed
        assert_identical(result, reference)
        metrics = result.metrics
        assert metrics.counter("fabric.worker_crashes").value == 1
        assert metrics.counter("fabric.trials_reassigned").value == 1
        assert metrics.counter("fabric.workers_spawned").value == 3

    def test_retries_zero_records_the_lost_trial_crashed(self, factory):
        paced = replay_smoke(pace=0.3, **KW)
        backend = _KillFirstWorker(paced, after=0.5)
        result = run_fabric(backend, TRIALS, shards=2, retries=0)
        assert not result.complete
        # The kill cost exactly the one trial the worker held; a
        # replacement worker ran the rest of the queue.
        assert result.counts() == {"ok": TRIALS - 1, "retried": 0,
                                   "quarantined": 0, "crashed": 1}
        assert "signal 9" in result.crashed[0].error
        assert result.metrics.counter("fabric.trials_crashed").value == 1


class TestPoisonTrial:
    """One trial that always kills its worker costs itself, not its
    queue-mates — under either entry point to the dispatcher."""

    @pytest.mark.parametrize("engine", ["run_fabric", "run_supervised"])
    def test_poison_trial_costs_only_itself(self, engine, factory,
                                            tmp_path):
        budget = 1

        def poisoned(trial):
            # One file per worker pid that ever ran a trial.
            open(tmp_path / str(os.getpid()), "w").close()
            if trial == 0:
                os._exit(9)
            return factory(trial)

        if engine == "run_fabric":
            result = run_fabric(LocalBackend(poisoned), 12, shards=2,
                                retries=budget)
        else:
            result = run_supervised(poisoned, 12, workers=2,
                                    retries=budget)
        poison = result.outcomes[0]
        assert (poison.status, poison.attempts) == ("crashed", budget + 1)
        assert "exit code 9" in poison.error
        assert [(o.status, o.attempts) for o in result.outcomes[1:]] == \
            [("ok", 1)] * 11
        # Two workers, plus at most one replacement per holder lost.
        assert len(list(tmp_path.iterdir())) <= 2 + budget + 1


class TestRobustness:
    """The chaos-hardening contract: wedge detection, speculation,
    degradation — all while staying byte-identical to serial."""

    def test_wedged_worker_reassigned_slow_worker_survives(self, serial):
        # The acceptance scenario: one wedged worker and one slow-but-
        # alive worker in the same sweep. Every trial is paced slower
        # than the progress deadline, so without heartbeats the slow
        # worker would be killed as stalled; with them, only the wedged
        # worker (whose beats stop arriving) is watchdog-killed.
        from repro.fabric.faults import (
            FabricFaultPlan, FaultyBackend, WedgeWorker,
        )
        reference, __ = serial
        paced = replay_smoke(pace=0.6, **KW)
        backend = FaultyBackend(LocalBackend(paced), FabricFaultPlan(
            [WedgeWorker(shard=0, after_outcomes=1)]))
        result = run_fabric(backend, TRIALS, shards=2, retries=2,
                            heartbeat=0.1, progress_deadline=0.45,
                            capture_digest=True)
        assert backend.injected.get("workers_wedged", 0) == 1
        metrics = result.metrics
        # Exactly one kill — the wedged worker; the slow one survived.
        assert metrics.counter("fabric.watchdog_kills").value == 1
        assert metrics.counter("fabric.worker_crashes").value == 1
        assert metrics.counter("fabric.heartbeats").value > 0
        assert_identical(result, reference)

    def test_speculation_recovers_a_straggler(self, serial, tmp_path):
        # A wedged shard is an infinite straggler: the idle worker
        # duplicates its unfinished trials and the first outcome wins —
        # no watchdog needed, journal bytes still canonical.
        from repro.fabric.faults import (
            FabricFaultPlan, FaultyBackend, WedgeWorker,
        )
        reference, reference_bytes = serial
        factory = replay_smoke(**KW)
        backend = FaultyBackend(LocalBackend(factory), FabricFaultPlan(
            [WedgeWorker(shard=0, after_outcomes=1)]))
        journal = tmp_path / "journal.jsonl"
        result = run_fabric(backend, TRIALS, shards=2, speculate=True,
                            heartbeat=0.2, journal=str(journal),
                            capture_digest=True)
        metrics = result.metrics
        assert metrics.counter("fabric.speculative_trials").value >= 1
        assert metrics.counter("fabric.speculative_wins").value >= 1
        assert_identical(result, reference)
        # First-outcome-wins journaling: no duplicates, canonical bytes.
        assert journal.read_bytes() == reference_bytes

    def test_unspawnable_slot_degrades_to_fewer_shards(self, factory,
                                                        serial):
        from repro.fabric.faults import (
            FabricFaultPlan, FaultyBackend, SpawnFault,
        )
        reference, __ = serial
        backend = FaultyBackend(LocalBackend(factory), FabricFaultPlan(
            [SpawnFault(shard=1, fail_first=99)]))
        result = run_fabric(backend, TRIALS, shards=2, spawn_retries=1,
                            capture_digest=True)
        # Worker 1 never spawned: its slot was given up and the one
        # live worker pulled every trial off the shared queue.
        metrics = result.metrics
        assert metrics.counter("fabric.spawn_retries").value == 1
        assert metrics.counter("fabric.spawn_failures").value == 1
        assert metrics.counter("fabric.workers_spawned").value == 1
        assert_identical(result, reference)

    def test_inflight_trials_reassigned_after_instant_kill(self, serial):
        # Regression pin: a worker dying *between dispatch and its
        # first outcome* forfeits the trial it held exactly once — no
        # loss, no double-run.
        reference, __ = serial
        paced = replay_smoke(pace=0.3, **KW)
        backend = _KillFirstWorker(paced, after=0.0)
        result = run_fabric(backend, TRIALS, shards=2, retries=2,
                            capture_digest=True)
        assert backend.killed
        assert_identical(result, reference)

    def test_reassignment_skips_trials_that_already_landed(self, serial):
        # Regression pin: when a worker is lost while the trial it
        # holds already has an outcome (here: delivered speculatively
        # by its peer), no replacement worker is spawned for it.
        from repro.fabric.faults import (
            FabricFaultPlan, FaultyBackend, WedgeWorker,
        )
        reference, __ = serial
        factory = replay_smoke(**KW)
        backend = FaultyBackend(LocalBackend(factory), FabricFaultPlan(
            [WedgeWorker(shard=0, after_outcomes=0)]))
        result = run_fabric(backend, TRIALS, shards=2, speculate=True,
                            heartbeat=0.1, progress_deadline=1.0,
                            retries=2, capture_digest=True)
        assert_identical(result, reference)
        # Two initial workers; the wedge's trial landed speculatively,
        # so its watchdog kill spawned nothing new.
        assert result.metrics.counter("fabric.workers_spawned").value == 2

    def test_io_deadline_must_exceed_heartbeat(self, factory):
        backend = LocalBackend(factory)
        with pytest.raises(ValueError, match="io_deadline"):
            run_fabric(backend, 1, heartbeat=1.0, io_deadline=0.5)
        with pytest.raises(ValueError, match="heartbeat"):
            run_fabric(backend, 1, heartbeat=0.0)
        with pytest.raises(ValueError, match="spawn_retries"):
            run_fabric(backend, 1, spawn_retries=-1)

    def test_io_deadline_bounded_run_stays_identical(self, factory,
                                                     serial):
        reference, __ = serial
        result = run_fabric(LocalBackend(factory), TRIALS, shards=2,
                            heartbeat=0.2, io_deadline=30.0,
                            capture_digest=True)
        assert_identical(result, reference)
        assert result.metrics.counter("fabric.heartbeats").value >= 0


class TestJournalIntegration:
    def test_full_journal_replays_without_workers(self, factory, serial,
                                                  tmp_path):
        reference, reference_bytes = serial
        journal = tmp_path / "journal.jsonl"
        journal.write_bytes(reference_bytes)
        result = run_fabric(LocalBackend(factory), TRIALS, shards=2,
                            journal=str(journal), capture_digest=True)
        assert_identical(result, reference)
        assert all(o.from_journal for o in result.outcomes)
        assert result.metrics.counter("fabric.workers_spawned").value == 0
        assert (result.metrics.counter("fabric.trials_from_journal").value
                == TRIALS)

    def test_partial_journal_resumes_byte_identical(self, factory, serial,
                                                    tmp_path):
        reference, reference_bytes = serial
        # Seed the journal with only the first half of the serial run.
        partial = TrialJournal(tmp_path / "journal.jsonl")
        for outcome in reference.outcomes[: TRIALS // 2]:
            partial.append(
                outcome.trial,
                {"status": outcome.status, "attempts": outcome.attempts,
                 "result": outcome.result},
                digest=outcome.digest,
            )
        partial.close()
        result = run_fabric(LocalBackend(factory), TRIALS, shards=2,
                            journal=str(tmp_path / "journal.jsonl"),
                            capture_digest=True)
        assert_identical(result, reference)
        assert sum(o.from_journal for o in result.outcomes) == TRIALS // 2
        assert (tmp_path / "journal.jsonl").read_bytes() == reference_bytes

    def test_corrupt_journal_records_dropped_and_rerun(self, factory,
                                                       serial, tmp_path):
        # Satellite contract: a resume over a damaged journal drops the
        # corrupt records (re-running their trials), counts them as
        # fabric.journal_records_dropped, and still converges to the
        # canonical bytes.
        reference, reference_bytes = serial
        journal = tmp_path / "journal.jsonl"
        lines = reference_bytes.splitlines(keepends=True)
        journal.write_bytes(
            lines[0] + b'{"this is not a journal record\n'
            + b"".join(lines[2:4]))
        result = run_fabric(LocalBackend(factory), TRIALS, shards=2,
                            journal=str(journal), capture_digest=True)
        metrics = result.metrics
        assert metrics.counter("fabric.journal_records_dropped").value >= 1
        assert metrics.counter("fabric.trials_from_journal").value >= 1
        assert_identical(result, reference)
        assert journal.read_bytes() == reference_bytes

    def test_workers_leave_no_sidecar_journals(self, factory, serial,
                                               tmp_path):
        # The coordinator journals every outcome it receives; workers
        # write nothing beside it.
        reference, reference_bytes = serial
        journal = tmp_path / "journal.jsonl"
        result = run_fabric(LocalBackend(factory), TRIALS, shards=2,
                            journal=str(journal), capture_digest=True)
        assert_identical(result, reference)
        assert journal.read_bytes() == reference_bytes
        assert sorted(os.listdir(tmp_path)) == ["journal.jsonl"]

    def test_leftover_sidecar_is_not_read_on_resume(self, factory, serial,
                                                    tmp_path):
        reference, reference_bytes = serial
        # A worker sidecar an older coordinator left behind is not part
        # of the journal: its trial re-runs, to the same bytes.
        sidecar = TrialJournal(tmp_path / "journal.jsonl.shard0")
        first = reference.outcomes[0]
        sidecar.append(
            first.trial,
            {"status": first.status, "attempts": first.attempts,
             "result": first.result},
            digest=first.digest,
        )
        sidecar.close()
        result = run_fabric(LocalBackend(factory), TRIALS, shards=2,
                            journal=str(tmp_path / "journal.jsonl"),
                            capture_digest=True)
        assert_identical(result, reference)
        assert not any(o.from_journal for o in result.outcomes)
        assert (tmp_path / "journal.jsonl").read_bytes() == reference_bytes
