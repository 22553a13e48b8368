"""Tests for supervised sweeps: watchdog, retry, quarantine, resume."""

import os
import signal
import time

import pytest

from repro.browser import Browser
from repro.core import HostMachine, ShellStack
from repro.corpus import generate_site
from repro.errors import ReproError
from repro.measure.journal import TrialJournal, run_key
from repro.measure.parallel import fork_available
from repro.measure.runner import run_page_loads
from repro.measure.supervise import (
    OUTCOME_STATES,
    SweepResult,
    run_supervised,
)
from repro.sim import Simulator
from repro.testing import pids_alive, wait_for_journal_trials

needs_fork = pytest.mark.skipif(
    not fork_available(), reason="platform lacks the fork start method"
)


def _make_factory(pace: float = 0.0, pid_dir=None):
    """A real page-load factory over a small generated site.

    ``pace`` adds wall-clock seconds per trial so kill-mid-sweep tests
    have a window to interrupt; zero for fast tests. With ``pid_dir``,
    every attempt appends the pid it runs in to ``<pid_dir>/<trial>``
    (read back with :func:`_attempt_pids`).
    """
    site = generate_site("supervised.com", seed=3, n_origins=2, scale=0.3)
    store = site.to_recorded_site()

    def factory(trial):
        _log_pid(pid_dir, trial)
        if pace:
            time.sleep(pace)
        sim = Simulator(seed=trial)
        machine = HostMachine(sim)
        stack = ShellStack(machine)
        stack.add_replay(store)
        browser = Browser(sim, stack.transport, stack.resolver_endpoint,
                          machine=machine)
        return sim, browser.load(site.page)

    return factory


def _log_pid(pid_dir, trial):
    if pid_dir is not None:
        with open(os.path.join(pid_dir, str(trial)), "a") as fh:
            fh.write(f"{os.getpid()}\n")


def _attempt_pids(pid_dir):
    """trial -> the pid of each of its attempts, in attempt order."""
    pids = {}
    for name in os.listdir(pid_dir):
        with open(os.path.join(pid_dir, name)) as fh:
            pids[int(name)] = [int(line) for line in fh]
    return pids


def _all_pids(pid_dir):
    return {pid for pids in _attempt_pids(pid_dir).values() for pid in pids}


def _flaky_factory(marker_dir, fail_with, only=None, pid_dir=None):
    """Fails each trial's first attempt, succeeds on retry.

    ``fail_with="error"`` raises ReproError (a *reported* failure,
    retried inside the worker); ``"crash"`` kills the worker process
    outright and ``"stall"`` blocks past any deadline (a *lost holder*:
    the trial goes back on the queue). ``only`` restricts the failures
    to those trials.
    """
    inner = _make_factory()

    def factory(trial):
        _log_pid(pid_dir, trial)
        marker = os.path.join(marker_dir, f"attempted-{trial}")
        if only is not None and trial not in only:
            return inner(trial)
        if not os.path.exists(marker):
            with open(marker, "w") as fh:
                fh.write("x")
            if fail_with == "error":
                raise ReproError(f"trial {trial}: injected first-attempt "
                                 f"failure")
            if fail_with == "crash":
                os._exit(17)
            if fail_with == "stall":
                time.sleep(3600)
        return inner(trial)

    return factory


def _always_stalling_factory():
    def factory(trial):
        time.sleep(3600)

    return factory


class TestTaxonomy:
    def test_all_ok(self):
        result = run_supervised(_make_factory(), trials=3, workers=1)
        assert isinstance(result, SweepResult)
        assert result.complete
        assert result.counts() == {
            "ok": 3, "retried": 0, "quarantined": 0, "crashed": 0,
        }
        assert [o.trial for o in result.outcomes] == [0, 1, 2]
        assert len(result.sample.values) == 3
        assert all(r is not None for r in result.results)

    def test_outcome_states_constant(self):
        assert OUTCOME_STATES == ("ok", "retried", "quarantined", "crashed")

    def test_matches_unsupervised_sample(self):
        factory = _make_factory()
        supervised = run_supervised(factory, trials=3, workers=1)
        plain = run_page_loads(factory, trials=3)
        assert list(supervised.sample.values) == list(plain.sample.values)

    def test_to_dict_shape(self):
        result = run_supervised(_make_factory(), trials=2, workers=1)
        data = result.to_dict()
        assert data["trials"] == 2
        assert data["complete"] is True
        assert data["losses"] == []

    def test_input_validation(self):
        with pytest.raises(ValueError):
            run_supervised(_make_factory(), trials=0)
        with pytest.raises(ValueError):
            run_supervised(_make_factory(), trials=1, retries=-1)
        with pytest.raises(ValueError):
            run_supervised(_make_factory(), trials=1, deadline=0)


class TestRetryAndQuarantine:
    def test_serial_retry_then_success(self, tmp_path):
        factory = _flaky_factory(str(tmp_path), fail_with="error")
        result = run_supervised(factory, trials=2, workers=1, retries=1)
        assert result.complete
        assert result.counts()["retried"] == 2
        assert all(o.attempts == 2 for o in result.outcomes)

    def test_serial_quarantined_once_budget_spent(self, tmp_path):
        def factory(trial):
            raise ReproError(f"trial {trial}: always broken")

        result = run_supervised(factory, trials=2, workers=1, retries=1)
        assert not result.complete
        assert result.counts()["quarantined"] == 2
        outcome = result.outcomes[0]
        assert outcome.attempts == 2
        assert "always broken" in outcome.error
        assert result.results == [None, None]
        with pytest.raises(ReproError, match="no successful trials"):
            result.sample

    @needs_fork
    def test_pool_retry_after_crash(self, tmp_path):
        # A lost holder is not an attempt: the trial is run again and
        # its outcome records only its own (clean) history.
        factory = _flaky_factory(str(tmp_path), fail_with="crash")
        result = run_supervised(factory, trials=2, workers=2, retries=1)
        assert result.complete
        assert [(o.status, o.attempts) for o in result.outcomes] == \
            [("ok", 1)] * 2

    @needs_fork
    def test_pool_crash_taxonomy_when_budget_exhausted(self):
        def factory(trial):
            os._exit(23)

        result = run_supervised(factory, trials=2, workers=2, retries=1)
        assert result.counts()["crashed"] == 2
        for outcome in result.outcomes:
            assert outcome.attempts == 2  # holders lost: retries + 1
            assert "died without reporting" in outcome.error
            assert "exit code 23" in outcome.error


class TestWatchdog:
    @needs_fork
    def test_stalled_trial_killed_requeued_crashed(self):
        # A watchdog kill is a lost holder, like any other worker
        # death: requeued ``retries`` times, then ``crashed``.
        started = time.monotonic()
        result = run_supervised(
            _always_stalling_factory(), trials=1, workers=2,
            deadline=0.3, retries=1,
        )
        elapsed = time.monotonic() - started
        assert result.counts()["crashed"] == 1
        outcome = result.outcomes[0]
        assert outcome.attempts == 2
        assert "wall-clock deadline" in outcome.error
        assert elapsed < 30  # two 0.3s deadlines, not an hour of sleep

    @needs_fork
    def test_stalled_first_attempt_recovers(self, tmp_path):
        factory = _flaky_factory(str(tmp_path), fail_with="stall")
        result = run_supervised(factory, trials=1, workers=2,
                                deadline=1.0, retries=1)
        assert result.complete
        assert result.outcomes[0].status == "ok"

    @needs_fork
    def test_healthy_sweep_unaffected_by_deadline(self):
        result = run_supervised(_make_factory(), trials=2, workers=2,
                                deadline=120.0)
        assert result.complete


class TestUnpicklableResults:
    @needs_fork
    def test_clear_error_not_pool_crash(self):
        def factory(trial):
            from repro.sim import Simulator

            sim = Simulator(seed=trial)

            class FakeLoad:
                complete = True
                resources_failed = 0
                errors = ()
                page_load_time = 0.0
                on_complete = staticmethod(lambda *a, **k: None)
                fn = lambda self: None  # noqa: E731 - unpicklable member

            return sim, FakeLoad()

        result = run_supervised(factory, trials=1, workers=2, retries=0)
        assert result.counts()["quarantined"] == 1
        assert "unpicklable" in result.outcomes[0].error


def _dirs(tmp_path):
    markers, pids = tmp_path / "markers", tmp_path / "pids"
    markers.mkdir()
    pids.mkdir()
    return str(markers), str(pids)


def _unpicklable_on(trials):
    """A page-load factory whose result cannot be pickled on ``trials``."""
    def decorate(inner):
        def factory(trial):
            sim, load = inner(trial)
            if trial in trials:
                load.unpicklable = lambda: None
            return sim, load

        return factory

    return decorate


@needs_fork
class TestWarmPool:
    """The dispatcher forks ``workers`` times, not ``trials`` times, and
    loses exactly the one trial a dead worker held."""

    def test_clean_sweep_forks_once_per_worker(self, tmp_path):
        __, pids = _dirs(tmp_path)
        result = run_supervised(_make_factory(pid_dir=pids), trials=8,
                                workers=2)
        assert result.counts()["ok"] == 8
        assert len(_all_pids(pids)) == 2
        assert os.getpid() not in _all_pids(pids)
        assert not pids_alive(_all_pids(pids))

    def test_more_workers_than_trials_forks_once_per_trial(self, tmp_path):
        __, pids = _dirs(tmp_path)
        result = run_supervised(_make_factory(pid_dir=pids), trials=2,
                                workers=5)
        assert result.complete
        assert len(_all_pids(pids)) == 2

    @pytest.mark.parametrize("fail_with,deadline",
                             [("crash", None), ("stall", 1.0)])
    def test_lost_worker_costs_one_attempt_of_one_trial(
            self, tmp_path, fail_with, deadline):
        markers, pids = _dirs(tmp_path)
        factory = _flaky_factory(markers, fail_with, only={0}, pid_dir=pids)
        result = run_supervised(factory, trials=8, workers=2, retries=1,
                                deadline=deadline)
        assert result.complete
        assert [(o.status, o.attempts) for o in result.outcomes] == \
            [("ok", 1)] * 8
        attempts = _attempt_pids(pids)
        lost, retry = attempts[0]
        assert retry != lost
        assert all(trial_pids != [lost] for trial, trial_pids
                   in attempts.items() if trial != 0)
        # One replacement fork for the one lost worker.
        assert len(_all_pids(pids)) == 3

    @pytest.mark.parametrize("failure", ["error", "unpicklable"])
    def test_reported_failure_keeps_the_worker(self, tmp_path, failure):
        markers, pids = _dirs(tmp_path)
        if failure == "error":
            factory = _flaky_factory(markers, "error", only={0},
                                     pid_dir=pids)
        else:
            factory = _unpicklable_on({0})(_make_factory(pid_dir=pids))
        result = run_supervised(factory, trials=6, workers=2, retries=1)
        # An error is retried in place; an unpicklable result is
        # deterministic, so it is reported once, not re-run.
        assert (result.outcomes[0].status, result.outcomes[0].attempts) == \
            (("retried", 2) if failure == "error" else ("quarantined", 1))
        assert all(o.status == "ok" for o in result.outcomes[1:])
        assert len(_all_pids(pids)) == 2

    def test_deadline_is_per_attempt_not_per_worker(self, tmp_path):
        __, pids = _dirs(tmp_path)
        deadline = 0.5
        started = time.monotonic()
        result = run_supervised(_make_factory(pace=0.15, pid_dir=pids),
                                trials=70, workers=2, deadline=deadline)
        elapsed = time.monotonic() - started
        assert elapsed > 10 * deadline  # both workers outlived it 10x over
        assert result.counts()["ok"] == 70
        assert len(_all_pids(pids)) == 2

    def test_slow_parent_is_not_mistaken_for_silent_workers(self, tmp_path):
        # The parent spends longer than the deadline inside every journal
        # append, so each worker's next outcome is already queued, and
        # older than the deadline, when the loop comes back. Unread
        # evidence of life outranks the clock: nobody is killed.
        __, pids = _dirs(tmp_path)

        class SlowDisk(TrialJournal):
            def append(self, trial, result, digest=None):
                time.sleep(0.5)
                super().append(trial, result, digest=digest)

        journal = SlowDisk(str(tmp_path / "sweep.jsonl"), key="k")
        result = run_supervised(_make_factory(pid_dir=pids), trials=6,
                                workers=2, deadline=0.3, journal=journal)
        assert [(o.status, o.attempts) for o in result.outcomes] == \
            [("ok", 1)] * 6
        assert len(_all_pids(pids)) == 2

    def test_next_trial_dispatched_before_previous_is_journaled(
            self, tmp_path):
        __, pids = _dirs(tmp_path)
        trials, workers = 6, 2

        class WaitingJournal(TrialJournal):
            """``append`` holds the parent until the trial that takes
            the reporting worker's slot has started (or 5 s pass)."""

            started_at_append = []

            def append(self, trial, result, digest=None):
                want = min(trials, len(self.started_at_append) + workers + 1)
                deadline = time.monotonic() + 5.0
                while (len(os.listdir(pids)) < want
                       and time.monotonic() < deadline):
                    time.sleep(0.01)
                self.started_at_append.append(len(os.listdir(pids)))
                super().append(trial, result, digest=digest)

        journal = WaitingJournal(str(tmp_path / "sweep.jsonl"), key="k")
        result = run_supervised(_make_factory(pid_dir=pids), trials=trials,
                                workers=workers, journal=journal)
        assert result.complete
        assert journal.started_at_append == [3, 4, 5, 6, 6, 6]


class TestJournalResume:
    def test_journal_replay_skips_completed(self, tmp_path):
        path = str(tmp_path / "sweep.jsonl")
        factory = _make_factory()
        first = run_supervised(factory, trials=3, workers=1, journal=path,
                               run_key="k", capture_digest=True)
        assert first.complete and first.digest is not None
        # Second run replays everything from the journal.
        second = run_supervised(factory, trials=3, workers=1, journal=path,
                                run_key="k", capture_digest=True)
        assert all(o.from_journal for o in second.outcomes)
        assert second.to_dict()["resumed_trials"] == 3
        assert list(second.sample.values) == list(first.sample.values)
        assert second.digest == first.digest

    def test_partial_journal_runs_only_missing(self, tmp_path):
        path = str(tmp_path / "sweep.jsonl")
        factory = _make_factory()
        reference = run_supervised(factory, trials=4, workers=1,
                                   capture_digest=True)
        # Journal only trials 0 and 2, as a killed sweep would have.
        with TrialJournal(path, key="k") as journal:
            for outcome in (reference.outcomes[0], reference.outcomes[2]):
                journal.append(
                    outcome.trial,
                    {"status": outcome.status, "attempts": outcome.attempts,
                     "result": outcome.result},
                    digest=outcome.digest,
                )
        resumed = run_supervised(factory, trials=4, workers=1, journal=path,
                                 run_key="k", capture_digest=True)
        assert [o.from_journal for o in resumed.outcomes] == \
            [True, False, True, False]
        assert list(resumed.sample.values) == list(reference.sample.values)
        assert resumed.digest == reference.digest

    def test_bare_record_is_dropped_and_rerun(self, tmp_path):
        # A result journaled bare, not as a sweep outcome (the shape
        # older writers used), is never taken for one: it is counted as
        # dropped and its trial runs again.
        path = str(tmp_path / "sweep.jsonl")
        factory = _make_factory()
        reference = run_supervised(factory, trials=2, workers=1,
                                   capture_digest=True)
        first = reference.outcomes[0]
        with TrialJournal(path, key="k") as journal:
            journal.append(0, first.result, digest=first.digest)
        resumed = run_supervised(factory, trials=2, workers=1, journal=path,
                                 run_key="k", capture_digest=True)
        assert not any(o.from_journal for o in resumed.outcomes)
        assert resumed.metrics.counter(
            "fabric.journal_records_dropped").value == 1
        assert resumed.digest == reference.digest

    @needs_fork
    def test_journal_byte_identical_to_serial_after_lost_worker(
            self, tmp_path):
        # A harness fault leaves no trace in the journal: trial 0's
        # first worker dies, the sweep still journals what a clean
        # serial run does, in canonical trial order.
        serial, pooled = tmp_path / "serial.jsonl", tmp_path / "pool.jsonl"
        run_supervised(_make_factory(), trials=6, workers=1,
                       journal=str(serial), run_key="k", capture_digest=True)
        markers, __ = _dirs(tmp_path)
        result = run_supervised(
            _flaky_factory(markers, "crash", only={0}), trials=6, workers=2,
            journal=str(pooled), run_key="k", capture_digest=True)
        assert result.complete
        assert pooled.read_bytes() == serial.read_bytes()

    def test_wrong_run_key_refused(self, tmp_path):
        path = str(tmp_path / "sweep.jsonl")
        run_supervised(_make_factory(), trials=1, workers=1, journal=path,
                       run_key=run_key(config="a"))
        from repro.errors import JournalError

        with pytest.raises(JournalError):
            run_supervised(_make_factory(), trials=1, workers=1,
                           journal=path, run_key=run_key(config="b"))


    @pytest.mark.parametrize("workers", [
        1, pytest.param(2, marks=needs_fork)])
    def test_journal_closed_and_workers_reaped_when_append_raises(
            self, tmp_path, workers):
        __, pids = _dirs(tmp_path)

        class FullDisk(TrialJournal):
            def append(self, trial, result, digest=None):
                self._open()
                raise OSError("no space left on device")

        journal = FullDisk(str(tmp_path / "sweep.jsonl"), key="k")
        with pytest.raises(OSError, match="no space left"):
            run_supervised(_make_factory(pace=0.05, pid_dir=pids), trials=6,
                           workers=workers, journal=journal)
        assert journal._handle is None
        assert not pids_alive(_all_pids(pids) - {os.getpid()})


def _driver(journal_path, pid_dir):
    """Child-process entry: run a paced, journaled sweep to completion."""
    run_supervised(_make_factory(pace=0.2, pid_dir=pid_dir), trials=6,
                   workers=2, journal=journal_path, run_key="kill-test",
                   capture_digest=True)


class TestKillAndResume:
    """The acceptance scenario: SIGKILL a sweep mid-run, resume, and the
    merged results are byte-identical to an uninterrupted run."""

    @needs_fork
    def test_sigkill_resume_equivalence(self, tmp_path):
        import multiprocessing

        context = multiprocessing.get_context("fork")
        journal_path = str(tmp_path / "sweep.jsonl")
        __, pids = _dirs(tmp_path)
        driver = context.Process(target=_driver, args=(journal_path, pids))
        driver.start()
        # Wait for >= 2 journaled trials, then kill the whole driver.
        if not wait_for_journal_trials(journal_path, wanted=2, timeout=60):
            driver.kill()
            pytest.fail("driver never journaled two trials")
        os.kill(driver.pid, signal.SIGKILL)
        driver.join()
        assert driver.exitcode == -signal.SIGKILL
        # Its workers see EOF on their pipes and exit instead of idling
        # as orphans.
        assert _all_pids(pids)
        assert not pids_alive(_all_pids(pids), within=5.0)

        # Resume from the journal left behind.
        factory = _make_factory()
        journal = TrialJournal(journal_path, key="kill-test")
        assert 2 <= len(journal) < 6
        resumed = run_supervised(factory, trials=6, workers=2,
                                 journal=journal_path, run_key="kill-test",
                                 capture_digest=True)
        assert resumed.complete
        assert any(o.from_journal for o in resumed.outcomes)

        # Uninterrupted reference run: byte-identical sample and digest.
        reference = run_supervised(factory, trials=6, workers=2,
                                   capture_digest=True)
        assert list(resumed.sample.values) == list(reference.sample.values)
        assert resumed.digest == reference.digest
