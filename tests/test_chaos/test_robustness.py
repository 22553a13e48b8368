"""Robustness measurement: failure taxonomy + chaos trial classification."""

import pytest

from repro.browser import Browser
from repro.chaos import (
    DnsFaultClause,
    FaultPlan,
    OutageClause,
    ServerFaultClause,
)
from repro.core import HostMachine, ShellStack
from repro.corpus import generate_site
from repro.errors import (
    ChaosError,
    ConnectionClosed,
    ConnectionReset,
    DnsError,
    ReproError,
    ResetMidTransfer,
    TimeoutError_,
    TruncatedBody,
)
from repro.measure import (
    FAILURE_CLASSES,
    TrialJournal,
    classify_error,
    run_chaos_trials,
)
from repro.measure.robustness import classify_result, run_chaos_trial
from repro.sim.simulator import Simulator


def make_factory(plan, name="rob.example"):
    def factory(trial):
        site = generate_site(name, seed=trial, n_origins=3, scale=0.3)
        sim = Simulator(seed=trial)
        machine = HostMachine(sim)
        stack = ShellStack(machine)
        stack.add_replay(site.to_recorded_site())
        stack.add_chaos(plan)
        stack.add_delay(0.020)
        browser = Browser(sim, stack.transport, stack.resolver_endpoint,
                          machine=machine)
        result = browser.load(site.page)
        return sim, result

    return factory


class TestClassifyError:
    @pytest.mark.parametrize("exc,expected", [
        (TruncatedBody("short", url="u", bytes_received=3), "truncated"),
        (ResetMidTransfer("rst", url="u", bytes_received=3), "reset"),
        (ConnectionReset("rst"), "reset"),
        (DnsError("SERVFAIL for 'x'"), "dns"),
        (TimeoutError_("timer fired"), "timeout"),
        (ConnectionClosed("gone"), "closed"),
        (ChaosError("misc"), "other"),
        (ValueError("misc"), "other"),
    ])
    def test_mapping(self, exc, expected):
        assert classify_error(exc) == expected

    def test_every_class_is_in_taxonomy(self):
        assert set(FAILURE_CLASSES) == {
            "reset", "truncated", "dns", "timeout", "closed", "other"}


class TestClassifyResult:
    def test_unclassified_failures_count_as_other(self):
        class FakeResult:
            complete = True
            resources_failed = 2
            resources_loaded = 5
            page_load_time = 1.0
            failures = [("http://a/x", TruncatedBody("t", url="http://a/x",
                                                     bytes_received=1))]

        outcome = classify_result(0, FakeResult())
        assert outcome.outcome == "degraded"
        assert outcome.failures == {"truncated": 1, "other": 1}

    def test_incomplete_result_is_hung(self):
        class FakeResult:
            complete = False
            resources_failed = 0
            resources_loaded = 1
            page_load_time = None
            failures = []

        outcome = classify_result(3, FakeResult())
        assert outcome.outcome == "hung"
        assert outcome.plt is None
        assert outcome.trial == 3


class TestRunChaosTrials:
    def test_clean_plan_all_success(self):
        plan = FaultPlan(clauses=(
            ServerFaultClause(kind="stall", skip=10_000, stall=0.1),))
        summary = run_chaos_trials(make_factory(plan), trials=2)
        assert summary.trials == 2
        assert summary.count("success") == 2
        assert summary.success_rate == 1.0
        assert summary.completion_rate == 1.0
        assert summary.plt is not None and summary.plt.mean > 0

    def test_dns_fault_degrades_without_raising(self):
        plan = FaultPlan(clauses=(
            DnsFaultClause(kind="servfail", count=None,
                           name_suffix="cdn0.rob.example"),))
        summary = run_chaos_trials(make_factory(plan), trials=2)
        assert summary.count("degraded") == 2
        assert summary.failure_counts["dns"] > 0
        assert summary.success_rate == 0.0
        assert summary.completion_rate == 1.0

    def test_permanent_outage_hangs(self):
        plan = FaultPlan(clauses=(
            OutageClause(direction="downlink", start=0.0, duration=10_000.0),))
        summary = run_chaos_trials(make_factory(plan), trials=1, timeout=5.0)
        assert summary.count("hung") == 1
        assert summary.completion_rate == 0.0
        assert summary.plt is None

    def test_to_dict_shape(self):
        plan = FaultPlan(clauses=(
            DnsFaultClause(kind="servfail", count=None,
                           name_suffix="cdn0.rob.example"),))
        data = run_chaos_trials(make_factory(plan), trials=1).to_dict()
        assert data["trials"] == 1
        assert set(data["outcomes"]) == {"success", "degraded", "hung"}
        assert set(data["failure_counts"]) == set(FAILURE_CLASSES)
        assert data["plt"] is not None
        assert {"mean", "p50", "p95", "n"} <= set(data["plt"])

    def test_trial_outcomes_carry_result(self):
        plan = FaultPlan(clauses=(
            ServerFaultClause(kind="stall", skip=10_000, stall=0.1),))
        outcome = run_chaos_trial(make_factory(plan), trial=0)
        assert outcome.result.complete
        assert outcome.resources_loaded > 0

    def test_zero_trials_rejected(self):
        with pytest.raises(ValueError):
            run_chaos_trials(make_factory(FaultPlan()), trials=0)


class TestChaosResume:
    """A journaled robustness sweep checkpoints through the one sweep."""

    PLAN = FaultPlan(clauses=(
        DnsFaultClause(kind="servfail", count=None,
                       name_suffix="cdn0.rob.example"),))

    def test_cut_journal_resumes_to_the_uninterrupted_run(self, tmp_path):
        factory = make_factory(self.PLAN)
        path = tmp_path / "chaos.jsonl"
        full = run_chaos_trials(factory, trials=4, journal=str(path),
                                run_key="chaos")
        # What a kill after trial 1 leaves: the header and two records.
        lines = path.read_bytes().splitlines(keepends=True)
        assert len(lines) == 5
        path.write_bytes(b"".join(lines[:3]))
        ran = []

        def counting(trial):
            ran.append(trial)
            return factory(trial)

        resumed = run_chaos_trials(counting, trials=4, journal=str(path),
                                   run_key="chaos")
        assert ran == [2, 3]
        assert resumed.to_dict() == full.to_dict()
        # Everything but the live result object, trial by trial.
        assert [o[:-1] for o in resumed.outcomes] == \
            [o[:-1] for o in full.outcomes]

    def test_lost_trial_raises_naming_it(self, tmp_path):
        inner = make_factory(self.PLAN)

        def factory(trial):
            if trial == 1:
                raise ValueError("no world for trial 1")
            return inner(trial)

        path = tmp_path / "chaos.jsonl"
        with pytest.raises(ReproError, match="trial 1: ValueError: no world"):
            run_chaos_trials(factory, trials=3, journal=str(path))
        # The trials that did load stay journaled for a resume.
        assert sorted(TrialJournal(str(path)).completed) == [0, 2]
