"""The failure taxonomy: fetch-error classes and load outcomes."""

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
    ResetMidTransfer,
    TimeoutError_,
    TruncatedBody,
)
from repro.measure import FAILURE_CLASSES, classify_error, classify_result
from repro.sim.simulator import Simulator


def load_under(plan, timeout=900.0, name="rob.example"):
    """One load of a small site through ReplayShell > ChaosShell >
    DelayShell; the (possibly incomplete) result."""
    site = generate_site(name, seed=0, n_origins=3, scale=0.3)
    sim = Simulator(seed=0)
    machine = HostMachine(sim)
    stack = ShellStack(machine)
    stack.add_replay(site.to_recorded_site())
    stack.add_chaos(plan)
    stack.add_delay(0.020)
    browser = Browser(sim, stack.transport, stack.resolver_endpoint,
                      machine=machine)
    result = browser.load(site.page)
    sim.run_until(lambda: result.complete, timeout=timeout)
    return result


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

        assert classify_result(FakeResult()) == \
            ("degraded", {"truncated": 1, "other": 1})

    def test_incomplete_result_is_hung(self):
        class FakeResult:
            complete = False
            resources_failed = 0
            resources_loaded = 1
            page_load_time = None
            failures = []

        assert classify_result(FakeResult()) == ("hung", {})


class TestRunChaosTrials:
    """One live load under each plan, classified."""

    def test_clean_plan_all_success(self):
        plan = FaultPlan(clauses=(
            ServerFaultClause(kind="stall", skip=10_000, stall=0.1),))
        result = load_under(plan)
        assert classify_result(result) == ("success", {})
        assert result.page_load_time > 0

    def test_dns_fault_degrades_without_raising(self):
        plan = FaultPlan(clauses=(
            DnsFaultClause(kind="servfail", count=None,
                           name_suffix="cdn0.rob.example"),))
        outcome, failures = classify_result(load_under(plan))
        assert outcome == "degraded"
        assert failures["dns"] > 0

    def test_permanent_outage_hangs(self):
        plan = FaultPlan(clauses=(
            OutageClause(direction="downlink", start=0.0, duration=10_000.0),))
        outcome, __ = classify_result(load_under(plan, timeout=5.0))
        assert outcome == "hung"
