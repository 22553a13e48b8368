"""ChaosShell + ShellStack.add_chaos: composition and injector wiring."""

import pytest

from repro.browser import Browser
from repro.chaos import (
    ChaosShell,
    DnsFaultClause,
    FaultPlan,
    GilbertElliottClause,
    OutageClause,
    ServerFaultClause,
)
from repro.core import HostMachine, ShellStack
from repro.corpus import generate_site
from repro.errors import ChaosError, ShellError
from repro.net.pipe import InstantPipe
from repro.sim.simulator import Simulator


def link_plan():
    return FaultPlan(clauses=(
        OutageClause(direction="downlink", start=0.3, duration=0.1),
        GilbertElliottClause(direction="downlink", p_good_bad=0.05,
                             p_bad_good=0.4, loss_bad=0.5),
    ))


def chaos_stack(plan, seed=0):
    site = generate_site("chaos.example", seed=seed, n_origins=3, scale=0.3)
    sim = Simulator(seed=seed)
    machine = HostMachine(sim)
    stack = ShellStack(machine)
    replay = stack.add_replay(site.to_recorded_site())
    shell = stack.add_chaos(plan)
    stack.add_delay(0.020)
    browser = Browser(sim, stack.transport, stack.resolver_endpoint,
                      machine=machine)
    result = browser.load(site.page)
    return sim, stack, replay, shell, result


class TestChaosShell:
    def test_requires_fault_plan(self):
        sim = Simulator(seed=0)
        machine = HostMachine(sim)
        with pytest.raises(ChaosError):
            ChaosShell(sim, machine.namespace, machine.allocator,
                       plan={"clauses": []})

    def test_clauseless_direction_gets_instant_pipe(self):
        sim = Simulator(seed=0)
        machine = HostMachine(sim)
        shell = ChaosShell(sim, machine.namespace, machine.allocator,
                           FaultPlan(clauses=(
                               OutageClause(direction="downlink"),)))
        assert isinstance(shell.uplink_pipe, InstantPipe)
        assert not isinstance(shell.downlink_pipe, InstantPipe)

    def test_load_completes_under_link_faults(self):
        sim, stack, replay, shell, result = chaos_stack(link_plan())
        sim.run_until(lambda: result.complete, timeout=120.0)
        assert result.complete
        assert shell.faults_injected > 0

    def test_server_injector_shared_across_servers(self):
        plan = FaultPlan(clauses=(
            ServerFaultClause(kind="error-burst", skip=0, count=2),))
        sim, stack, replay, shell, result = chaos_stack(plan)
        assert shell.server_injector is not None
        assert len(replay.servers) > 1
        assert all(s.fault_injector is shell.server_injector
                   for s in replay.servers)
        sim.run_until(lambda: result.complete, timeout=120.0)
        assert shell.server_injector.faults_fired == 2

    def test_dns_injector_wired(self):
        plan = FaultPlan(clauses=(
            DnsFaultClause(kind="servfail", skip=0, count=1),))
        sim, stack, replay, shell, result = chaos_stack(plan)
        assert replay.dns.fault_injector is shell.dns_injector
        sim.run_until(lambda: result.complete, timeout=120.0)
        assert replay.dns.faults_injected == 1
        assert result.resources_failed > 0

    def test_server_clauses_without_replay_rejected(self):
        sim = Simulator(seed=0)
        stack = ShellStack(HostMachine(sim))
        with pytest.raises(ShellError):
            stack.add_chaos(FaultPlan(clauses=(ServerFaultClause(),)))

    def test_server_clauses_on_a_mux_replay_rejected(self):
        # Stall, truncate and reset act on an HTTP/1.1 byte stream; on a
        # mux replay they would be silently dropped, so they are refused.
        site = generate_site("mux.example", seed=0, n_origins=2, scale=0.3)
        stack = ShellStack(HostMachine(Simulator(seed=0)))
        stack.add_replay(site.to_recorded_site(), protocol="mux")
        with pytest.raises(ShellError, match="'mux'"):
            stack.add_chaos(FaultPlan(clauses=(ServerFaultClause(),)))
        shell = stack.add_chaos(FaultPlan(clauses=(
            DnsFaultClause(kind="servfail", skip=0, count=1),)
            + link_plan().clauses))
        assert shell.dns_injector is not None
        assert shell.server_injector is None

    def test_link_only_plan_needs_no_replay(self):
        sim = Simulator(seed=0)
        stack = ShellStack(HostMachine(sim))
        shell = stack.add_chaos(link_plan())
        assert shell.server_injector is None
        assert shell.dns_injector is None

    def test_composes_between_link_and_delay(self):
        # The paper's shell-nesting shape:
        # replay > link > chaos > delay > browser.
        site = generate_site("nest.example", seed=2, n_origins=2, scale=0.3)
        sim = Simulator(seed=2)
        machine = HostMachine(sim)
        stack = ShellStack(machine)
        stack.add_replay(site.to_recorded_site())
        stack.add_link(14.0, 14.0)
        stack.add_chaos(link_plan())
        stack.add_delay(0.030)
        browser = Browser(sim, stack.transport, stack.resolver_endpoint,
                          machine=machine)
        result = browser.load(site.page)
        sim.run_until(lambda: result.complete, timeout=120.0)
        assert result.complete
        assert "ChaosShell" in repr(stack)
