"""Integration: shell composition, isolation, and reproducibility.

Arbitrary shell nesting works, concurrent instances do not perturb
each other, and identical seeds yield identical measurements. The
isolation and cross-machine claims at study size are registered in
``repro.scenarios.CLAIMS`` (``tests/test_claims.py``).
"""

import pytest

from repro.browser import Browser
from repro.core import HostMachine, ShellStack
from repro.corpus import generate_site
from repro.linkem import DropTailQueue, cellular_trace
from repro.sim import Simulator


SITE = generate_site("compose.com", seed=50, n_origins=8)
STORE = SITE.to_recorded_site()


def load_through(stack_builder, seed=0, page=None):
    sim = Simulator(seed=seed)
    machine = HostMachine(sim)
    stack = ShellStack(machine)
    stack_builder(stack)
    browser = Browser(sim, stack.transport, stack.resolver_endpoint,
                      machine=machine)
    result = browser.load(page if page is not None else SITE.page)
    completed = sim.run_until(lambda: result.complete, timeout=600)
    assert completed and result.resources_failed == 0, result.errors[:3]
    return result


class TestComposition:
    def test_replay_link_delay_full_stack(self):
        result = load_through(lambda s: (
            s.add_replay(STORE), s.add_link(14, 14), s.add_delay(0.040)))
        assert result.page_load_time > 0.3  # delay-dominated

    def test_order_of_link_and_delay_roughly_commutes(self):
        a = load_through(lambda s: (
            s.add_replay(STORE), s.add_link(14, 14), s.add_delay(0.040)))
        b = load_through(lambda s: (
            s.add_replay(STORE), s.add_delay(0.040), s.add_link(14, 14)))
        assert a.page_load_time == pytest.approx(b.page_load_time, rel=0.15)

    def test_deep_nesting(self):
        # Five stacked shells, like an elaborate mm-* pipeline.
        result = load_through(lambda s: (
            s.add_replay(STORE),
            s.add_delay(0.010),
            s.add_link(50, 50),
            s.add_delay(0.010),
            s.add_link(25, 25),
        ))
        assert result.resources_loaded == SITE.page.resource_count

    def test_bandwidth_ordering(self):
        slow = load_through(lambda s: (
            s.add_replay(STORE), s.add_link(1, 1), s.add_delay(0.030)))
        fast = load_through(lambda s: (
            s.add_replay(STORE), s.add_link(25, 25), s.add_delay(0.030)))
        assert slow.page_load_time > 3 * fast.page_load_time

    def test_delay_ordering(self):
        near = load_through(lambda s: (
            s.add_replay(STORE), s.add_delay(0.030)))
        far = load_through(lambda s: (
            s.add_replay(STORE), s.add_delay(0.300)))
        assert far.page_load_time > 2 * near.page_load_time

    def test_cellular_trace_link(self):
        import random
        trace = cellular_trace(random.Random(1), duration_ms=60_000,
                               mean_mbps=6.0)
        result = load_through(lambda s: (
            s.add_replay(STORE),
            s.add_link(uplink=trace, downlink=trace),
            s.add_delay(0.050),
        ))
        assert result.resources_loaded == SITE.page.resource_count

    def test_bounded_queue_with_loss_still_completes(self):
        result = load_through(lambda s: (
            s.add_replay(STORE),
            s.add_link(5, 5,
                       downlink_queue=DropTailQueue(max_packets=30),
                       uplink_queue=DropTailQueue(max_packets=30)),
            s.add_delay(0.040),
        ))
        assert result.resources_loaded == SITE.page.resource_count


class TestIsolation:
    def test_concurrent_stacks_do_not_interfere(self):
        # Two full shell stacks in ONE simulation, loading concurrently,
        # must each produce the same PLT as when run alone.
        def build(sim, tag):
            machine = HostMachine(sim, name=f"host-{tag}")
            stack = ShellStack(machine)
            stack.add_replay(STORE)
            stack.add_link(14, 14)
            stack.add_delay(0.040)
            browser = Browser(sim, stack.transport, stack.resolver_endpoint,
                              machine=machine)
            return browser

        # Solo run.
        sim_solo = Simulator(seed=0)
        solo_result = build(sim_solo, "a").load(SITE.page)
        sim_solo.run_until(lambda: solo_result.complete, timeout=600)

        # Concurrent run: same seed, two stacks, loads overlapping in time.
        sim_pair = Simulator(seed=0)
        browser_a = build(sim_pair, "a")
        browser_b = build(sim_pair, "b")
        result_a = browser_a.load(SITE.page)
        result_b = browser_b.load(SITE.page)
        sim_pair.run_until(
            lambda: result_a.complete and result_b.complete, timeout=600)

        assert result_a.page_load_time == pytest.approx(
            solo_result.page_load_time)

    def test_host_traffic_does_not_affect_shell(self):
        # Heavy traffic in the host namespace while a shell measurement
        # runs: the measurement must be bit-identical to a quiet run.
        def run(with_noise):
            sim = Simulator(seed=0)
            machine = HostMachine(sim)
            stack = ShellStack(machine)
            stack.add_replay(STORE)
            stack.add_delay(0.020)
            browser = Browser(sim, stack.transport, stack.resolver_endpoint,
                              machine=machine)
            if with_noise:
                # A bulk transfer between two other namespaces.
                from repro.testing import TwoHostWorld
                noise_world = TwoHostWorld(sim=sim)
                def on_conn(conn):
                    conn.on_data = lambda p: conn.send_virtual(5_000_000)
                noise_world.server.listen(None, 80, on_conn)
                noisy = noise_world.client.connect(noise_world.server_endpoint)
                noisy.on_established = lambda: noisy.send(b"G")
            result = browser.load(SITE.page)
            sim.run_until(lambda: result.complete, timeout=600)
            return result.page_load_time

        assert run(False) == run(True)


class TestReproducibility:
    def test_same_seed_same_plt(self):
        a = load_through(lambda s: (
            s.add_replay(STORE), s.add_link(14, 14), s.add_delay(0.040)),
            seed=9)
        b = load_through(lambda s: (
            s.add_replay(STORE), s.add_link(14, 14), s.add_delay(0.040)),
            seed=9)
        assert a.page_load_time == b.page_load_time
