"""Tests for the live-web model (per-origin RTTs, public DNS)."""

import pytest

from repro import calibration
from repro.browser import Browser
from repro.core import HostMachine
from repro.corpus import generate_site
from repro.net.address import Endpoint, IPv4Address
from repro.sim import Simulator
from repro.transport.host import TransportHost
from repro.web import Internet


def web_world(site=None, seed=0):
    sim = Simulator(seed=seed)
    internet = Internet(sim)
    if site is not None:
        internet.install_site(site)
    machine = HostMachine(sim)
    internet.attach_machine(machine)
    return sim, internet, machine


class TestTopology:
    def test_public_dns_reachable(self):
        site = generate_site("live.com", seed=1, n_origins=3)
        sim, internet, machine = web_world(site)
        from repro.dns.resolver import StubResolver
        th = TransportHost.ensure(sim, machine.namespace)
        resolver = StubResolver(
            sim, th, machine.namespace.any_local_address(),
            internet.resolver_endpoint,
        )
        got = []
        resolver.resolve("www.live.com", lambda a, e: got.append((a, e)))
        sim.run_until(lambda: bool(got), timeout=10)
        addrs, err = got[0]
        assert err is None
        assert addrs == [site.host_ips["www.live.com"]]

    def test_unknown_host_nxdomain(self):
        sim, internet, machine = web_world(generate_site("live.com", seed=1,
                                                         n_origins=3))
        from repro.dns.resolver import StubResolver
        th = TransportHost.ensure(sim, machine.namespace)
        resolver = StubResolver(
            sim, th, machine.namespace.any_local_address(),
            internet.resolver_endpoint,
        )
        got = []
        resolver.resolve("www.elsewhere.com", lambda a, e: got.append(e))
        sim.run_until(lambda: bool(got), timeout=10)
        assert "NXDOMAIN" in str(got[0])

    def test_origin_rtt_shapes_connect_time(self, monkeypatch):
        monkeypatch.setattr(calibration, "ORIGIN_JITTER_MEAN", 0.0)
        monkeypatch.setattr(calibration, "LAST_MILE_JITTER_MEAN", 0.0)
        sim = Simulator(seed=0)
        internet = Internet(sim)
        near = internet.add_origin("near.com", IPv4Address("23.1.0.1"),
                                   rtt=0.010)
        far = internet.add_origin("far.com", IPv4Address("23.2.0.1"),
                                  rtt=0.200)
        from repro.record.matcher import RequestMatcher
        near.serve(RequestMatcher([]), ports=[80])
        far.serve(RequestMatcher([]), ports=[80])
        machine = HostMachine(sim)
        internet.attach_machine(machine)
        th = TransportHost.ensure(sim, machine.namespace)

        def connect_time(ip):
            conn = th.connect(Endpoint(IPv4Address(ip), 80))
            done = []
            conn.on_established = lambda: done.append(sim.now)
            start = sim.now
            sim.run_until(lambda: bool(done), timeout=10)
            return done[0] - start

        near_time = connect_time("23.1.0.1")
        far_time = connect_time("23.2.0.1")
        assert near_time == pytest.approx(0.012, abs=0.002)
        assert far_time == pytest.approx(0.202, abs=0.002)

    def test_min_rtt_query(self):
        sim = Simulator(seed=0)
        internet = Internet(sim)
        internet.add_origin("a.com", IPv4Address("23.1.0.1"), rtt=0.033)
        assert internet.min_rtt("a.com") == pytest.approx(0.033)
        assert internet.min_rtt("unknown.com") is None

    def test_add_origin_idempotent(self):
        sim = Simulator(seed=0)
        internet = Internet(sim)
        a = internet.add_origin("a.com", IPv4Address("23.1.0.1"), rtt=0.03)
        b = internet.add_origin("a.com", IPv4Address("23.1.0.1"), rtt=0.99)
        assert a is b
        assert internet.min_rtt("a.com") == pytest.approx(0.03)

    def test_default_rtt_mixture(self):
        sim = Simulator(seed=0)
        internet = Internet(sim)
        www = internet.default_rtt("www.site.com")
        cdn = internet.default_rtt("cdn3.site.com")
        third = internet.default_rtt("thirdparty1.tracker5.net")
        assert www == pytest.approx(0.040)
        assert 0.003 <= cdn <= 0.016
        assert 0.015 <= third <= 0.090
        # CDNs sit closer than the main origin (the Figure 3 mechanism).
        assert cdn < www


class TestActualWebPageLoad:
    def test_browser_loads_site_from_live_web(self):
        site = generate_site("liveload.com", seed=2, n_origins=6)
        sim, internet, machine = web_world(site)
        th = TransportHost.ensure(sim, machine.namespace)
        browser = Browser(sim, th, internet.resolver_endpoint,
                          machine=machine)
        result = browser.load(site.page)
        assert sim.run_until(lambda: result.complete, timeout=120)
        assert result.resources_failed == 0
        assert result.resources_loaded == site.page.resource_count
        # Real-web load pays origin RTTs: PLT well above compute floor.
        assert result.page_load_time > 0.2

    def test_jitter_makes_loads_vary(self):
        site = generate_site("jitter.com", seed=3, n_origins=5)

        def run(seed):
            sim, internet, machine = web_world(site, seed=seed)
            th = TransportHost.ensure(sim, machine.namespace)
            browser = Browser(sim, th, internet.resolver_endpoint,
                              machine=machine)
            result = browser.load(site.page)
            sim.run_until(lambda: result.complete, timeout=120)
            return result.page_load_time

        assert run(1) != run(2)
