"""Behavioural tests for the browser engine against a ReplayShell."""

import pytest

from repro.browser import Browser, engine
from repro.browser.html import render_html, scan_references
from repro.browser.resources import PageModel, Resource, Url
from repro.core import HostMachine, ShellStack
from repro.corpus import generate_site
from repro.obs import MetricsRegistry
from repro.sim import Simulator


def replay_world(site, seed=0, single_server=False,
                 with_machine=True, instrument=False):
    sim = Simulator(seed=seed)
    if instrument:
        MetricsRegistry.install(sim)
    machine = HostMachine(sim)
    stack = ShellStack(machine)
    stack.add_replay(site.to_recorded_site(), single_server=single_server)
    browser = Browser(
        sim, stack.transport, stack.resolver_endpoint,
        machine=machine if with_machine else None,
    )
    return sim, browser, stack


class TestPageLoads:
    def test_full_page_loads(self):
        site = generate_site("load.com", seed=10, n_origins=8)
        sim, browser, stack = replay_world(site)
        result = browser.load(site.page)
        assert sim.run_until(lambda: result.complete, timeout=120)
        assert result.resources_loaded == site.page.resource_count
        assert result.resources_failed == 0
        assert result.page_load_time > 0
        assert result.bytes_downloaded >= site.page.total_bytes

    def test_plt_unavailable_before_finish(self):
        site = generate_site("early.com", seed=11, n_origins=3)
        sim, browser, stack = replay_world(site)
        result = browser.load(site.page)
        from repro.errors import BrowserError
        with pytest.raises(BrowserError):
            result.page_load_time

    def test_dns_once_per_hostname(self):
        site = generate_site("dns.com", seed=12, n_origins=6)
        sim, browser, stack = replay_world(site)
        result = browser.load(site.page)
        sim.run_until(lambda: result.complete, timeout=120)
        hosts = {r.url.host for r in site.page.resources()}
        assert result.dns_lookups == len(hosts)

    def test_connection_limit_per_host(self):
        # A page with many same-host images opens at most 6 connections.
        children = [
            Resource(Url.parse(f"http://one.com/i{i}.jpg"), "image", 5000)
            for i in range(30)
        ]
        root = Resource(Url.parse("http://one.com/"), "html", 10_000,
                        children=children)
        page = PageModel(root)
        from repro.corpus.sitegen import SyntheticSite, ip_for_host
        site = SyntheticSite("one.com", page, {"one.com": ip_for_host("one.com")})
        sim, browser, stack = replay_world(site)
        result = browser.load(site.page)
        sim.run_until(lambda: result.complete, timeout=120)
        assert result.connections_opened <= 6

    def test_connection_limit_configurable(self, monkeypatch):
        children = [
            Resource(Url.parse(f"http://one.com/i{i}.jpg"), "image", 5000)
            for i in range(30)
        ]
        root = Resource(Url.parse("http://one.com/"), "html", 10_000,
                        children=children)
        from repro.corpus.sitegen import SyntheticSite, ip_for_host
        site = SyntheticSite("one.com", PageModel(root),
                             {"one.com": ip_for_host("one.com")})
        monkeypatch.setattr(engine, "MAX_CONNECTIONS_PER_ORIGIN", 2)
        sim, browser, stack = replay_world(site)
        result = browser.load(site.page)
        sim.run_until(lambda: result.complete, timeout=240)
        assert result.connections_opened <= 2

    def test_timings_recorded_per_resource(self):
        site = generate_site("timing.com", seed=13, n_origins=4)
        sim, browser, stack = replay_world(site, instrument=True)
        result = browser.load(site.page)
        sim.run_until(lambda: result.complete, timeout=120)
        (waterfall,) = sim.metrics.waterfalls.values()
        assert len(waterfall) == site.page.resource_count
        assert len({entry.url for entry in waterfall}) == len(waterfall)
        for entry in waterfall:
            assert 0 <= entry.discovered <= entry.finished

    def test_dependency_children_load_after_parents(self):
        site = generate_site("deps.com", seed=14, n_origins=5)
        sim, browser, stack = replay_world(site, instrument=True)
        result = browser.load(site.page)
        sim.run_until(lambda: result.complete, timeout=120)
        (waterfall,) = sim.metrics.waterfalls.values()
        discovered = {entry.url: entry.discovered for entry in waterfall}
        root_start = discovered[str(site.page.root.url)]
        for child in site.page.root.children:
            assert discovered[str(child.url)] > root_start

    def test_determinism(self):
        site = generate_site("det.com", seed=15, n_origins=6)

        def run(seed):
            sim, browser, stack = replay_world(site, seed=seed)
            result = browser.load(site.page)
            sim.run_until(lambda: result.complete, timeout=120)
            return result.page_load_time

        assert run(3) == run(3)
        assert run(3) != run(4)

    def test_machine_profile_scales_plt(self):
        site = generate_site("cpu.com", seed=16, n_origins=6)

        def run(cpu_factor):
            from repro.core.machine import MachineProfile
            sim = Simulator(seed=0)
            machine = HostMachine(
                sim, MachineProfile(cpu_factor=cpu_factor, jitter_stddev=0.0))
            stack = ShellStack(machine)
            stack.add_replay(site.to_recorded_site())
            browser = Browser(sim, stack.transport, stack.resolver_endpoint,
                              machine=machine)
            result = browser.load(site.page)
            sim.run_until(lambda: result.complete, timeout=240)
            return result.page_load_time

        assert run(2.0) > 1.5 * run(1.0)

    def test_single_server_opens_fewer_or_equal_connections(self):
        site = generate_site("ss.com", seed=17, n_origins=10)
        sim_m, browser_m, _ = replay_world(site, single_server=False)
        result_m = browser_m.load(site.page)
        sim_m.run_until(lambda: result_m.complete, timeout=240)
        sim_s, browser_s, _ = replay_world(site, single_server=True)
        result_s = browser_s.load(site.page)
        sim_s.run_until(lambda: result_s.complete, timeout=240)
        assert result_s.resources_loaded == result_m.resources_loaded
        assert result_s.resources_failed == 0


class TestFailureHandling:
    def test_missing_resource_fails_not_hangs(self):
        site = generate_site("partial.com", seed=18, n_origins=4)
        # Add an unrecorded resource to the page after recording.
        store = site.to_recorded_site()
        extra = Resource(
            Url.parse(f"http://{site.page.root.url.host}/ghost.js"),
            "js", 1000)
        site.page.root.children.append(extra)
        sim = Simulator(seed=0)
        machine = HostMachine(sim)
        stack = ShellStack(machine)
        stack.add_replay(store)
        browser = Browser(sim, stack.transport, stack.resolver_endpoint,
                          machine=machine)
        result = browser.load(site.page)
        sim.run_until(lambda: result.complete, timeout=120)
        # 404s still complete the load (a 404 is a response, not a failure).
        assert result.complete
        assert result.resources_loaded == site.page.resource_count

    def test_unresolvable_host_fails_resource(self):
        site = generate_site("ghosthost.com", seed=19, n_origins=3)
        store = site.to_recorded_site()
        site.page.root.children.append(Resource(
            Url.parse("http://not-in-dns.example/x.js"), "js", 1000))
        sim = Simulator(seed=0)
        machine = HostMachine(sim)
        stack = ShellStack(machine)
        stack.add_replay(store)
        browser = Browser(sim, stack.transport, stack.resolver_endpoint,
                          machine=machine)
        result = browser.load(site.page)
        sim.run_until(lambda: result.complete, timeout=120)
        assert result.complete
        assert result.resources_failed == 1
        assert "DNS" in result.errors[0]


class TestHtmlScanning:
    def test_render_and_scan_roundtrip(self):
        children = [
            Resource(Url.parse("http://x.com/a.css"), "css", 100),
            Resource(Url.parse("http://cdn.x.com/b.js"), "js", 100),
            Resource(Url.parse("http://cdn.x.com/c.jpg"), "image", 100),
        ]
        html = render_html("test", children)
        # Markup only: a page's weight beyond it is a virtual filler.
        assert len(html) < 400 and b"xxxx" not in html
        refs = scan_references(html)
        assert "http://x.com/a.css" in refs
        assert "http://cdn.x.com/b.js" in refs
        assert "http://cdn.x.com/c.jpg" in refs

    def test_recorded_html_references_subresources(self):
        site = generate_site("scan.com", seed=20, n_origins=5)
        store = site.to_recorded_site()
        html_pair = next(p for p in store.pairs
                         if p.request.uri == "/")
        refs = scan_references(html_pair.response.body.real_prefix)
        non_xhr_children = [
            c for c in site.page.root.children if c.kind != "xhr"
        ]
        assert len(refs) >= len(non_xhr_children)
