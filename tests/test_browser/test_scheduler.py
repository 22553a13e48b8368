"""Tests for the browser's resource scheduler (delayable request cap)."""

import pytest

from repro.browser import Browser, engine
from repro.browser.resources import PageModel, Resource, Url
from repro.core import HostMachine, ShellStack
from repro.corpus.sitegen import SyntheticSite, ip_for_host
from repro.sim import Simulator


def image_heavy_site(n_images=48, host="imgs.com", image_hosts=4):
    # Document order: the script sits in the head, before the images —
    # that is what keeps the scheduler's delayable cap engaged while the
    # script is outstanding. Images spread over several CDN hosts so the
    # per-host 6-connection pools would allow more than the delayable cap
    # (i.e. the cap, not the pools, is the binding constraint).
    hosts = [host] + [f"cdn{i}.{host}" for i in range(image_hosts)]
    children = [Resource(Url.parse(f"http://{host}/app.js"), "js", 120_000)]
    children.extend(
        Resource(
            Url.parse(f"http://{hosts[1 + i % image_hosts]}/i{i}.jpg"),
            "image", 20_000)
        for i in range(n_images)
    )
    root = Resource(Url.parse(f"http://{host}/"), "html", 30_000,
                    children=children)
    return SyntheticSite(host, PageModel(root),
                         {h: ip_for_host(h) for h in hosts})


def load(site, seed=0, rate=10):
    sim = Simulator(seed=seed)
    machine = HostMachine(sim)
    stack = ShellStack(machine)
    stack.add_replay(site.to_recorded_site())
    stack.add_link(rate, rate)
    stack.add_delay(0.030)
    browser = Browser(sim, stack.transport, stack.resolver_endpoint,
                      machine=machine)
    result = browser.load(site.page)
    sim.run_until(lambda: result.complete, timeout=600)
    assert result.complete and result.resources_failed == 0
    return result


class TestResourceScheduler:
    def test_all_resources_still_load(self):
        site = image_heavy_site()
        result = load(site)
        assert result.resources_loaded == site.page.resource_count

    def test_cap_tames_image_flood_on_bottleneck(self, monkeypatch):
        # Unthrottled, 48 images burst into the 2 Mbit/s bottleneck at
        # once and bufferbloat the whole load; the cap pipelines them and
        # the page finishes substantially sooner.
        site = image_heavy_site()
        monkeypatch.setattr(engine, "MAX_DELAYABLE_IN_FLIGHT", 10)
        capped = load(site, rate=2)
        monkeypatch.setattr(engine, "MAX_DELAYABLE_IN_FLIGHT", 10_000)
        uncapped = load(site, rate=2)
        assert capped.page_load_time < 0.95 * uncapped.page_load_time

    def test_cap_configurable(self, monkeypatch):
        site = image_heavy_site()
        monkeypatch.setattr(engine, "MAX_DELAYABLE_IN_FLIGHT", 2)
        tight = load(site)
        monkeypatch.setattr(engine, "MAX_DELAYABLE_IN_FLIGHT", 100)
        loose = load(site)
        # Both complete everything; the tight cap serializes images more.
        assert tight.resources_loaded == loose.resources_loaded

    def test_non_delayable_not_capped(self, monkeypatch):
        # A page of many scripts is unaffected by a tiny delayable cap.
        host = "scripts.com"
        children = [
            Resource(Url.parse(f"http://{host}/s{i}.js"), "js", 5_000)
            for i in range(20)
        ]
        root = Resource(Url.parse(f"http://{host}/"), "html", 10_000,
                        children=children)
        site = SyntheticSite(host, PageModel(root),
                             {host: ip_for_host(host)})
        monkeypatch.setattr(engine, "MAX_DELAYABLE_IN_FLIGHT", 1)
        capped = load(site)
        monkeypatch.setattr(engine, "MAX_DELAYABLE_IN_FLIGHT", 100)
        open_ = load(site)
        assert capped.page_load_time == pytest.approx(open_.page_load_time)
