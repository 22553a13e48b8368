"""End-to-end probe coverage: an instrumented page load populates every
probe family, and instrumentation provably does not perturb the
simulation (the zero-observer-effect contract)."""

import pytest

from repro.analysis.sanitizer import check_observer_effect
from repro.browser import Browser
from repro.core import HostMachine, ShellStack
from repro.corpus import generate_site
from repro.obs import MetricsRegistry
from repro.sim import Simulator


SITE = generate_site("probes.test", seed=21, n_origins=4)
STORE = SITE.to_recorded_site()


def build_world(seed, instrument=False, protocol="http/1.1"):
    sim = Simulator(seed=seed)
    if instrument:
        MetricsRegistry.install(sim)
    machine = HostMachine(sim)
    stack = ShellStack(machine)
    stack.add_replay(STORE, protocol=protocol)
    stack.add_link(14, 14)
    stack.add_delay(0.020)
    browser = Browser(sim, stack.transport, stack.resolver_endpoint,
                      protocol=protocol, machine=machine)
    result = browser.load(SITE.page)
    sim.run_until(lambda: result.complete, timeout=600)
    assert result.resources_failed == 0
    return sim, result


@pytest.fixture(scope="module")
def instrumented():
    sim, result = build_world(0, instrument=True)
    return sim.metrics, result


@pytest.fixture(scope="module")
def instrumented_mux():
    sim, result = build_world(0, instrument=True, protocol="mux")
    return sim.metrics, result


class TestProbesPopulate:
    def test_linkem_series_and_counters(self, instrumented):
        registry, __ = instrumented
        depth = registry.series["linkshell.downlink.queue_depth"]
        assert len(depth.points) > 0
        assert max(v for __, v in depth.points) >= 1
        util = registry.series["linkshell.downlink.utilization"]
        assert all(0.0 <= v <= 1.0 for __, v in util.points)
        assert registry.counters["linkshell.downlink.bytes_delivered"].value > 0

    def test_tcp_cwnd_growth(self, instrumented):
        registry, __ = instrumented
        cwnd_series = [s for name, s in registry.series.items()
                       if name.startswith("tcp.") and name.endswith(".cwnd")]
        assert cwnd_series
        grew = any(s.points[-1][1] > s.points[0][1] for s in cwnd_series
                   if len(s.points) > 1)
        assert grew  # slow start visibly opened at least one window

    def test_server_pool_occupancy(self, instrumented):
        registry, __ = instrumented
        occupancy = [s for name, s in registry.series.items()
                     if ".occupancy" in name]
        assert occupancy
        assert any(v >= 1 for s in occupancy for __, v in s.points)

    @pytest.mark.parametrize("protocol", ["http/1.1", "mux"])
    def test_every_origin_records_server_probes(self, request, protocol):
        # One server model on both framings: each replay origin's worker
        # pool records its occupancy, backlog and sojourn latency.
        registry, __ = request.getfixturevalue(
            "instrumented" if protocol == "http/1.1" else "instrumented_mux")
        origins = sorted(STORE.origins())
        assert len(origins) > 1
        for ip, port in origins:
            path = f"http.server.{ip}:{port}"
            assert registry.series[f"{path}.occupancy"].points
            assert f"{path}.backlog" in registry.series
            assert registry.histograms[f"{path}.latency"].count > 0

    @pytest.mark.parametrize("protocol", ["http/1.1", "mux"])
    def test_browser_waterfall_and_inflight(self, instrumented, protocol):
        if protocol == "http/1.1":
            registry, result = instrumented
        else:
            sim, result = build_world(0, instrument=True, protocol=protocol)
            registry = sim.metrics
        (waterfall,) = registry.waterfalls.values()
        assert len(waterfall.entries) == result.resources_loaded
        for entry in waterfall.entries:
            assert not entry.failed
            assert entry.finished >= entry.issued >= entry.discovered >= 0.0
            assert entry.send_wait >= 0.0
            assert entry.ttfb > 0.0
            assert entry.download >= 0.0
            assert entry.size > 0
            # The phases tile the entry's span: DNS, then the scheduler's
            # hold before issue, then connection setup, the wait to send,
            # the transfer and the parse.
            dns = max(entry.dns, 0.0)
            phases = [dns, entry.issued - entry.discovered - dns,
                      entry.connect, entry.tls, entry.send_wait, entry.ttfb,
                      entry.download, entry.compute]
            assert sum(max(p, 0.0) for p in phases) == pytest.approx(
                entry.finished - entry.discovered, rel=0.0, abs=1e-9)
        # The root resource pays DNS and connect on a fresh connection.
        root = waterfall.entries[0]
        assert root.dns > 0.0
        assert root.connect > 0.0
        inflight = [s for name, s in registry.series.items()
                    if name.startswith("browser.inflight.")]
        assert inflight
        assert all(s.points[-1][1] == 0 for s in inflight)  # all drained

    def test_uninstrumented_run_collects_nothing(self):
        sim, __ = build_world(0, instrument=False)
        assert sim.metrics is None


class TestZeroObserverEffect:
    def test_instrumented_digest_bit_identical(self):
        report = check_observer_effect(_rebuildable, seed=0)
        assert report.runs == 2
        assert report.events > 0

    def test_rejects_build_without_registry(self):
        with pytest.raises(ValueError, match="MetricsRegistry"):
            check_observer_effect(lambda seed, instrument: Simulator(seed),
                                  seed=0)


def _rebuildable(seed, instrument):
    """check_observer_effect drives the sim itself: hand it an un-run
    world rather than the already-completed one build_world returns."""
    sim = Simulator(seed=seed)
    if instrument:
        MetricsRegistry.install(sim)
    machine = HostMachine(sim)
    stack = ShellStack(machine)
    stack.add_replay(STORE)
    stack.add_link(14, 14)
    stack.add_delay(0.020)
    browser = Browser(sim, stack.transport, stack.resolver_endpoint,
                      machine=machine)
    browser.load(SITE.page)
    return sim
