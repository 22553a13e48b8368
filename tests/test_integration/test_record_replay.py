"""End-to-end integration: record from the live web, replay the recording.

This is the toolkit's whole value proposition in one test file: a browser
inside RecordShell loads a site from the (simulated) Internet; the proxy's
recording must equal the ground truth; a browser inside ReplayShell over
the recording must then see the same content.
"""

from repro.browser import Browser
from repro.browser.html import page_from_recording
from repro.core import HostMachine, ShellStack
from repro.corpus import generate_site
from repro.errors import ConnectionReset
from repro.http.client import HttpClient
from repro.http.message import Headers, HttpRequest
from repro.net.address import Endpoint
from repro.record import RecordedSite
from repro.sim import Simulator
from repro.web import Internet


def record_site(site, seed=0):
    """Load ``site`` from the live web inside RecordShell; return the
    recording and the page-load result."""
    sim = Simulator(seed=seed)
    internet = Internet(sim)
    internet.install_site(site)
    machine = HostMachine(sim)
    internet.attach_machine(machine)
    store = RecordedSite(site.name)
    stack = ShellStack(machine)
    shell = stack.add_record(store)
    browser = Browser(sim, stack.transport, internet.resolver_endpoint,
                      machine=machine)
    result = browser.load(site.page)
    completed = sim.run_until(lambda: result.complete, timeout=300)
    assert completed, "record-mode page load hung"
    return store, result, shell


def pair_key(pair):
    return (pair.scheme, str(pair.origin_ip), pair.origin_port,
            pair.host, pair.request.uri,
            pair.response.status, pair.response.body.length)


class TestRecordPath:
    def test_recording_matches_ground_truth(self):
        site = generate_site("roundtrip.com", seed=40, n_origins=10)
        store, result, shell = record_site(site)
        assert result.resources_failed == 0
        truth = site.to_recorded_site()
        assert sorted(map(pair_key, store.pairs)) == \
               sorted(map(pair_key, truth.pairs))

    def test_multi_origin_structure_preserved(self):
        site = generate_site("origins.com", seed=41, n_origins=14)
        store, result, shell = record_site(site)
        truth = site.to_recorded_site()
        assert store.origins() == truth.origins()
        assert store.hostnames() == truth.hostnames()

    def test_recording_transparent_to_browser(self):
        # The browser must see identical content with and without
        # RecordShell in the path.
        site = generate_site("transparent.com", seed=42, n_origins=6)
        store, recorded_result, shell = record_site(site)
        # Direct load (no RecordShell).
        sim = Simulator(seed=0)
        internet = Internet(sim)
        internet.install_site(site)
        machine = HostMachine(sim)
        internet.attach_machine(machine)
        from repro.transport.host import TransportHost
        browser = Browser(sim, TransportHost.ensure(sim, machine.namespace),
                          internet.resolver_endpoint, machine=machine)
        direct_result = browser.load(site.page)
        sim.run_until(lambda: direct_result.complete, timeout=300)
        assert direct_result.resources_loaded == recorded_result.resources_loaded
        assert direct_result.bytes_downloaded == recorded_result.bytes_downloaded

    def test_recorded_root_keeps_its_markup(self, tmp_path):
        # Pair keys carry lengths only; the root document's bytes must
        # come through the proxy too: its markup byte for byte, then a
        # virtual tail as long as the ground truth's.
        site = generate_site("markup.com", seed=47, n_origins=6)
        store, result, shell = record_site(site)
        truth = next(p for p in site.to_recorded_site().pairs
                     if p.request.uri == "/").response.body
        recorded = next(p for p in store.pairs
                        if p.request.uri == "/").response.body
        assert truth.real_prefix and truth.virtual_tail
        assert recorded.real_prefix == truth.real_prefix
        assert recorded.virtual_tail == truth.virtual_tail
        store.save(tmp_path / "recorded")
        page = page_from_recording(RecordedSite.load(tmp_path / "recorded"))
        assert sorted(str(r.url) for r in page.resources()) == \
               sorted(str(r.url) for r in site.page.resources())

    def test_https_site_recorded_through_mitm(self):
        site = generate_site("secure.com", seed=43, n_origins=5, https=True)
        store, result, shell = record_site(site)
        assert result.resources_failed == 0
        assert len(store) == site.page.resource_count
        assert all(p.scheme == "https" for p in store.pairs)
        assert all(p.origin_port == 443 for p in store.pairs)

    def test_redirector_counts_flows(self):
        site = generate_site("flows.com", seed=44, n_origins=4)
        store, result, shell = record_site(site)
        assert shell.redirector.redirected_flows == result.connections_opened

    def test_malformed_request_resets_only_its_connection(self):
        # A mux frame to an HTTP/1.1 origin: the proxy's request parser
        # rejects it. The world must drain, that connection must be reset
        # on the client's side, and a well-formed client after it must
        # still be recorded.
        site = generate_site("garbled.com", seed=48, n_origins=2)
        sim = Simulator(seed=0)
        internet = Internet(sim)
        internet.install_site(site)
        machine = HostMachine(sim)
        internet.attach_machine(machine)
        store = RecordedSite(site.name)
        stack = ShellStack(machine)
        stack.add_record(store)
        host = "www.garbled.com"
        origin = Endpoint(site.host_ips[host], 80)

        raw = stack.transport.connect(origin)
        errors = []
        raw.on_established = lambda: raw.send(
            b"MUX 1 H 30 1\nGET / HTTP/1.1\r\nHost: " + host.encode()
            + b"\r\n\r\n")
        raw.on_error = errors.append
        sim.run()
        assert [type(exc) for exc in errors] == [ConnectionReset]
        assert len(store) == 0

        client = HttpClient(sim, stack.transport, origin)
        responses = []
        client.request(HttpRequest("GET", "/", Headers([("Host", host)])),
                       responses.append)
        sim.run()
        assert [r.status for r in responses] == [200]
        assert [(p.host, p.request.uri) for p in store.pairs] == \
               [(host, "/")]


class TestRecordThenReplay:
    def test_replay_of_recording_serves_page(self):
        site = generate_site("fullcycle.com", seed=45, n_origins=8)
        store, __, __shell = record_site(site)
        # Persist and reload, exercising the disk format on the way.
        sim = Simulator(seed=1)
        machine = HostMachine(sim)
        stack = ShellStack(machine)
        stack.add_replay(store)
        browser = Browser(sim, stack.transport, stack.resolver_endpoint,
                          machine=machine)
        result = browser.load(site.page)
        assert sim.run_until(lambda: result.complete, timeout=300)
        assert result.resources_failed == 0
        assert result.resources_loaded == site.page.resource_count
        assert result.bytes_downloaded >= site.page.total_bytes

    def test_replay_after_disk_roundtrip(self, tmp_path):
        site = generate_site("disk.com", seed=46, n_origins=6)
        store, __, __shell = record_site(site)
        store.save(tmp_path / "recorded")
        loaded = RecordedSite.load(tmp_path / "recorded")
        sim = Simulator(seed=2)
        machine = HostMachine(sim)
        stack = ShellStack(machine)
        stack.add_replay(loaded)
        browser = Browser(sim, stack.transport, stack.resolver_endpoint,
                          machine=machine)
        result = browser.load(site.page)
        assert sim.run_until(lambda: result.complete, timeout=300)
        assert result.resources_failed == 0
