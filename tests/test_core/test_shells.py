"""Behavioural tests for the four shells and their composition."""

import pytest

from repro.core import DelayShell, HostMachine, LinkShell, ReplayShell, ShellStack
from repro.corpus import generate_site
from repro.errors import ShellError
from repro.http.client import HttpClient
from repro.http.message import Headers, HttpRequest
from repro.linkem import DropTailQueue, constant_rate_trace
from repro.net.address import Endpoint
from repro.record.store import RecordedSite
from repro.sim import Simulator
from repro.transport.host import TransportHost
from repro.transport.wire import pieces_len


def ping_setup(stack_builder):
    """Build a machine + stack; return (sim, machine, stack, rtt_probe).

    The probe opens a TCP connection from the innermost namespace to a
    server in the host namespace and reports the handshake time (= 1 RTT
    through every shell on the path).
    """
    sim = Simulator(seed=0)
    machine = HostMachine(sim)
    host_transport = TransportHost.ensure(sim, machine.namespace)
    stack = ShellStack(machine)
    stack_builder(stack)
    # Server in the host namespace on the outermost veth address.
    server_addr = machine.namespace.any_local_address()
    host_transport.listen(server_addr, 7777, lambda conn: None)

    def probe():
        conn = stack.transport.connect(Endpoint(server_addr, 7777))
        established = []
        conn.on_established = lambda: established.append(sim.now)
        start = sim.now
        sim.run_until(lambda: bool(established), timeout=30)
        return established[0] - start

    return sim, machine, stack, probe


class TestDelayShell:
    def test_adds_exact_rtt(self):
        sim, machine, stack, probe = ping_setup(
            lambda s: s.add_delay(0.040))
        assert probe() == pytest.approx(0.080, abs=0.001)

    def test_nested_delays_accumulate(self):
        def build(stack):
            stack.add_delay(0.030)
            stack.add_delay(0.020)
        sim, machine, stack, probe = ping_setup(build)
        assert probe() == pytest.approx(0.100, abs=0.001)

    def test_negative_delay_rejected(self):
        sim = Simulator()
        machine = HostMachine(sim)
        with pytest.raises(ShellError):
            DelayShell(sim, machine.namespace, machine.allocator, -1.0)

    def test_zero_delay_overhead_only(self):
        sim, machine, stack, probe = ping_setup(lambda s: s.add_delay(0.0))
        rtt = probe()
        assert 0.0 < rtt < 0.001  # just forwarding overhead


class TestLinkShell:
    def test_paces_bulk_transfer(self):
        sim = Simulator(seed=0)
        machine = HostMachine(sim)
        host_transport = TransportHost.ensure(sim, machine.namespace)
        stack = ShellStack(machine)
        stack.add_link(uplink=8.0, downlink=8.0)
        server_addr = machine.namespace.any_local_address()

        def on_conn(conn):
            conn.on_data = lambda p: conn.send_virtual(1_000_000)
        host_transport.listen(server_addr, 80, on_conn)
        conn = stack.transport.connect(Endpoint(server_addr, 80))
        total = [0]
        done = []
        conn.on_established = lambda: conn.send(b"GET")
        def on_data(p):
            total[0] += pieces_len(p)
            if total[0] >= 1_000_000:
                done.append(sim.now)
        conn.on_data = on_data
        sim.run_until(lambda: bool(done), timeout=60)
        # 1 MB at 8 Mbit/s = 1.0 s minimum.
        assert done[0] == pytest.approx(1.05, abs=0.1)

    def test_accepts_trace_objects(self):
        trace = constant_rate_trace(12.0, 1000)
        sim = Simulator()
        machine = HostMachine(sim)
        shell = LinkShell(sim, machine.namespace, machine.allocator,
                          uplink=trace, downlink=trace)
        assert shell.downlink_queue is not None

    def test_bounded_queue_visible(self):
        sim = Simulator()
        machine = HostMachine(sim)
        queue = DropTailQueue(max_packets=10)
        shell = LinkShell(sim, machine.namespace, machine.allocator,
                          uplink=1.0, downlink=1.0, downlink_queue=queue)
        assert shell.downlink_queue is queue


class TestReplayShell:
    def _site_store(self):
        site = generate_site("shelltest.com", seed=4, n_origins=6)
        return site, site.to_recorded_site()

    def test_one_server_per_origin(self):
        site, store = self._site_store()
        sim = Simulator()
        machine = HostMachine(sim)
        shell = ReplayShell(sim, machine.namespace, machine.allocator, store)
        assert shell.server_count == len(store.origins())

    def test_single_server_mode_spawns_one(self):
        site, store = self._site_store()
        sim = Simulator()
        machine = HostMachine(sim)
        shell = ReplayShell(sim, machine.namespace, machine.allocator, store,
                            single_server=True)
        assert shell.server_count == 1

    def test_dns_zone_matches_recording(self):
        site, store = self._site_store()
        sim = Simulator()
        machine = HostMachine(sim)
        shell = ReplayShell(sim, machine.namespace, machine.allocator, store)
        for host, ip in store.hostnames().items():
            assert shell.dns.lookup(host) == [ip]

    def test_single_server_dns_points_everywhere_to_anchor(self):
        site, store = self._site_store()
        sim = Simulator()
        machine = HostMachine(sim)
        shell = ReplayShell(sim, machine.namespace, machine.allocator, store,
                            single_server=True)
        answers = {tuple(shell.dns.lookup(h)) for h in store.hostnames()}
        assert len(answers) == 1

    def test_empty_site_rejected(self):
        sim = Simulator()
        machine = HostMachine(sim)
        with pytest.raises(ShellError):
            ReplayShell(sim, machine.namespace, machine.allocator,
                        RecordedSite("empty"))

    def test_serves_recorded_response(self):
        site, store = self._site_store()
        sim = Simulator()
        machine = HostMachine(sim)
        shell = ReplayShell(sim, machine.namespace, machine.allocator, store)
        # Connect from inside the replay namespace to a recorded origin.
        target = store.pairs[0]
        client = HttpClient(
            sim, shell.transport,
            Endpoint(target.origin_ip, target.origin_port),
        )
        got = []
        client.request(
            HttpRequest("GET", target.request.uri,
                        Headers([("Host", target.host)])),
            got.append,
        )
        sim.run_until(lambda: bool(got), timeout=10)
        assert got[0].status == 200
        assert got[0].body.length == target.response.body.length

    def test_unrecorded_request_gets_404(self):
        site, store = self._site_store()
        sim = Simulator()
        machine = HostMachine(sim)
        shell = ReplayShell(sim, machine.namespace, machine.allocator, store)
        target = store.pairs[0]
        client = HttpClient(
            sim, shell.transport,
            Endpoint(target.origin_ip, target.origin_port),
        )
        got = []
        client.request(
            HttpRequest("GET", "/never-recorded",
                        Headers([("Host", target.host)])),
            got.append,
        )
        sim.run_until(lambda: bool(got), timeout=10)
        assert got[0].status == 404


class TestShellStack:
    def test_empty_stack_is_host_namespace(self):
        sim = Simulator()
        machine = HostMachine(sim)
        stack = ShellStack(machine)
        assert stack.namespace is machine.namespace

    def test_nesting_order(self):
        site = generate_site("nest.com", seed=5, n_origins=3)
        sim = Simulator()
        machine = HostMachine(sim)
        stack = ShellStack(machine)
        replay = stack.add_replay(site.to_recorded_site())
        link = stack.add_link(uplink=10, downlink=10)
        delay = stack.add_delay(0.01)
        assert link.parent is replay.namespace
        assert delay.parent is link.namespace
        assert stack.namespace is delay.namespace

    def test_resolver_endpoint_requires_replay(self):
        sim = Simulator()
        machine = HostMachine(sim)
        stack = ShellStack(machine)
        stack.add_delay(0.01)
        with pytest.raises(ShellError):
            stack.resolver_endpoint

    def test_duplicate_shell_names_disambiguated(self):
        sim = Simulator()
        machine = HostMachine(sim)
        stack = ShellStack(machine)
        a = stack.add_delay(0.01)
        b = stack.add_delay(0.01)
        assert a.name != b.name
