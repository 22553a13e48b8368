"""Tests for the repro.testing scaffolding itself."""

import os

import pytest

from repro.net.address import IPv4Address
from repro.net.packet import tcp_packet
from repro.sim import Simulator
from repro.testing import ScriptedLossPipe, TwoHostWorld, delayed_world


class TestTwoHostWorld:
    def test_addresses_and_routes(self):
        world = TwoHostWorld()
        assert world.client_ns.is_local(IPv4Address(world.CLIENT_ADDR))
        assert world.server_ns.is_local(IPv4Address(world.SERVER_ADDR))
        assert str(world.server_endpoint) == "10.0.0.2:80"
        assert world.endpoint(443).port == 443

    def test_default_pipes_are_instant(self):
        world = TwoHostWorld()
        got = []
        world.server_ns.attach_transport(got.append)
        packet = tcp_packet(IPv4Address(world.CLIENT_ADDR),
                            IPv4Address(world.SERVER_ADDR), 1, 2, None, 0)
        world.client_ns.originate(packet)
        world.sim.run()
        assert got and world.sim.now == 0.0

    def test_custom_simulator_accepted(self):
        sim = Simulator(seed=9)
        world = TwoHostWorld(sim=sim)
        assert world.sim is sim

    def test_delayed_world_symmetric(self):
        world = delayed_world(0.030)
        assert world.veth.pipe_ab.one_way_delay == 0.030
        assert world.veth.pipe_ba.one_way_delay == 0.030


class TestScriptedLossPipe:
    def test_drops_exact_indices(self):
        sim = Simulator()
        pipe = ScriptedLossPipe(sim, 0.001, drop_indices={1, 3})
        got = []
        pipe.attach_sink(lambda p: got.append(p.uid))
        sent = []
        for _ in range(5):
            p = tcp_packet(IPv4Address("1.1.1.1"), IPv4Address("2.2.2.2"),
                           1, 2, None, 0)
            sent.append(p)
            pipe.send(p)
        sim.run()
        assert got == [sent[0].uid, sent[2].uid, sent[4].uid]
        assert pipe.dropped_uids == [sent[1].uid, sent[3].uid]
        assert pipe.packets_dropped == 2

    def test_no_drops(self):
        sim = Simulator()
        pipe = ScriptedLossPipe(sim, 0.001, drop_indices=set())
        got = []
        pipe.attach_sink(lambda p: got.append(sim.now))
        pipe.send(tcp_packet(IPv4Address("1.1.1.1"), IPv4Address("2.2.2.2"),
                             1, 2, None, 0))
        sim.run()
        assert got == [pytest.approx(0.001)]


class TestProcessHelpers:
    def test_child_pids_then_pids_alive(self):
        import subprocess
        import sys

        from repro.testing import child_pids, pids_alive

        child = subprocess.Popen([sys.executable, "-c",
                                  "import time; time.sleep(60)"])
        try:
            assert child.pid in child_pids(os.getpid())
            assert pids_alive([child.pid]) == {child.pid}
        finally:
            child.kill()
            child.wait()
        assert child.pid not in child_pids(os.getpid())
        assert not pids_alive([child.pid], within=5.0)
