"""Unit tests for namespaces, veth pairs, NAT, and isolation."""

import pytest

from repro.errors import NamespaceError
from repro.net.address import IPv4Address
from repro.net.interface import Interface
from repro.net import namespace
from repro.net.namespace import NetworkNamespace
from repro.net.nat import Nat
from repro.net.packet import tcp_packet
from repro.net.veth import VethPair
from repro.sim import Simulator


def make_packet(src, dst, sport=1111, dport=80):
    return tcp_packet(IPv4Address(src), IPv4Address(dst), sport, dport,
                      None, data_len=0)


class TestNamespaceBasics:
    def test_add_interface(self):
        sim = Simulator()
        ns = NetworkNamespace(sim, "ns")
        iface = ns.add_interface(Interface("eth0"))
        assert ns.interface("eth0") is iface
        assert iface.namespace is ns

    def test_duplicate_interface_name_rejected(self):
        sim = Simulator()
        ns = NetworkNamespace(sim, "ns")
        ns.add_interface(Interface("eth0"))
        with pytest.raises(NamespaceError):
            ns.add_interface(Interface("eth0"))

    def test_double_attach_rejected(self):
        sim = Simulator()
        iface = Interface("eth0")
        NetworkNamespace(sim, "a").add_interface(iface)
        with pytest.raises(NamespaceError):
            NetworkNamespace(sim, "b").add_interface(iface)

    def test_unknown_interface_lookup(self):
        sim = Simulator()
        with pytest.raises(NamespaceError):
            NetworkNamespace(sim, "ns").interface("nope")

    def test_address_registration_makes_local(self):
        sim = Simulator()
        ns = NetworkNamespace(sim, "ns")
        iface = ns.add_interface(Interface("eth0"))
        iface.add_address("10.0.0.1", 24)
        assert ns.is_local(IPv4Address("10.0.0.1"))
        assert not ns.is_local(IPv4Address("10.0.0.2"))

    def test_loopback_is_local(self):
        sim = Simulator()
        ns = NetworkNamespace(sim, "ns")
        assert ns.is_local(IPv4Address("127.0.0.1"))

    def test_any_local_address(self):
        sim = Simulator()
        ns = NetworkNamespace(sim, "ns")
        with pytest.raises(NamespaceError):
            ns.any_local_address()
        iface = ns.add_interface(Interface("eth0"))
        iface.add_address("10.0.0.1", 24)
        assert ns.any_local_address() == IPv4Address("10.0.0.1")

    def test_connected_route_installed(self):
        sim = Simulator()
        ns = NetworkNamespace(sim, "ns")
        iface = ns.add_interface(Interface("eth0"))
        iface.add_address("10.0.0.1", 24)
        assert ns.routes.lookup("10.0.0.9").interface is iface


class TestVethForwarding:
    def _two_namespaces(self):
        sim = Simulator()
        a = NetworkNamespace(sim, "a")
        b = NetworkNamespace(sim, "b")
        veth = VethPair(sim, a, b, "va", "vb")
        veth.iface_a.add_address("10.0.0.1", 30)
        veth.iface_b.add_address("10.0.0.2", 30)
        return sim, a, b, veth

    def test_local_delivery_across_veth(self):
        sim, a, b, veth = self._two_namespaces()
        got = []
        b.attach_transport(got.append)
        packet = make_packet("10.0.0.1", "10.0.0.2")
        a.originate(packet)
        sim.run()
        assert got == [packet]
        assert b.delivered_packets == 1

    def test_loopback_originate(self):
        sim, a, b, veth = self._two_namespaces()
        got = []
        a.attach_transport(got.append)
        packet = make_packet("10.0.0.9", "10.0.0.1")
        a.originate(packet)
        sim.run()
        assert got == [packet]
        # Loopback adds its configured latency.
        assert sim.now == pytest.approx(namespace.LOOPBACK_LATENCY)

    def test_no_route_drops(self):
        sim, a, b, veth = self._two_namespaces()
        a.originate(make_packet("10.0.0.1", "99.99.99.99"))
        sim.run()
        assert a.dropped_packets == 1

    def test_ttl_expiry(self):
        sim, a, b, veth = self._two_namespaces()
        # Three namespaces in a chain: a - b - c; packet with ttl=1 from a
        # is dropped at b when forwarding to c.
        c = NetworkNamespace(sim, "c")
        veth2 = VethPair(sim, b, c, "vb2", "vc")
        veth2.iface_a.add_address("10.0.1.1", 30)
        veth2.iface_b.add_address("10.0.1.2", 30)
        a.routes.add("10.0.1.0/30", veth.iface_a)
        packet = make_packet("10.0.0.1", "10.0.1.2")
        packet.ttl = 1
        a.originate(packet)
        sim.run()
        assert b.dropped_packets == 1

    def test_forwarding_counts(self):
        sim, a, b, veth = self._two_namespaces()
        c = NetworkNamespace(sim, "c")
        veth2 = VethPair(sim, b, c, "vb2", "vc")
        veth2.iface_a.add_address("10.0.1.1", 30)
        veth2.iface_b.add_address("10.0.1.2", 30)
        a.routes.add("10.0.1.0/30", veth.iface_a)
        got = []
        c.attach_transport(got.append)
        a.originate(make_packet("10.0.0.1", "10.0.1.2"))
        sim.run()
        assert len(got) == 1
        assert b.forwarded_packets == 1

    def test_downed_interface_drops(self):
        sim, a, b, veth = self._two_namespaces()
        veth.iface_a.up = False
        got = []
        b.attach_transport(got.append)
        a.originate(make_packet("10.0.0.1", "10.0.0.2"))
        sim.run()
        assert got == []
        assert veth.iface_a.drops == 1

    def test_interface_counters(self):
        sim, a, b, veth = self._two_namespaces()
        b.attach_transport(lambda p: None)
        a.originate(make_packet("10.0.0.1", "10.0.0.2"))
        sim.run()
        assert veth.iface_a.tx_packets == 1
        assert veth.iface_b.rx_packets == 1
        assert veth.iface_b.rx_bytes == veth.iface_a.tx_bytes > 0


class TestIsolation:
    def test_namespaces_cannot_see_each_others_traffic(self):
        # The paper's isolation property: two namespace pairs with
        # overlapping addresses never interfere.
        sim = Simulator()
        worlds = []
        for label in ("one", "two"):
            a = NetworkNamespace(sim, f"a-{label}")
            b = NetworkNamespace(sim, f"b-{label}")
            veth = VethPair(sim, a, b, "va", "vb")
            veth.iface_a.add_address("10.0.0.1", 30)
            veth.iface_b.add_address("10.0.0.2", 30)  # same addrs, no clash
            got = []
            b.attach_transport(got.append)
            worlds.append((a, b, got))
        worlds[0][0].originate(make_packet("10.0.0.1", "10.0.0.2"))
        sim.run()
        assert len(worlds[0][2]) == 1
        assert len(worlds[1][2]) == 0


class TestNat:
    def _nat_chain(self):
        # inner -- mid (NAT) -- outer ; inner's packets masquerade onto
        # mid's outer-facing address.
        sim = Simulator()
        inner = NetworkNamespace(sim, "inner")
        mid = NetworkNamespace(sim, "mid")
        outer = NetworkNamespace(sim, "outer")
        v1 = VethPair(sim, mid, inner, "m-in", "in-up")
        v1.iface_a.add_address("100.64.0.1", 30)
        v1.iface_b.add_address("100.64.0.2", 30)
        v2 = VethPair(sim, outer, mid, "out-dn", "m-up")
        v2.iface_a.add_address("100.64.0.5", 30)
        v2.iface_b.add_address("100.64.0.6", 30)
        inner.routes.add_default(v1.iface_b)
        mid.routes.add_default(v2.iface_b)
        nat = Nat(mid)
        nat.masquerade_on(v2.iface_b)
        return sim, inner, mid, outer, nat

    def test_outbound_masquerade(self):
        sim, inner, mid, outer, nat = self._nat_chain()
        got = []
        outer.attach_transport(got.append)
        inner.originate(make_packet("100.64.0.2", "100.64.0.5", sport=5555))
        sim.run()
        assert len(got) == 1
        assert got[0].src == IPv4Address("100.64.0.6")
        assert got[0].sport != 5555
        assert nat.active_flows == 1

    def test_reply_translated_back(self):
        sim, inner, mid, outer, nat = self._nat_chain()
        outbound = []
        outer.attach_transport(outbound.append)
        inner_got = []
        inner.attach_transport(inner_got.append)
        inner.originate(make_packet("100.64.0.2", "100.64.0.5", sport=5555))
        sim.run()
        seen = outbound[0]
        reply = make_packet("100.64.0.5", str(seen.src),
                            sport=seen.dport, dport=seen.sport)
        outer.originate(reply)
        sim.run()
        assert len(inner_got) == 1
        assert inner_got[0].dst == IPv4Address("100.64.0.2")
        assert inner_got[0].dport == 5555

    def test_same_flow_reuses_mapping(self):
        sim, inner, mid, outer, nat = self._nat_chain()
        outbound = []
        outer.attach_transport(outbound.append)
        for _ in range(3):
            inner.originate(make_packet("100.64.0.2", "100.64.0.5", sport=5555))
        sim.run()
        assert len({p.sport for p in outbound}) == 1
        assert nat.active_flows == 1

    def test_distinct_flows_distinct_ports(self):
        sim, inner, mid, outer, nat = self._nat_chain()
        outbound = []
        outer.attach_transport(outbound.append)
        inner.originate(make_packet("100.64.0.2", "100.64.0.5", sport=1001))
        inner.originate(make_packet("100.64.0.2", "100.64.0.5", sport=1002))
        sim.run()
        assert len({p.sport for p in outbound}) == 2

    def test_mid_own_traffic_not_translated(self):
        sim, inner, mid, outer, nat = self._nat_chain()
        got = []
        outer.attach_transport(got.append)
        mid.originate(make_packet("100.64.0.6", "100.64.0.5", sport=7777))
        sim.run()
        assert got[0].sport == 7777

    def test_masquerade_requires_address(self):
        sim = Simulator()
        ns = NetworkNamespace(sim, "ns")
        iface = ns.add_interface(Interface("eth0"))
        nat = Nat(ns)
        from repro.errors import NetworkError
        with pytest.raises(NetworkError):
            nat.masquerade_on(iface)
