"""Unit and integration tests for DNS messages, server, and resolver."""

import pytest

from repro.dns.message import (
    DnsQuery,
    DnsResponse,
    RCODE_NXDOMAIN,
    RCODE_OK,
    decode_message,
    encode_query,
    encode_response,
)
from repro.dns import resolver as resolver_module
from repro.dns.resolver import StubResolver
from repro.dns.server import DnsServer
from repro.errors import DnsError
from repro.net.address import IPv4Address
from repro.testing import delayed_world


class TestMessageEncoding:
    def test_query_roundtrip(self):
        query = DnsQuery(42, "www.example.com")
        decoded = decode_message(encode_query(query))
        assert decoded == query

    def test_response_roundtrip(self):
        response = DnsResponse(
            7, RCODE_OK, "cdn.example.com",
            (IPv4Address("23.1.2.3"), IPv4Address("23.1.2.4")),
        )
        decoded = decode_message(encode_response(response))
        assert decoded == response
        assert decoded.ok

    def test_nxdomain_roundtrip(self):
        response = DnsResponse(9, RCODE_NXDOMAIN, "gone.example.com", ())
        decoded = decode_message(encode_response(response))
        assert not decoded.ok

    def test_names_lowercased(self):
        decoded = decode_message(encode_query(DnsQuery(1, "WWW.Example.COM")))
        assert decoded.name == "www.example.com"

    @pytest.mark.parametrize("bad", [
        b"", b"garbage", b"Q|x|name", b"R|1|0|name", b"Q|1",
        b"\xff\xfe", b"R|1|x|name|1.2.3.4",
    ])
    def test_malformed_messages_rejected(self, bad):
        with pytest.raises(DnsError):
            decode_message(bad)

    @pytest.mark.parametrize("name", ["", "has space", "pipe|name", "a,b"])
    def test_invalid_names_rejected(self, name):
        with pytest.raises(DnsError):
            encode_query(DnsQuery(1, name))


def make_world(zone=None, delay=0.030, **kwargs):
    world = delayed_world(delay)
    server = DnsServer(
        world.sim, world.server, world.SERVER_ADDR,
        zone if zone is not None else
        {"www.example.com": [IPv4Address("23.0.0.1")]},
        **kwargs,
    )
    resolver = StubResolver(
        world.sim, world.client, world.CLIENT_ADDR, server.endpoint,
    )
    return world, server, resolver


class TestServerAndResolver:
    def test_successful_resolution(self):
        world, server, resolver = make_world()
        got = []
        resolver.resolve("www.example.com",
                         lambda addrs, err: got.append((addrs, err, world.sim.now)))
        world.sim.run_until(lambda: bool(got), timeout=5)
        addrs, err, at = got[0]
        assert err is None
        assert addrs == [IPv4Address("23.0.0.1")]
        assert at == pytest.approx(0.060, abs=0.005)  # one RTT

    def test_case_insensitive_zone(self):
        world, server, resolver = make_world()
        got = []
        resolver.resolve("WWW.EXAMPLE.COM",
                         lambda addrs, err: got.append(addrs))
        world.sim.run_until(lambda: bool(got), timeout=5)
        assert got[0] == [IPv4Address("23.0.0.1")]

    def test_nxdomain(self):
        world, server, resolver = make_world()
        got = []
        resolver.resolve("nope.example.com",
                         lambda addrs, err: got.append((addrs, err)))
        world.sim.run_until(lambda: bool(got), timeout=5)
        addrs, err = got[0]
        assert addrs is None
        assert "NXDOMAIN" in str(err)

    def test_cache_hit_skips_network(self):
        world, server, resolver = make_world()
        got = []
        resolver.resolve("www.example.com", lambda a, e: got.append(world.sim.now))
        world.sim.run_until(lambda: bool(got), timeout=5)
        resolver.resolve("www.example.com", lambda a, e: got.append(world.sim.now))
        world.sim.run_until(lambda: len(got) == 2, timeout=5)
        assert resolver.queries_sent == 1
        assert resolver.cache_hits == 1
        assert got[1] - got[0] < 0.001

    def test_cache_expiry(self, monkeypatch):
        monkeypatch.setattr(resolver_module, "TTL", 1.0)
        world, server, resolver = make_world()
        got = []
        resolver.resolve("www.example.com", lambda a, e: got.append(1))
        world.sim.run_until(lambda: bool(got), timeout=5)
        world.sim.run_for(2.0)
        resolver.resolve("www.example.com", lambda a, e: got.append(2))
        world.sim.run_until(lambda: len(got) == 2, timeout=5)
        assert resolver.queries_sent == 2

    def test_concurrent_queries_coalesced(self):
        world, server, resolver = make_world()
        got = []
        for _ in range(5):
            resolver.resolve("www.example.com", lambda a, e: got.append(a))
        world.sim.run_until(lambda: len(got) == 5, timeout=5)
        assert resolver.queries_sent == 1
        assert server.queries_answered == 1

    def test_timeout_and_retry(self):
        # Server bound on a different port: queries vanish.
        world = delayed_world(0.010)
        resolver = StubResolver(
            world.sim, world.client, world.CLIENT_ADDR,
            world.endpoint(53), timeout=0.5, retries=1,
        )
        got = []
        resolver.resolve("www.example.com", lambda a, e: got.append((a, e)))
        world.sim.run_until(lambda: bool(got), timeout=10)
        addrs, err = got[0]
        assert addrs is None
        assert "timed out" in str(err)
        assert resolver.queries_sent == 2  # original + one retry
        # Exponential backoff: 0.5 s first attempt + 1.0 s retry.
        assert world.sim.now == pytest.approx(1.5, abs=0.05)

    def test_processing_time_adds_latency(self):
        world, server, resolver = make_world(processing_time=0.050)
        got = []
        resolver.resolve("www.example.com", lambda a, e: got.append(world.sim.now))
        world.sim.run_until(lambda: bool(got), timeout=5)
        assert got[0] == pytest.approx(0.110, abs=0.01)

    def test_add_record(self):
        world, server, resolver = make_world()
        server.add_record("new.example.com", [IPv4Address("23.0.0.9")])
        assert server.lookup("NEW.example.com") == [IPv4Address("23.0.0.9")]

    def test_multiple_addresses_returned(self):
        zone = {"multi.example.com": [IPv4Address("1.1.1.1"),
                                      IPv4Address("2.2.2.2")]}
        world, server, resolver = make_world(zone=zone)
        got = []
        resolver.resolve("multi.example.com", lambda a, e: got.append(a))
        world.sim.run_until(lambda: bool(got), timeout=5)
        assert len(got[0]) == 2
