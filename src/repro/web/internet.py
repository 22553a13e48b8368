"""Simulated public Internet: origins with heterogeneous RTTs.

Topology::

    machine.namespace --last-mile veth-- [core] --per-origin veths-- origins

Each origin lives in its own namespace behind a
:class:`~repro.linkem.delay.JitterDelayPipe` path, so different origins
have different round-trip times and per-packet noise — the property that
separates "actual Web" page loads from uniform-RTT replay in Figure 3.
The core runs a public DNS server answering for every installed origin.

Content comes from :class:`~repro.corpus.sitegen.SyntheticSite` objects:
:meth:`Internet.install_site` spawns one HTTP server per origin host,
serving that site's ground-truth recording through the same request
matcher the replay side uses.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro import calibration
from repro.core.machine import HostMachine
from repro.corpus.sitegen import SyntheticSite
from repro.dns.server import DnsServer
from repro.http.server import HttpServer
from repro.linkem.delay import JitterDelayPipe
from repro.net.address import AddressAllocator, Endpoint, IPv4Address
from repro.net.namespace import NetworkNamespace
from repro.net.nat import Nat
from repro.net.veth import VethPair
from repro.record.matcher import RequestMatcher
from repro.sim.simulator import Simulator
from repro.transport.host import TransportHost

#: Well-known public resolver address (bound inside the core).
PUBLIC_DNS = IPv4Address("198.41.0.4")


class Internet:
    """The public-network half of a record / actual-web experiment."""

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self.core = NetworkNamespace(sim, "internet-core")
        self.allocator = AddressAllocator("172.16.0.0/12")
        self._rng = sim.streams.stream("web:internet")
        self._origins: Dict[str, "_Origin"] = {}
        self._zone: Dict[str, List[IPv4Address]] = {}
        self._iface_counter = 0
        # Public DNS lives in the core itself.
        from repro.net.interface import Interface

        dns_iface = Interface("public-dns")
        self.core.add_interface(dns_iface)
        dns_iface.add_address(PUBLIC_DNS, 32)
        self.core_transport = TransportHost(sim, self.core)
        self.dns = DnsServer(
            sim, self.core_transport, PUBLIC_DNS, {},
            processing_time=calibration.PUBLIC_DNS_PROCESSING,
        )

    @property
    def resolver_endpoint(self) -> Endpoint:
        """The public DNS endpoint browsers resolve against."""
        return self.dns.endpoint

    # ------------------------------------------------------------------ #
    # origins

    def add_origin(self, host: str, ip: IPv4Address, rtt: float) -> "_Origin":
        """Create an origin namespace for ``host`` at ``ip``.

        ``rtt`` is the round trip from the core to the origin and back;
        the last-mile link adds its own share on top.
        """
        existing = self._origins.get(host)
        if existing is not None:
            return existing
        self._iface_counter += 1
        ns = NetworkNamespace(self.sim, f"origin-{host}")
        jitter_mean = calibration.ORIGIN_JITTER_MEAN
        pipe_to = JitterDelayPipe(self.sim, rtt / 2.0, jitter_mean, self._rng)
        pipe_back = JitterDelayPipe(self.sim, rtt / 2.0, jitter_mean, self._rng)
        veth = VethPair(
            self.sim, self.core, ns,
            f"core-o{self._iface_counter}", "uplink",
            pipe_ab=pipe_to, pipe_ba=pipe_back,
        )
        __, core_addr, origin_addr = self.allocator.allocate_subnet()
        veth.iface_a.add_address(core_addr, 30)
        veth.iface_b.add_address(origin_addr, 30)
        # The public IP is bound inside the origin namespace; the core
        # routes that /32 down the origin's veth.
        from repro.net.interface import Interface

        public_iface = Interface("public")
        ns.add_interface(public_iface)
        public_iface.add_address(ip, 32)
        self.core.routes.add(f"{ip}/32", veth.iface_a)
        ns.routes.add_default(veth.iface_b, via=core_addr)
        origin = _Origin(
            self.sim, host, ip, ns, TransportHost(self.sim, ns),
            calibration.ORIGIN_PROCESSING,
        )
        origin.rtt = rtt
        self._origins[host] = origin
        self._zone[host] = [ip]
        self.dns.add_record(host, [ip])
        return origin

    def install_site(self, site: SyntheticSite) -> None:
        """Serve a synthetic site: one origin per host, matcher-backed,
        each at its :meth:`default_rtt`."""
        store = site.to_recorded_site()
        matcher = RequestMatcher(store.pairs)
        for host, ip in site.host_ips.items():
            origin = self.add_origin(host, ip, self.default_rtt(host))
            origin.serve(matcher, ports=self._ports_for(store, ip))

    @staticmethod
    def _ports_for(store, ip) -> List[int]:
        return sorted({
            port for origin_ip, port in store.origins() if origin_ip == ip
        }) or [80]

    def default_rtt(self, host: str) -> float:
        """The Figure 3 RTT mixture: the main origin sits ~40 ms away,
        CDN hosts are nearer (anycast), third parties are scattered."""
        if host.startswith("www."):
            return calibration.MAIN_ORIGIN_RTT
        if host.startswith("cdn"):
            # Anycast CDN edges sit very close to the client — closer
            # than the main origin whose min-RTT uniform replay emulates,
            # which is exactly why replay runs slightly slower than the
            # real Web (Figure 3's +7.9%).
            return self._rng.uniform(*calibration.CDN_RTT)
        return self._rng.uniform(*calibration.THIRD_PARTY_RTT)

    def min_rtt(self, host: str) -> Optional[float]:
        """The configured core<->origin RTT for ``host`` (the quantity the
        paper measures per load and feeds to DelayShell for Figure 3)."""
        origin = self._origins.get(host)
        return origin.rtt if origin is not None else None

    # ------------------------------------------------------------------ #
    # clients

    def attach_machine(self, machine: HostMachine) -> None:
        """Connect a host machine to the core through a last-mile link."""
        self._iface_counter += 1
        last_mile_rtt = calibration.LAST_MILE_RTT
        jitter_mean = calibration.LAST_MILE_JITTER_MEAN
        pipe_down = JitterDelayPipe(
            self.sim, last_mile_rtt / 2.0, jitter_mean, self._rng
        )
        pipe_up = JitterDelayPipe(
            self.sim, last_mile_rtt / 2.0, jitter_mean, self._rng
        )
        veth = VethPair(
            self.sim, self.core, machine.namespace,
            f"core-m{self._iface_counter}", "wan0",
            pipe_ab=pipe_down, pipe_ba=pipe_up,
        )
        __, core_addr, host_addr = self.allocator.allocate_subnet()
        veth.iface_a.add_address(core_addr, 30)
        veth.iface_b.add_address(host_addr, 30)
        machine.namespace.routes.add_default(veth.iface_b, via=core_addr)
        # The host masquerades its shells' traffic onto its WAN address,
        # so the core never needs routes into shell subnets.
        if machine.namespace.nat is None:
            Nat(machine.namespace)
        machine.namespace.nat.masquerade_on(veth.iface_b)

    def __repr__(self) -> str:
        return f"<Internet origins={len(self._origins)}>"


class _Origin:
    """One origin host: namespace, servers, path parameters."""

    def __init__(
        self,
        sim: Simulator,
        host: str,
        ip: IPv4Address,
        namespace: NetworkNamespace,
        transport: TransportHost,
        processing_time: float,
    ) -> None:
        self.sim = sim
        self.host = host
        self.ip = ip
        self.namespace = namespace
        self.transport = transport
        self.processing_time = processing_time
        self.rtt: float = 0.0
        self.servers: List[HttpServer] = []

    def serve(self, matcher: RequestMatcher, ports: List[int]) -> None:
        """Start HTTP servers answering through ``matcher``."""
        for port in ports:
            self.servers.append(HttpServer(
                self.sim, self.transport, self.ip, port,
                handler=lambda req: matcher.match(req).response,
                processing_time=lambda req: self.processing_time,
                tls=(port == 443),
            ))
