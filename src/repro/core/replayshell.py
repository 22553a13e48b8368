"""ReplayShell: ``mm-webreplay <recorded-folder>``.

Mirrors a recorded website while preserving its multi-origin nature:

* one web server per distinct (IP, port) pair seen during recording,
  bound to the *same* IP and port on a per-IP virtual interface inside
  the shell's namespace;
* every server holds the entire recorded content and answers through the
  request matcher (Mahimahi's CGI script);
* a namespace-local DNS server resolves every recorded hostname to its
  recorded IP, so unmodified applications work transparently.

``single_server=True`` reproduces the paper's Table 2 / Figure 3 ablation:
all hostnames resolve to one IP and a single server (per port) serves
everything. The penalty comes from server-side contention — one server's
bounded CGI throughput queues under the browser's parallel request load
where twenty servers would not — so it bites exactly where the paper
found it to: at high link speeds, where nothing else hides the queueing.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro import calibration
from repro.core.base import Shell
from repro.core.machine import HostMachine
from repro.dns.server import DnsServer
from repro.errors import ShellError
from repro.http.message import HttpRequest, HttpResponse
from repro.http.server import HttpServer
from repro.net.address import AddressAllocator, Endpoint, IPv4Address
from repro.net.interface import Interface
from repro.net.namespace import NetworkNamespace
from repro.record.matcher import RequestMatcher
from repro.record.store import RecordedSite
from repro.sim.simulator import Simulator

class ReplayShell(Shell):
    """Replay a recorded site with multi-origin preservation.

    Args:
        sim: the simulator.
        parent: enclosing namespace.
        allocator: shared shell address allocator.
        site: the recorded site to mirror.
        machine: host machine whose profile scales server compute times
            (optional; without it, compute delays are unjittered).
        single_server: serve all content from one server instead of one
            per recorded origin (the paper's ablation).
        server_workers: concurrent request slots per server (Apache
            prefork's initial pool; default
            ``calibration.SERVER_WORKERS``); the contention source in
            single-server mode.
        protocol: "http/1.1" (default) or "mux" — replay over the
            SPDY-style multiplexed framing (``ShellStack.load`` starts a
            browser speaking the same protocol). A fault
            plan's server clauses need "http/1.1".
        name: shell/namespace name.
    """

    def __init__(
        self,
        sim: Simulator,
        parent: NetworkNamespace,
        allocator: AddressAllocator,
        site: RecordedSite,
        machine: Optional[HostMachine] = None,
        single_server: bool = False,
        server_workers: Optional[int] = None,
        protocol: str = "http/1.1",
        name: str = "replayshell",
    ) -> None:
        super().__init__(sim, parent, allocator, name)
        if len(site) == 0:
            if site.damage is not None:
                raise ShellError(
                    f"recorded site {site.name!r} has no loadable pairs: "
                    f"all {len(site.damage)} pair file(s) are damaged "
                    f"(run mm-fsck on {site.damage.directory})"
                )
            raise ShellError(f"recorded site {site.name!r} is empty")
        if protocol not in ("http/1.1", "mux"):
            raise ShellError(f"unknown replay protocol: {protocol!r}")
        self.site = site
        self.machine = machine
        self.single_server = single_server
        self.protocol = protocol
        damaged = 0 if site.damage is None else len(site.damage)
        self.matcher = RequestMatcher(site.pairs, damaged_pairs=damaged)
        # Graceful degradation is only honest if it is *visible*: a site
        # salvaged by a tolerant load serves what survives, and the
        # losses land in the obs artifact instead of vanishing.
        if sim.metrics is not None:
            sim.metrics.counter("replayshell.store.pairs_loaded").add(
                len(site)
            )
            if damaged:
                sim.metrics.counter(
                    "replayshell.store.pairs_damaged"
                ).add(damaged)
        # The CGI script's cost: a fork/exec, plus one comparison per
        # recorded pair.
        self._server_processing = (
            calibration.SERVER_PROCESSING
            + calibration.SERVER_PER_PAIR * len(site)
        )
        if server_workers is None:
            server_workers = calibration.SERVER_WORKERS

        hostmap = site.hostnames()
        origins = sorted(site.origins())
        if single_server:
            # Everything binds to one IP; one server per recorded port.
            anchor_ip = origins[0][0]
            ports = sorted({port for __, port in origins})
            serve_points = [(anchor_ip, port) for port in ports]
            zone: Dict[str, List[IPv4Address]] = {
                host: [anchor_ip] for host in hostmap
            }
        else:
            serve_points = origins
            zone = {host: [ip] for host, ip in hostmap.items()}

        self.servers: List[HttpServer] = []
        bound: set = set()
        for index, (ip, port) in enumerate(serve_points):
            if ip not in bound:
                iface = Interface(f"origin{index}")
                self.namespace.add_interface(iface)
                iface.add_address(ip, 32)
                bound.add(ip)
            self.servers.append(HttpServer(
                sim, self.transport, ip, port,
                handler=self._handle,
                processing_time=self._processing_time,
                tls=(port == 443),
                max_workers=server_workers,
                protocol=protocol,
            ))

        # Namespace-local DNS (Mahimahi runs dnsmasq inside the shell).
        __, dns_addr, __unused = allocator.allocate_subnet()
        dns_iface = Interface("dns0")
        self.namespace.add_interface(dns_iface)
        dns_iface.add_address(dns_addr, 32)
        self.dns = DnsServer(
            sim, self.transport, dns_addr, zone,
            processing_time=calibration.DNS_PROCESSING,
        )

    @property
    def resolver_endpoint(self) -> Endpoint:
        """Where applications inside the shell should send DNS queries."""
        return self.dns.endpoint

    @property
    def server_count(self) -> int:
        """Number of web servers spawned (1-2 in single-server mode)."""
        return len(self.servers)

    def _handle(self, request: HttpRequest) -> HttpResponse:
        return self.matcher.match(request).response

    def _processing_time(self, request: HttpRequest) -> float:
        if self.machine is not None:
            return self.machine.compute_time(
                self._server_processing,
                key=f"cgi:{request.host}:{request.uri}",
            )
        return self._server_processing
