"""Network namespaces: the isolation primitive.

A :class:`NetworkNamespace` is a private network stack — its own interfaces,
addresses, routing table, transport sockets, and DNS override map. Packets
can only enter or leave through an interface wired to a veth pair, which is
precisely the isolation property §4 of the paper claims: traffic inside one
namespace cannot observe or perturb traffic in any other.

Local delivery (a connection between two addresses owned by the same
namespace — e.g. a browser running directly inside ReplayShell talking to
the replay servers) goes over a simulated loopback with a small configurable
latency that models kernel stack traversal.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, TYPE_CHECKING

from repro.errors import NamespaceError
from repro.net.address import IPv4Address
from repro.net.interface import Interface
from repro.net.packet import Packet
from repro.net.routing import RoutingTable
from repro.sim.simulator import Simulator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.net.nat import Nat

#: Default one-way latency of the simulated loopback path, seconds. Models
#: the cost of traversing the local stack twice (send + receive).
DEFAULT_LOOPBACK_LATENCY = 25e-6


class NetworkNamespace:
    """A private, isolated network stack.

    Args:
        sim: the simulator whose clock this namespace lives on.
        name: diagnostic name (shells name theirs after themselves).
        loopback_latency: one-way delay for namespace-local connections.
    """

    def __init__(
        self,
        sim: Simulator,
        name: str,
        loopback_latency: float = DEFAULT_LOOPBACK_LATENCY,
    ) -> None:
        self.sim = sim
        self.name = name
        self.loopback_latency = loopback_latency
        self.routes = RoutingTable()
        self.nat: Optional["Nat"] = None
        self.forwarding_delay = 0.0
        # Netfilter-style hooks. Prerouting hooks run on every packet
        # entering the namespace (before the local-delivery decision) and
        # may rewrite it — this is where RecordShell's REDIRECT lives.
        # Postrouting hooks run on every packet leaving (forwarded or
        # originated), after NAT.
        self.prerouting_hooks: list = []
        self.postrouting_hooks: list = []
        self._interfaces: Dict[str, Interface] = {}
        # Raw 32-bit value -> address, in registration order: the
        # per-packet local test probes it with a plain int.
        self._local: Dict[int, IPv4Address] = {}
        self._transport_receive: Optional[Callable[[Packet], None]] = None
        self.forwarded_packets = 0
        self.delivered_packets = 0
        self.dropped_packets = 0

    # ------------------------------------------------------------------ #
    # configuration

    def add_interface(self, interface: Interface) -> Interface:
        """Attach an interface to this namespace.

        Raises:
            NamespaceError: on duplicate interface name or double-attach.
        """
        if interface.name in self._interfaces:
            raise NamespaceError(
                f"{self.name}: duplicate interface name {interface.name!r}"
            )
        if interface.namespace is not None:
            raise NamespaceError(
                f"{interface.name} is already attached to "
                f"{interface.namespace.name!r}"
            )
        interface.namespace = self
        self._interfaces[interface.name] = interface
        return interface

    def interface(self, name: str) -> Interface:
        """Look up an attached interface by name."""
        try:
            return self._interfaces[name]
        except KeyError:
            raise NamespaceError(f"{self.name}: no interface {name!r}") from None

    @property
    def interfaces(self) -> Dict[str, Interface]:
        """Name → interface map (a copy)."""
        return dict(self._interfaces)

    def register_address(self, address: IPv4Address) -> None:
        """Record that ``address`` is local to this namespace."""
        self._local[address._value] = address

    def is_local(self, address: IPv4Address) -> bool:
        """True if ``address`` belongs to this namespace (or is loopback)."""
        value = address._value
        return value in self._local or (value >> 24) == 127

    def any_local_address(self) -> IPv4Address:
        """Some address owned by this namespace (the first registered).

        Raises:
            NamespaceError: if no interface has an address yet.
        """
        for address in self._local.values():
            return address
        raise NamespaceError(f"{self.name}: no local addresses")

    def attach_transport(self, receive: Callable[[Packet], None]) -> None:
        """Wire the transport layer's receive entry point."""
        self._transport_receive = receive

    # ------------------------------------------------------------------ #
    # datapath

    def handle_packet(self, packet: Packet, in_interface: Interface) -> None:
        """Process a packet that arrived on ``in_interface``."""
        for hook in self.prerouting_hooks:
            hook(packet, in_interface)
        if self.nat is not None:
            # Reverse-translate traffic returning to a NATed inner host.
            self.nat.translate_inbound(packet)
        if self.is_local(packet.dst):
            self._deliver_local(packet)
            return
        self._forward(packet)

    def originate(self, packet: Packet) -> None:
        """Send a packet created by this namespace's own transport layer."""
        if self.is_local(packet.dst):
            # Namespace-local connection: loop it back after the loopback
            # latency, never touching any interface.
            self.sim.schedule(self.loopback_latency, self._deliver_local, packet)
            return
        self._forward(packet, originated=True)

    def _forward(self, packet: Packet, originated: bool = False) -> None:
        route = self.routes.lookup_value(packet.dst._value)
        if route is None:
            self.dropped_packets += 1
            return
        if not originated:
            packet.ttl -= 1
            if packet.ttl <= 0:
                self.dropped_packets += 1
                return
            self.forwarded_packets += 1
        if self.nat is not None:
            self.nat.translate_outbound(packet, route.interface)
        for hook in self.postrouting_hooks:
            hook(packet)
        if self.forwarding_delay > 0.0 and not originated:
            self.sim.schedule(self.forwarding_delay, route.interface.send, packet)
        else:
            route.interface.send(packet)

    def _deliver_local(self, packet: Packet) -> None:
        if self._transport_receive is None:
            self.dropped_packets += 1
            return
        self.delivered_packets += 1
        self._transport_receive(packet)

    def __repr__(self) -> str:
        return (
            f"<NetworkNamespace {self.name!r} "
            f"ifaces={sorted(self._interfaces)} "
            f"addrs={len(self._local)}>"
        )
