"""Network interfaces.

An :class:`Interface` lives inside exactly one namespace, owns zero or more
addresses, and transmits through a :class:`~repro.net.pipe.PacketPipe`
attached by the veth pair that created it. ReplayShell's per-origin virtual
interfaces are plain :class:`Interface` objects with no pipe at all — they
exist only to make an address local to the namespace, exactly like a Linux
dummy interface with an address assigned.
"""

from __future__ import annotations

from typing import List, Optional, TYPE_CHECKING

from repro.errors import InterfaceError
from repro.net.address import IPv4Address, IPv4Network
from repro.net.packet import Packet
from repro.net.pipe import PacketPipe

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.net.namespace import NetworkNamespace


class Interface:
    """A simulated network interface.

    Attributes:
        name: interface name, unique within its namespace.
        namespace: owning namespace (set when attached).
        up: administrative state; a downed interface drops everything.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self.namespace: Optional["NetworkNamespace"] = None
        self.up = True
        self._addresses: List[IPv4Address] = []
        self._tx: Optional[PacketPipe] = None
        self.tx_packets = 0
        self.rx_packets = 0
        self.tx_bytes = 0
        self.rx_bytes = 0
        self.drops = 0

    @property
    def addresses(self) -> List[IPv4Address]:
        """Addresses assigned to this interface."""
        return list(self._addresses)

    @property
    def primary_address(self) -> IPv4Address:
        """The first assigned address.

        Raises:
            InterfaceError: if no address is assigned.
        """
        if not self._addresses:
            raise InterfaceError(f"{self.name}: no address assigned")
        return self._addresses[0]

    def add_address(self, address, prefix_len: int = 32) -> IPv4Address:
        """Assign an address; installs a connected route in the namespace.

        Raises:
            InterfaceError: if the interface is not attached to a namespace.
        """
        if self.namespace is None:
            raise InterfaceError(
                f"{self.name}: attach to a namespace before adding addresses"
            )
        addr = address if isinstance(address, IPv4Address) else IPv4Address(address)
        self._addresses.append(addr)
        self.namespace.register_address(addr)
        if prefix_len < 32:
            self.namespace.routes.add(IPv4Network(addr, prefix_len), self)
        return addr

    def attach_tx(self, pipe: PacketPipe) -> None:
        """Attach the transmit pipe (done by the veth pair)."""
        self._tx = pipe

    def send(self, packet: Packet) -> None:
        """Transmit a packet out this interface.

        Silently drops when the interface is down or has no carrier — the
        same behaviour as a real NIC, and what lets tests yank cables.
        """
        if not self.up or self._tx is None:
            self.drops += 1
            return
        self.tx_packets += 1
        self.tx_bytes += packet.size
        self._tx.send(packet)

    def receive(self, packet: Packet) -> None:
        """Entry point for packets arriving from the wire."""
        if not self.up or self.namespace is None:
            self.drops += 1
            return
        self.rx_packets += 1
        self.rx_bytes += packet.size
        self.namespace.handle_packet(packet, self)

    def __repr__(self) -> str:
        addrs = ",".join(str(a) for a in self._addresses) or "-"
        ns = self.namespace.name if self.namespace else "detached"
        return f"<Interface {ns}/{self.name} {addrs}>"
