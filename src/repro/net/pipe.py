"""Packet pipes: the slot where link emulation plugs into a veth pair.

A :class:`PacketPipe` carries packets in one direction between the two ends
of a veth pair. The base pipe delivers instantly; :mod:`repro.linkem`
provides pipes that add fixed delay (DelayShell) or trace-driven pacing
(LinkShell). Pipes chain through :meth:`PacketPipe.attach_sink`: one
pipe's sink can be the next pipe's ``send``.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.net.packet import Packet
from repro.sim.simulator import Simulator

DeliverFn = Callable[[Packet], None]


class PacketPipe:
    """Abstract one-directional packet conduit.

    Subclasses implement :meth:`send`; delivery happens by calling
    ``self.deliver(packet)`` (possibly later in virtual time). The sink is
    attached once, by the veth pair or by a downstream pipe.
    """

    def __init__(self, sim: Simulator) -> None:
        self._sim = sim
        self._deliver: Optional[DeliverFn] = None
        self.packets_sent = 0
        self.packets_delivered = 0
        self.packets_dropped = 0
        self.bytes_delivered = 0

    @property
    def sim(self) -> Simulator:
        """The simulator this pipe schedules on."""
        return self._sim

    def attach_sink(self, deliver: DeliverFn) -> None:
        """Set the delivery callback (the far interface or the next pipe)."""
        self._deliver = deliver

    def send(self, packet: Packet) -> None:
        """Accept a packet for transmission. Subclasses must override."""
        raise NotImplementedError

    def deliver(self, packet: Packet) -> None:
        """Hand a packet to the attached sink (subclasses call this)."""
        if self._deliver is None:
            # A pipe with no sink is a black hole: count and drop. This is
            # what a half-configured veth does, and it must not crash the sim.
            self.packets_dropped += 1
            return
        self.packets_delivered += 1
        self.bytes_delivered += packet.size
        self._deliver(packet)


class InstantPipe(PacketPipe):
    """Delivers every packet in the same virtual instant it was sent.

    This is the default pipe of a bare veth pair — the in-simulation
    equivalent of kernel forwarding with no emulation attached. Delivery
    is deferred by one (zero-duration) event so that two stacks conversing
    across a bare veth unwind through the event loop instead of recursing
    into each other's call stacks.
    """

    def send(self, packet: Packet) -> None:
        self.packets_sent += 1
        self._sim.call_soon(self.deliver, packet)
