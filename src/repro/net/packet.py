"""The packet model.

A :class:`Packet` is an IP datagram with the transport 4-tuple hoisted into
the packet itself (a standard simulator simplification: NAT and demux need
the ports, and keeping them at top level avoids reaching into opaque
payloads). The ``payload`` field carries a transport-specific segment object
(:class:`~repro.transport.tcp.TcpSegment`,
:class:`~repro.transport.udp.UdpDatagram`, ...) that the network layer never
inspects; only ``size`` matters to links and queues.
"""

from __future__ import annotations

import itertools
from typing import Any

from repro.net.address import IPv4Address

#: Ethernet-framed MTU used throughout, matching Mahimahi's traces (an MTU-
#: sized delivery opportunity covers one full-size packet).
MTU_BYTES = 1500

#: IPv4 header without options.
IP_HEADER_BYTES = 20

#: TCP header without options.
TCP_HEADER_BYTES = 20

#: UDP header.
UDP_HEADER_BYTES = 8

_packet_ids = itertools.count(1)


class Packet:
    """One IP datagram in flight.

    Attributes:
        src / dst: IP addresses (rewritten in place by NAT).
        sport / dport: transport ports (0 for port-less protocols).
        protocol: "tcp", "udp", or "icmp".
        payload: opaque transport segment; links treat it as ballast.
        size: total on-wire bytes including IP and transport headers.
        ttl: decremented on every forward; the packet is dropped at zero.
        uid: unique id for tracing and test assertions.
    """

    __slots__ = ("src", "dst", "sport", "dport", "protocol", "payload",
                 "size", "ttl", "uid")

    def __init__(
        self,
        src: IPv4Address,
        dst: IPv4Address,
        sport: int,
        dport: int,
        protocol: str,
        payload: Any,
        size: int,
        ttl: int = 64,
    ) -> None:
        if size < IP_HEADER_BYTES:
            raise ValueError(f"packet smaller than an IP header: {size!r}")
        if size > MTU_BYTES:
            raise ValueError(f"packet exceeds MTU ({MTU_BYTES}): {size!r}")
        self.src = src
        self.dst = dst
        self.sport = sport
        self.dport = dport
        self.protocol = protocol
        self.payload = payload
        self.size = size
        self.ttl = ttl
        self.uid = next(_packet_ids)

    @property
    def flow(self) -> tuple:
        """The 5-tuple identifying this packet's flow."""
        return (self.protocol, self.src, self.sport, self.dst, self.dport)

    def reply_flow(self) -> tuple:
        """The 5-tuple a reply to this packet would carry."""
        return (self.protocol, self.dst, self.dport, self.src, self.sport)

    def __repr__(self) -> str:
        return (
            f"<Packet #{self.uid} {self.protocol} "
            f"{self.src}:{self.sport} -> {self.dst}:{self.dport} "
            f"{self.size}B ttl={self.ttl}>"
        )


def tcp_packet(
    src: IPv4Address,
    dst: IPv4Address,
    sport: int,
    dport: int,
    payload: Any,
    data_len: int,
) -> Packet:
    """Build a TCP packet; ``data_len`` is the payload byte count."""
    size = IP_HEADER_BYTES + TCP_HEADER_BYTES + data_len
    return Packet(src, dst, sport, dport, "tcp", payload, size)


def udp_packet(
    src: IPv4Address,
    dst: IPv4Address,
    sport: int,
    dport: int,
    payload: Any,
    data_len: int,
) -> Packet:
    """Build a UDP packet; ``data_len`` is the datagram byte count."""
    size = IP_HEADER_BYTES + UDP_HEADER_BYTES + data_len
    return Packet(src, dst, sport, dport, "udp", payload, size)
