"""Transport layer: TCP (with congestion control), UDP, and a TLS cost model.

The kernel TCP stack Mahimahi rides on is replaced by
:class:`~repro.transport.tcp.TcpConnection`: a byte-stream with three-way
handshake, cumulative ACKs, Jacobson/Karels RTO estimation, NewReno-style
slow start / AIMD / fast retransmit, and loss via drop-tail queues. Page
load dynamics — handshake RTTs, bandwidth-limited transfers, bufferbloat on
unbounded queues — emerge from this machinery rather than being scripted.

Payload bytes are *mixed real/virtual*
(:mod:`~repro.transport.wire`): HTTP headers travel as real bytes, bodies
as counted virtual bytes, so a megabyte page costs a handful of Python
objects instead of a megabyte of copies.
"""

from repro.transport.congestion import NewReno
from repro.transport.host import TransportHost
from repro.transport.rto import RttEstimator
from repro.transport.tcp import TcpConnection, TcpSegment
from repro.transport.udp import UdpDatagram, UdpSocket
from repro.transport.wire import (
    ReassemblyBuffer,
    SendBuffer,
    pieces_len,
    pieces_slice,
    pieces_split,
)

__all__ = [
    "NewReno",
    "ReassemblyBuffer",
    "RttEstimator",
    "SendBuffer",
    "TcpConnection",
    "TcpSegment",
    "TransportHost",
    "UdpDatagram",
    "UdpSocket",
    "pieces_len",
    "pieces_slice",
    "pieces_split",
]
