"""Link emulation: the machinery behind DelayShell and LinkShell.

* :class:`~repro.linkem.delay.DelayPipe` — fixed one-way delay per packet
  (DelayShell), with an optional serial per-packet processing cost that
  models the userspace shell process.
* :class:`~repro.linkem.trace.PacketDeliveryTrace` — Mahimahi's ``.trace``
  format: one millisecond timestamp per line, each line one MTU-sized
  packet-delivery opportunity; the trace repeats when exhausted.
* :class:`~repro.linkem.tracelink.TracePipe` — trace-driven pacing with
  Mahimahi's byte-budget accounting (LinkShell).
* :class:`~repro.linkem.queues.DropTailQueue` — bounded FIFO packet queue.
* :mod:`~repro.linkem.generators` — synthetic constant-rate and cellular
  trace generators.
"""

from repro.linkem.codel import CoDelQueue
from repro.linkem.delay import DelayPipe, JitterDelayPipe, LossPipe
from repro.linkem.generators import cellular_trace, constant_rate_trace
from repro.linkem.processing import SerialProcessor
from repro.linkem.queues import DropTailQueue
from repro.linkem.trace import (
    ConstantRateSchedule,
    FileTraceSchedule,
    PacketDeliveryTrace,
)
from repro.linkem.tracelink import TracePipe

__all__ = [
    "CoDelQueue",
    "ConstantRateSchedule",
    "DelayPipe",
    "DropTailQueue",
    "FileTraceSchedule",
    "JitterDelayPipe",
    "LossPipe",
    "PacketDeliveryTrace",
    "SerialProcessor",
    "TracePipe",
    "cellular_trace",
    "constant_rate_trace",
]
