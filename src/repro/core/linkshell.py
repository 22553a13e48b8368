"""LinkShell: ``mm-link <uplink.trace> <downlink.trace>``.

Packets entering the link go straight into the uplink or downlink queue;
the queue drains according to the corresponding packet-delivery trace —
each trace line one MTU-sized delivery opportunity, byte budgets carrying
partially-sent packets across opportunities, the trace repeating when
exhausted. Queues are unbounded by default (mm-link's default); bounded
drop-tail queues turn on loss.
"""

from __future__ import annotations

from typing import Optional, Union

from repro.core.base import Shell
from repro.linkem.trace import (
    ConstantRateSchedule,
    FileTraceSchedule,
    PacketDeliveryTrace,
)
from repro.linkem.tracelink import TracePipe
from repro.net.address import AddressAllocator
from repro.net.namespace import NetworkNamespace
from repro.sim.simulator import Simulator

TraceLike = Union[PacketDeliveryTrace, float]


def _make_schedule(trace: TraceLike, start_time: float):
    """A trace object becomes a file schedule; a number is Mbit/s."""
    if isinstance(trace, PacketDeliveryTrace):
        return FileTraceSchedule(trace, start_time)
    return ConstantRateSchedule(float(trace) * 1e6, start_time)


class LinkShell(Shell):
    """A trace-driven link around a private namespace.

    Args:
        sim: the simulator.
        parent: enclosing namespace.
        allocator: shared shell address allocator.
        uplink: trace (or constant rate in Mbit/s) for child->parent.
        downlink: trace (or constant rate in Mbit/s) for parent->child.
        uplink_queue / downlink_queue: queue disciplines — DropTailQueue
            or CoDelQueue (default: unbounded drop-tail, like mm-link).
        name: shell/namespace name.
    """

    def __init__(
        self,
        sim: Simulator,
        parent: NetworkNamespace,
        allocator: AddressAllocator,
        uplink: TraceLike,
        downlink: TraceLike,
        uplink_queue: Optional[object] = None,
        downlink_queue: Optional[object] = None,
        name: str = "linkshell",
    ) -> None:
        start = sim.now
        down_pipe = TracePipe(
            sim, _make_schedule(downlink, start), downlink_queue,
            obs_path=f"{name}.downlink",
        )
        up_pipe = TracePipe(
            sim, _make_schedule(uplink, start), uplink_queue,
            obs_path=f"{name}.uplink",
        )
        super().__init__(sim, parent, allocator, name, down_pipe, up_pipe)

    @property
    def downlink_queue(self):
        """The downlink (toward the app) buffer."""
        return self.downlink_pipe.queue

    @property
    def uplink_queue(self):
        """The uplink (toward the parent) buffer."""
        return self.uplink_pipe.queue
