"""DelayShell: ``mm-delay <one-way-delay-ms>``.

All packets crossing the shell boundary are held in a queue — one per
direction — and released after the user-specified one-way delay, enforcing
a fixed per-packet delay. A 0 ms DelayShell is the paper's probe for the
toolkit's own overhead (Figure 2).
"""

from __future__ import annotations

from repro.core.base import Shell
from repro.errors import ShellError
from repro.linkem.delay import DelayPipe
from repro.net.address import AddressAllocator
from repro.net.namespace import NetworkNamespace
from repro.sim.simulator import Simulator


class DelayShell(Shell):
    """A fixed one-way-delay link around a private namespace.

    Args:
        sim: the simulator.
        parent: enclosing namespace.
        allocator: shared shell address allocator.
        one_way_delay: seconds of delay each direction (``mm-delay 40``
            is ``one_way_delay=0.040``).
        name: shell/namespace name.
    """

    def __init__(
        self,
        sim: Simulator,
        parent: NetworkNamespace,
        allocator: AddressAllocator,
        one_way_delay: float,
        name: str = "delayshell",
    ) -> None:
        if one_way_delay < 0.0:
            raise ShellError(f"negative delay: {one_way_delay!r}")
        self.one_way_delay = one_way_delay
        downlink = DelayPipe(sim, one_way_delay)
        uplink = DelayPipe(sim, one_way_delay)
        super().__init__(sim, parent, allocator, name, downlink, uplink)
