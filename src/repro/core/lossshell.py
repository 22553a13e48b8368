"""LossShell: ``mm-loss <direction> <loss-rate>``.

Part of the Mahimahi toolkit alongside the shells the demo paper
describes: every packet crossing the boundary in an afflicted direction is
dropped independently with the given probability. Composes with the other
shells (``mm-loss downlink 0.01 mm-link ...``) to study loss-recovery
behaviour under emulated links.

Bursty (Gilbert–Elliott) loss is a chaos clause: a one-clause ``mm-chaos``
plan (``ge-loss``) runs it.
"""

from __future__ import annotations

from repro.core.base import Shell
from repro.errors import ShellError
from repro.linkem.delay import LossPipe
from repro.net.address import AddressAllocator
from repro.net.namespace import NetworkNamespace
from repro.net.pipe import InstantPipe
from repro.sim.simulator import Simulator


class LossShell(Shell):
    """Independent random packet loss around a private namespace.

    Args:
        sim: the simulator.
        parent: enclosing namespace.
        allocator: shared shell address allocator.
        downlink_loss: drop probability, parent->child direction.
        uplink_loss: drop probability, child->parent direction.
        name: shell/namespace name.

    Loss draws come from the simulation's named streams, so runs stay
    reproducible.
    """

    def __init__(
        self,
        sim: Simulator,
        parent: NetworkNamespace,
        allocator: AddressAllocator,
        downlink_loss: float = 0.0,
        uplink_loss: float = 0.0,
        name: str = "lossshell",
    ) -> None:
        for rate in (downlink_loss, uplink_loss):
            if not 0.0 <= rate <= 1.0:
                raise ShellError(f"loss rate must be in [0, 1]: {rate!r}")
        rng = sim.streams.stream(f"loss:{name}")
        downlink = self._build_pipe(sim, rng, downlink_loss)
        uplink = self._build_pipe(sim, rng, uplink_loss)
        super().__init__(sim, parent, allocator, name, downlink, uplink)
        self.downlink_loss = downlink_loss
        self.uplink_loss = uplink_loss

    @staticmethod
    def _build_pipe(sim, rng, loss: float):
        if loss > 0.0:
            return LossPipe(sim, loss, rng)
        return InstantPipe(sim)
