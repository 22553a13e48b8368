"""Link-layer fault injection: one pipe applying a direction's clauses.

A :class:`ChaosPipe` is one direction of a :class:`~repro.chaos.shell.
ChaosShell`: every packet crossing it runs the direction's link clauses in
a fixed order — SYN blackhole, Gilbert–Elliott loss, corruption, reorder,
outage hold — with all randomness drawn from one injected seeded stream.
The evaluation order is fixed so the stream position after N packets is a
pure function of the arrival sequence, which is what makes the same seed
and the same plan replay the same fault pattern bit for bit.

Packets held by an outage release FIFO at the window's end: the event
queue breaks time ties by insertion order, so scheduling every held packet
at the same release time preserves arrival order by construction.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.chaos.ge import GilbertElliott
from repro.chaos.plan import (
    CorruptionClause,
    GilbertElliottClause,
    OutageClause,
    OutageSchedule,
    ReorderClause,
    SynBlackholeClause,
)
from repro.errors import ChaosError
from repro.net.packet import Packet
from repro.net.pipe import PacketPipe
from repro.sim.simulator import Simulator


class ChaosPipe(PacketPipe):
    """One direction's fault clauses applied to a packet stream.

    Args:
        sim: the simulator.
        clauses: the link clauses for this direction (outage, GE loss,
            corruption, reorder, SYN blackhole) — at most one GE clause.
        rng: seeded stream driving every stochastic clause.
        obs_path: component path for observability counters (e.g.
            ``chaos.chaosshell.downlink``); with a registry attached the
            pipe counts drops by cause and holds, and records a
            cumulative fault time series — appends on events the pipe
            already executes, never schedules (zero observer effect).
    """

    def __init__(
        self,
        sim: Simulator,
        clauses: Iterable,
        rng,
        obs_path: Optional[str] = None,
    ) -> None:
        super().__init__(sim)
        self._rng = rng
        outages = []
        blackholes = []
        self._ge: Optional[GilbertElliott] = None
        self._corrupt_rate = 0.0
        self._reorder: Optional[ReorderClause] = None
        for clause in clauses:
            if isinstance(clause, OutageClause):
                outages.append(clause)
            elif isinstance(clause, GilbertElliottClause):
                if self._ge is not None:
                    raise ChaosError(
                        "at most one Gilbert-Elliott clause per direction"
                    )
                self._ge = GilbertElliott(clause, rng)
            elif isinstance(clause, CorruptionClause):
                self._corrupt_rate += clause.rate
            elif isinstance(clause, ReorderClause):
                if self._reorder is not None:
                    raise ChaosError("at most one reorder clause per direction")
                self._reorder = clause
            elif isinstance(clause, SynBlackholeClause):
                blackholes.append(clause)
            else:
                raise ChaosError(f"not a link fault clause: {clause!r}")
        if self._corrupt_rate > 1.0:
            raise ChaosError(
                f"combined corruption rate exceeds 1: {self._corrupt_rate!r}"
            )
        self._outages = OutageSchedule(outages)
        self._blackholes = tuple(blackholes)
        self.ge_dropped = 0
        self.corrupted = 0
        self.reordered = 0
        self.blackholed = 0
        self.held = 0
        registry = sim.metrics
        if registry is not None and obs_path is not None:
            self._obs_ge = registry.counter(f"{obs_path}.ge_dropped")
            self._obs_corrupt = registry.counter(f"{obs_path}.corrupted")
            self._obs_reorder = registry.counter(f"{obs_path}.reordered")
            self._obs_blackhole = registry.counter(f"{obs_path}.blackholed")
            self._obs_held = registry.counter(f"{obs_path}.held")
            self._obs_faults = registry.timeseries(f"{obs_path}.faults")
        else:
            self._obs_ge = None
            self._obs_corrupt = None
            self._obs_reorder = None
            self._obs_blackhole = None
            self._obs_held = None
            self._obs_faults = None

    def _obs_fault(self, counter) -> None:
        if counter is not None:
            counter.add(1)
            self._obs_faults.record(
                self._sim.now,
                self.ge_dropped + self.corrupted + self.reordered
                + self.blackholed + self.held,
            )

    def send(self, packet: Packet) -> None:
        self.packets_sent += 1
        now = self._sim.now
        if self._blackholes and packet.protocol == "tcp":
            flags = getattr(packet.payload, "flags", "")
            if "S" in flags and any(b.active(now) for b in self._blackholes):
                self.packets_dropped += 1
                self.blackholed += 1
                self._obs_fault(self._obs_blackhole)
                return
        if self._ge is not None and self._ge.should_drop():
            self.packets_dropped += 1
            self.ge_dropped += 1
            self._obs_fault(self._obs_ge)
            return
        if self._corrupt_rate > 0.0 and self._rng.random() < self._corrupt_rate:
            # A corrupted packet fails its checksum downstream: same fate
            # as a drop, separate cause in the ledger.
            self.packets_dropped += 1
            self.corrupted += 1
            self._obs_fault(self._obs_corrupt)
            return
        deliver_at = now
        if (self._reorder is not None
                and self._rng.random() < self._reorder.probability):
            deliver_at = now + self._reorder.extra_delay
            self.reordered += 1
            self._obs_fault(self._obs_reorder)
        if self._outages:
            release = self._outages.release_time(deliver_at)
            if release > deliver_at:
                deliver_at = release
                self.held += 1
                self._obs_fault(self._obs_held)
        if deliver_at > now:
            self._sim.schedule_at(deliver_at, self.deliver, packet)
        else:
            self._sim.call_soon(self.deliver, packet)

    @property
    def faults_injected(self) -> int:
        """Total fault decisions taken (drops, holds, reorders)."""
        return (
            self.ge_dropped + self.corrupted + self.reordered
            + self.blackholed + self.held
        )
