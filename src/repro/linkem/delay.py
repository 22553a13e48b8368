"""Fixed one-way delay pipe: the heart of DelayShell.

``mm-delay 40`` holds every packet, in each direction, for exactly 40 ms.
:class:`DelayPipe` is one direction of that: packets first pass through the
shell's serial per-packet processing stage, then wait the configured
one-way delay. Because the delay is constant and processing is FIFO,
ordering is preserved by construction.
"""

from __future__ import annotations

from repro.linkem.overhead import OverheadModel
from repro.linkem.processing import SerialProcessor
from repro.net.packet import Packet
from repro.net.pipe import PacketPipe
from repro.sim.simulator import Simulator


class DelayPipe(PacketPipe):
    """One direction of a fixed-delay link.

    Args:
        sim: the simulator.
        one_way_delay: seconds each packet is held (>= 0).
        overhead: per-packet forwarding cost model; defaults to the
            calibrated mm-delay cost. Pass ``OverheadModel.none()`` for an
            ideal delay element.
    """

    def __init__(
        self,
        sim: Simulator,
        one_way_delay: float,
        overhead: OverheadModel = None,
    ) -> None:
        super().__init__(sim)
        if one_way_delay < 0.0:
            raise ValueError(f"delay must be >= 0, got {one_way_delay!r}")
        if overhead is None:
            overhead = OverheadModel.delay_shell()
        self.one_way_delay = one_way_delay
        self._processor = SerialProcessor(overhead.service_time)

    def send(self, packet: Packet) -> None:
        self.packets_sent += 1
        sim = self._sim
        processed_at = self._processor.finish_time(sim.now)
        sim.schedule_at(processed_at + self.one_way_delay, self.deliver, packet)


class LossPipe(PacketPipe):
    """Independent random loss (``mm-loss``).

    Each packet is dropped with probability ``loss_rate``; survivors pass
    through instantly (compose with DelayPipe/TracePipe for delay or
    pacing, exactly as ``mm-loss`` composes with the other shells).
    """

    def __init__(self, sim: Simulator, loss_rate: float, rng) -> None:
        super().__init__(sim)
        if not 0.0 <= loss_rate <= 1.0:
            raise ValueError(f"loss rate must be in [0, 1]: {loss_rate!r}")
        self.loss_rate = loss_rate
        self._rng = rng

    def send(self, packet: Packet) -> None:
        self.packets_sent += 1
        if self.loss_rate > 0.0 and self._rng.random() < self.loss_rate:
            self.packets_dropped += 1
            return
        self._sim.call_soon(self.deliver, packet)


class JitterDelayPipe(PacketPipe):
    """A delay pipe with per-packet random jitter (the live Internet).

    Models queueing from cross traffic on a real path: each packet waits
    ``base_delay`` plus a draw from an exponential with mean
    ``jitter_mean``. Delivery order is preserved (a packet never overtakes
    one sent before it), like FIFO queues along a route.

    Used by :mod:`repro.web` for the "actual Web" paths of Figure 3 — the
    emulation shells never jitter.
    """

    def __init__(
        self,
        sim: Simulator,
        base_delay: float,
        jitter_mean: float,
        rng,
    ) -> None:
        super().__init__(sim)
        if base_delay < 0.0 or jitter_mean < 0.0:
            raise ValueError("delays must be >= 0")
        self.base_delay = base_delay
        self.jitter_mean = jitter_mean
        self._rng = rng
        self._last_delivery = 0.0

    def send(self, packet: Packet) -> None:
        self.packets_sent += 1
        jitter = (
            self._rng.expovariate(1.0 / self.jitter_mean)
            if self.jitter_mean > 0.0
            else 0.0
        )
        deliver_at = self._sim.now + self.base_delay + jitter
        if deliver_at < self._last_delivery:
            deliver_at = self._last_delivery
        self._last_delivery = deliver_at
        self._sim.schedule_at(deliver_at, self.deliver, packet)
