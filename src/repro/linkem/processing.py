"""Serial per-packet processing cost.

A Mahimahi shell is a userspace process that reads, handles, and writes
every packet crossing its boundary. That costs a small, roughly constant
amount of CPU per packet, and — crucially for Figure 2 — the cost is
*serial*: a burst of packets drains through the shell one at a time, so the
overhead accumulates across a burst instead of merely shifting it.

:class:`SerialProcessor` models the shell as a single server with a constant
service time. ``finish_time(now)`` returns when the packet entering service
now would be done, advancing the server's busy horizon.
"""

from __future__ import annotations


class SerialProcessor:
    """Single-server queue with deterministic service time.

    Args:
        service_time: seconds of processing per packet. Zero disables the
            model (``finish_time`` returns ``now``).
    """

    __slots__ = ("service_time", "_busy_until", "packets_processed")

    def __init__(self, service_time: float) -> None:
        if service_time < 0.0:
            raise ValueError(f"service_time must be >= 0, got {service_time!r}")
        self.service_time = service_time
        self._busy_until = 0.0
        self.packets_processed = 0

    def finish_time(self, now: float) -> float:
        """Admit one packet at ``now``; return its processing-complete time."""
        if self.service_time <= 0.0:  # constructor guarantees >= 0
            return now
        start = now if now > self._busy_until else self._busy_until
        self._busy_until = start + self.service_time
        self.packets_processed += 1
        return self._busy_until
