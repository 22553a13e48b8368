"""RTT estimation and retransmission-timeout policy (Jacobson/Karels).

Standard TCP timing: smoothed RTT and RTT variance updated per sample
(RFC 6298 constants), RTO = SRTT + 4 * RTTVAR clamped to [min_rto, max_rto],
exponential backoff on timeout, and Karn's rule (no samples from
retransmitted segments) enforced by the caller.
"""

from __future__ import annotations

from typing import Optional


class RttEstimator:
    """Jacobson/Karels RTT estimator with exponential RTO backoff.

    Args:
        min_rto: floor for the timeout, seconds. RFC 6298 says 1 s; real
            stacks (and the latencies Mahimahi emulates) want lower, so the
            default follows Linux's 200 ms.
        max_rto: ceiling for the backed-off timeout.
        initial_rto: timeout to use before the first sample.
    """

    __slots__ = (
        "min_rto",
        "max_rto",
        "_initial_rto",
        "_srtt",
        "_rttvar",
        "_backoff",
        "samples",
        "_rto",
    )

    ALPHA = 0.125
    BETA = 0.25
    K = 4.0

    def __init__(
        self,
        min_rto: float = 0.2,
        max_rto: float = 60.0,
        initial_rto: float = 1.0,
    ) -> None:
        if not 0 < min_rto <= max_rto:
            raise ValueError("need 0 < min_rto <= max_rto")
        self.min_rto = min_rto
        self.max_rto = max_rto
        self._initial_rto = initial_rto
        self._srtt: Optional[float] = None
        self._rttvar = 0.0
        self._backoff = 1
        self.samples = 0
        self._rto = self._compute_rto()

    @property
    def srtt(self) -> Optional[float]:
        """Smoothed RTT, or None before the first sample."""
        return self._srtt

    @property
    def rttvar(self) -> float:
        """RTT variance estimate."""
        return self._rttvar

    def add_sample(self, rtt: float) -> None:
        """Feed one RTT measurement (resets any timeout backoff)."""
        if rtt < 0.0:
            raise ValueError(f"negative RTT sample: {rtt!r}")
        if self._srtt is None:
            self._srtt = rtt
            self._rttvar = rtt / 2.0
        else:
            delta = rtt - self._srtt
            self._rttvar = (1 - self.BETA) * self._rttvar + self.BETA * abs(delta)
            self._srtt = (1 - self.ALPHA) * self._srtt + self.ALPHA * rtt
        self._backoff = 1
        self.samples += 1
        self._rto = self._compute_rto()

    def _compute_rto(self) -> float:
        if self._srtt is None:
            base = self._initial_rto
        else:
            base = self._srtt + self.K * self._rttvar
        base = max(self.min_rto, min(self.max_rto, base))
        return min(self.max_rto, base * self._backoff)

    @property
    def rto(self) -> float:
        """Current retransmission timeout, including any backoff.

        Cached: recomputed only when the estimator state changes
        (:meth:`add_sample` / :meth:`on_timeout`), because timer arming
        and observability probes read it on every ACK.
        """
        return self._rto

    def on_timeout(self) -> None:
        """Double the timeout (called when the RTO timer fires)."""
        self._backoff = min(self._backoff * 2, 64)
        self._rto = self._compute_rto()

    def __repr__(self) -> str:
        srtt = f"{self._srtt * 1000:.1f}ms" if self._srtt is not None else "-"
        return f"<RttEstimator srtt={srtt} rto={self.rto * 1000:.1f}ms>"
