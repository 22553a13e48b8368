"""Congestion control: NewReno, the one controller.

:class:`NewReno` does slow start with an initial window of 10
segments (RFC 6928), AIMD congestion avoidance, window halving on fast
retransmit, and collapse to one segment on a retransmission timeout. The
page-load shapes in every figure — bandwidth ramps, loss recovery on
bounded queues — come from here.
"""

from __future__ import annotations


class NewReno:
    """Slow start + AIMD + multiplicative decrease (NewReno flavour).

    Args:
        mss: sender maximum segment size, bytes.
        initial_window_segments: IW in segments (RFC 6928 default 10).
        initial_ssthresh: initial slow-start threshold in bytes
            (effectively infinite by default).
    """

    __slots__ = (
        "mss",
        "_iw",
        "_cwnd",
        "_ssthresh",
        "_in_recovery",
        "_ca_accumulator",
    )

    def __init__(
        self,
        mss: int,
        initial_window_segments: int = 10,
        initial_ssthresh: int = 1 << 30,
    ) -> None:
        if mss <= 0:
            raise ValueError(f"mss must be positive, got {mss!r}")
        self.mss = mss
        self._iw = initial_window_segments * mss
        self._cwnd = self._iw
        self._ssthresh = initial_ssthresh
        self._in_recovery = False
        self._ca_accumulator = 0

    @property
    def cwnd(self) -> int:
        """Current congestion window in bytes."""
        return self._cwnd

    @property
    def ssthresh(self) -> int:
        """Current slow-start threshold in bytes."""
        return self._ssthresh

    @property
    def in_slow_start(self) -> bool:
        """True while cwnd is below ssthresh (exponential growth phase)."""
        return self._cwnd < self._ssthresh

    @property
    def in_recovery(self) -> bool:
        """True between fast retransmit and recovery exit."""
        return self._in_recovery

    def on_ack(self, acked_bytes: int) -> None:
        if self._in_recovery:
            # Window is frozen during recovery; growth resumes on exit.
            return
        if self.in_slow_start:
            self._cwnd += acked_bytes
            return
        # Congestion avoidance: one MSS per window's worth of ACKed bytes.
        self._ca_accumulator += acked_bytes
        if self._ca_accumulator >= self._cwnd:
            self._ca_accumulator -= self._cwnd
            self._cwnd += self.mss

    def on_fast_retransmit(self) -> None:
        self._ssthresh = max(self._cwnd // 2, 2 * self.mss)
        self._cwnd = self._ssthresh
        self._in_recovery = True
        self._ca_accumulator = 0

    def on_recovery_exit(self) -> None:
        self._in_recovery = False

    def on_timeout(self) -> None:
        self._ssthresh = max(self._cwnd // 2, 2 * self.mss)
        self._cwnd = self.mss
        self._in_recovery = False
        self._ca_accumulator = 0

    def __repr__(self) -> str:
        phase = "ss" if self.in_slow_start else "ca"
        if self._in_recovery:
            phase = "recovery"
        return f"<NewReno cwnd={self._cwnd} ssthresh={self._ssthresh} {phase}>"

