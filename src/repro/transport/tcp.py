"""A TCP implementation for the simulated substrate.

This is the stack every byte in the reproduction rides on: three-way
handshake, cumulative ACKs with immediate acking, sliding window bounded by
min(cwnd, peer receive window), Jacobson/Karels RTO with Karn's rule and
exponential backoff, fast retransmit on three duplicate ACKs with
NewReno-style recovery, and FIN teardown. Sequence numbers start at zero
(ISN randomization adds nothing in a simulator); the SYN occupies sequence
0, stream byte *i* occupies sequence ``i + 1``, and the FIN occupies the
sequence after the last stream byte.

Payloads are mixed real/virtual pieces (:mod:`repro.transport.wire`), so
retransmissions re-slice the send buffer instead of holding copies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple, TYPE_CHECKING

from repro.errors import ConnectionClosed, ConnectionReset, TransportError
from repro.net.address import Endpoint
from repro.net.packet import IP_HEADER_BYTES, MTU_BYTES, TCP_HEADER_BYTES, Packet
from repro.sim.simulator import Simulator
from repro.sim.timers import Timer
from repro.transport.congestion import CongestionControl, NewReno
from repro.transport.rto import RttEstimator
from repro.transport.wire import Piece, RangeSet, ReassemblyBuffer, SendBuffer

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.transport.host import TransportHost

#: Standard Ethernet MSS: MTU minus IP and TCP headers.
DEFAULT_MSS = 1460

#: Default advertised receive window. Large enough that modern
#: autotuned-receiver behaviour (cwnd-limited, not rwnd-limited) holds.
DEFAULT_RECEIVE_WINDOW = 4 * 1024 * 1024


@dataclass
class TcpConfig:
    """Tunables for one connection (shared freely between connections).

    Attributes:
        mss: maximum segment size, bytes.
        receive_window: advertised window, bytes.
        initial_window_segments: IW for the default NewReno controller.
        min_rto / max_rto / initial_rto: RTO policy, seconds.
        dupack_threshold: duplicate ACKs that trigger fast retransmit.
        max_syn_retries: SYN / SYN-ACK retransmissions before giving up.
        congestion_control: factory ``mss -> CongestionControl``; defaults
            to NewReno with the configured initial window.
    """

    mss: int = DEFAULT_MSS
    receive_window: int = DEFAULT_RECEIVE_WINDOW
    initial_window_segments: int = 10
    min_rto: float = 0.2
    max_rto: float = 60.0
    initial_rto: float = 1.0
    dupack_threshold: int = 3
    max_syn_retries: int = 6
    congestion_control: Optional[Callable[[int], CongestionControl]] = None

    def make_congestion_control(self) -> CongestionControl:
        """Instantiate this config's congestion controller."""
        if self.congestion_control is not None:
            return self.congestion_control(self.mss)
        return NewReno(self.mss, self.initial_window_segments)


class TcpSegment:
    """One TCP segment (the payload of a "tcp" packet).

    ``flags`` is a string drawn from "S", "A", "F", "R". ``sack`` carries
    the selective-acknowledgement blocks as (start, end) sequence ranges,
    RFC 2018's meaning: one block per contiguous run the receiver holds
    above a hole. Every run is reported on every ACK — real stacks fit 3-4
    blocks in the option space and cycle through them, so the sender's
    scoreboard converges to the receiver's picture within a round trip;
    this models that converged state directly.
    """

    __slots__ = ("flags", "seq", "ack", "pieces", "data_len", "wnd", "sack")

    def __init__(
        self,
        flags: str,
        seq: int,
        ack: int,
        pieces: List[Piece],
        data_len: int,
        wnd: int,
        sack: tuple = (),
    ) -> None:
        self.flags = flags
        self.seq = seq
        self.ack = ack
        self.pieces = pieces
        self.data_len = data_len
        self.wnd = wnd
        self.sack = sack

    def __repr__(self) -> str:
        return (
            f"<TcpSegment [{self.flags}] seq={self.seq} ack={self.ack} "
            f"len={self.data_len} wnd={self.wnd}>"
        )


# Connection states (strings keep debugging output readable).
CLOSED = "CLOSED"
SYN_SENT = "SYN_SENT"
SYN_RCVD = "SYN_RCVD"
ESTABLISHED = "ESTABLISHED"
FIN_WAIT_1 = "FIN_WAIT_1"
FIN_WAIT_2 = "FIN_WAIT_2"
CLOSING = "CLOSING"
CLOSE_WAIT = "CLOSE_WAIT"
LAST_ACK = "LAST_ACK"

_DATA_STATES = frozenset({ESTABLISHED, FIN_WAIT_1, FIN_WAIT_2})
_SEND_STATES = frozenset({ESTABLISHED, CLOSE_WAIT})


class TcpConnection:
    """One endpoint of a TCP connection.

    Applications interact through :meth:`send` / :meth:`send_virtual`,
    :meth:`close`, and the assignable callbacks:

    * ``on_established()`` — handshake complete.
    * ``on_data(pieces)`` — in-order stream data arrived.
    * ``on_remote_close()`` — peer sent FIN (half-close).
    * ``on_close()`` — connection fully terminated.
    * ``on_error(exc)`` — reset or handshake failure; connection is dead.
    """

    __slots__ = (
        "sim",
        "host",
        "local",
        "remote",
        "config",
        "passive",
        "state",
        "on_established",
        "on_data",
        "on_remote_close",
        "on_close",
        "on_error",
        "_send_buffer",
        "_snd_una",
        "_snd_nxt",
        "_cc",
        "_rtt",
        "_rto_timer",
        "_dupacks",
        "_in_recovery",
        "_recover_seq",
        "_sacked",
        "_rexmit_next",
        "_lost_edge",
        "_rexmit_out",
        "_rtt_seq",
        "_rtt_time",
        "_peer_rwnd",
        "_fin_queued",
        "_fin_sent",
        "_syn_retries",
        "_write_waiter",
        "_reasm",
        "_rcv_nxt",
        "_peer_fin_seq",
        "_ack_pending",
        "_established_fired",
        "bytes_sent",
        "bytes_delivered",
        "segments_sent",
        "segments_received",
        "retransmissions",
        "established_at",
        "_obs_cwnd",
        "_obs_rto",
        "_obs_cwnd_pts",
        "_obs_rto_pts",
        "_obs_prev_cwnd",
        "_obs_prev_rto",
        "_header_bytes",
        "_rcv_wnd",
    )

    def __init__(
        self,
        sim: Simulator,
        host: "TransportHost",
        local: Endpoint,
        remote: Endpoint,
        config: Optional[TcpConfig] = None,
        passive: bool = False,
    ) -> None:
        self.sim = sim
        self.host = host
        self.local = local
        self.remote = remote
        self.config = config if config is not None else TcpConfig()
        self.passive = passive
        self.state = CLOSED

        # The per-packet header size is fixed for the connection's
        # lifetime; an mss that cannot fit the MTU is refused here rather
        # than by Packet.__init__ on the first full-size segment.
        self._header_bytes = IP_HEADER_BYTES + TCP_HEADER_BYTES
        if self.config.mss + self._header_bytes > MTU_BYTES:
            raise TransportError(
                f"mss {self.config.mss} + headers exceeds MTU {MTU_BYTES}"
            )
        self._rcv_wnd = self.config.receive_window

        # Callbacks
        self.on_established: Optional[Callable[[], None]] = None
        self.on_data: Optional[Callable[[List[Piece]], None]] = None
        self.on_remote_close: Optional[Callable[[], None]] = None
        self.on_close: Optional[Callable[[], None]] = None
        self.on_error: Optional[Callable[[Exception], None]] = None

        # Sender state
        self._send_buffer = SendBuffer()
        self._snd_una = 0
        self._snd_nxt = 0
        self._cc = self.config.make_congestion_control()
        self._rtt = RttEstimator(
            self.config.min_rto, self.config.max_rto, self.config.initial_rto
        )
        self._rto_timer = Timer(sim, self._on_rto)
        self._dupacks = 0
        self._in_recovery = False
        self._recover_seq = 0
        # SACK scoreboard: the sequence ranges the peer has reported
        # holding above snd_una.
        self._sacked = RangeSet()
        # Within a recovery episode, holes below this have been retransmitted.
        self._rexmit_next = 0
        # After an RTO, every unsacked byte below this sequence is presumed
        # lost (classic go-back-N semantics, SACK-aware).
        self._lost_edge = 0
        # Ranges retransmitted but not yet cumulatively ACKed or SACKed;
        # these count as in-flight in the pipe estimate while the holes
        # they repair are presumed lost.
        self._rexmit_out = RangeSet()
        self._rtt_seq: Optional[int] = None
        self._rtt_time = 0.0
        self._peer_rwnd = self.config.receive_window
        self._fin_queued = False
        self._fin_sent = False
        self._syn_retries = 0
        self._write_waiter: Optional[tuple] = None

        # Receiver state
        self._reasm = ReassemblyBuffer()
        self._rcv_nxt = 0
        self._peer_fin_seq: Optional[int] = None
        self._ack_pending = False
        self._established_fired = False

        # Counters (diagnostics and tests)
        self.bytes_sent = 0
        self.bytes_delivered = 0
        self.segments_sent = 0
        self.segments_received = 0
        self.retransmissions = 0
        self.established_at: Optional[float] = None

        # Observability probes: cwnd and RTO step series, recorded at the
        # points where they change (established / ACK growth / fast
        # retransmit / timeout). Handles captured once; uninstrumented
        # connections pay one None check per potential change.
        registry = sim.metrics
        if registry is not None:
            role = "server" if passive else "client"
            path = (
                f"tcp.{role}.{local.address}:{local.port}-"
                f"{remote.address}:{remote.port}"
            )
            self._obs_cwnd = registry.timeseries(f"{path}.cwnd")
            self._obs_rto = registry.timeseries(f"{path}.rto")
            self._obs_cwnd_pts = self._obs_cwnd.points
            self._obs_rto_pts = self._obs_rto.points
        else:
            self._obs_cwnd = None
            self._obs_rto = None
            self._obs_cwnd_pts = None
            self._obs_rto_pts = None
        # Last values recorded, cached as plain attributes so the per-ACK
        # probe is two compares before any series work happens.
        self._obs_prev_cwnd = -1
        self._obs_prev_rto = -1.0

    # ------------------------------------------------------------------ #
    # public API

    @property
    def cwnd(self) -> int:
        """Current congestion window, bytes."""
        return self._cc.cwnd

    @property
    def congestion(self) -> CongestionControl:
        """The congestion controller (for inspection in tests)."""
        return self._cc

    @property
    def srtt(self) -> Optional[float]:
        """Smoothed RTT estimate, seconds."""
        return self._rtt.srtt

    @property
    def is_open(self) -> bool:
        """True until the connection fully closes or errors."""
        return self.state != CLOSED or not self._established_fired

    @property
    def unsent_bytes(self) -> int:
        """Stream bytes queued but not yet transmitted (send backlog)."""
        backlog = self._send_buffer.length - max(0, self._snd_nxt - 1)
        return max(0, backlog)

    def notify_when_writable(
        self, threshold: int, callback: Callable[[], None]
    ) -> None:
        """Call ``callback`` once the send backlog drops below
        ``threshold`` bytes (application-level backpressure; one waiter
        at a time — a new registration replaces the old)."""
        if self.unsent_bytes < threshold:
            self.sim.call_soon(callback)
            return
        self._write_waiter = (threshold, callback)

    def _check_write_waiter(self) -> None:
        waiter = self._write_waiter
        if waiter is None:
            return
        threshold, callback = waiter
        if self.unsent_bytes < threshold:
            self._write_waiter = None
            callback()

    def connect(self) -> None:
        """Begin the active-open handshake (client side).

        Raises:
            TransportError: if called on a passive or non-fresh connection.
        """
        if self.passive or self.state != CLOSED or self._snd_nxt != 0:
            raise TransportError(f"connect() on {self.state} connection")
        self.state = SYN_SENT
        self._send_segment("S", seq=0)
        self._snd_nxt = 1
        self._rtt_seq = 1
        self._rtt_time = self.sim.now
        self._arm_rto()

    def send(self, data: bytes) -> None:
        """Queue real bytes on the stream (transmitted as window allows)."""
        self._queue_piece(data)

    def send_virtual(self, length: int) -> None:
        """Queue ``length`` virtual bytes (content-free payload)."""
        self._queue_piece(int(length))

    def _queue_piece(self, piece: Piece) -> None:
        if self.state in (FIN_WAIT_1, FIN_WAIT_2, CLOSING, LAST_ACK) or (
            self._fin_queued
        ):
            raise ConnectionClosed("send() after close()")
        if self.state == CLOSED and not self.passive and self._snd_nxt != 0:
            raise ConnectionClosed("send() on closed connection")
        self._send_buffer.append(piece)
        self._try_send()
        self._flush_pending_ack()

    def close(self) -> None:
        """Half-close: FIN is sent once all queued data has been sent."""
        if self._fin_queued:
            return
        self._fin_queued = True
        self._try_send()
        self._flush_pending_ack()

    def abort(self) -> None:
        """Hard reset: sends RST and tears down immediately."""
        if self.state != CLOSED or not self._established_fired:
            self._send_segment("R", seq=self._snd_nxt)
        self._teardown(notify_close=False)

    # ------------------------------------------------------------------ #
    # segment arrival (called by the TransportHost demux)

    def segment_arrived(self, segment: TcpSegment) -> None:
        """Process one arriving segment."""
        self.segments_received += 1
        flags = segment.flags
        if flags == "A":
            # Pure-ACK / data fast path: every segment after the handshake
            # carries exactly "A", so the SYN/FIN/RST flag probes are
            # skipped for the steady state.
            self._peer_rwnd = segment.wnd
            self._handle_ack(segment)
            if segment.data_len:
                self._handle_data(segment)
            self._try_send()
            self._flush_pending_ack()
            return
        if "R" in flags:
            self._handle_rst()
            return
        self._peer_rwnd = segment.wnd
        if "S" in flags:
            self._handle_syn(segment)
        if "A" in flags:
            self._handle_ack(segment)
        if segment.data_len:
            self._handle_data(segment)
        if "F" in flags:
            self._handle_fin(segment)
        self._try_send()
        self._flush_pending_ack()

    # ------------------------------------------------------------------ #
    # handshake

    def _handle_syn(self, segment: TcpSegment) -> None:
        if self.passive and self.state == CLOSED:
            # Passive open: SYN arrived at a fresh server-side connection.
            self._rcv_nxt = 1
            self.state = SYN_RCVD
            self._send_segment("SA", seq=0, ack=1)
            self._snd_nxt = 1
            self._rtt_seq = 1
            self._rtt_time = self.sim.now
            self._arm_rto()
        elif self.state == SYN_SENT and "A" in segment.flags:
            self._rcv_nxt = 1
            self._ack_pending = True
            # ACK processing (below) moves snd_una past the SYN and
            # completes establishment.
        elif self.state == SYN_RCVD:
            # Duplicate SYN: our SYN-ACK was lost — resend it (a pure ACK
            # would leave a client that never saw the SYN-ACK stuck).
            self._send_segment("SA", seq=0, ack=1)
        elif self.state in _DATA_STATES:
            # Duplicate SYN-ACK (our handshake ACK was lost): re-ack.
            self._ack_pending = True

    def _become_established(self) -> None:
        if self._established_fired:
            return
        self._established_fired = True
        self.state = ESTABLISHED
        self.established_at = self.sim.now
        self._obs_record()
        if self._snd_una == self._snd_nxt:
            self._rto_timer.stop()
        if self.on_established is not None:
            self.on_established()

    def _obs_record(self) -> None:
        """Record cwnd/RTO step points (no-op when uninstrumented).

        Runs once per ACK on bulk transfers, so it is fully inlined:
        values are compared against cached previous ones, and only
        changes pay for a clock read and a point append.
        """
        if self._obs_cwnd is None:
            return
        cwnd = self._cc.cwnd
        rto = self._rtt.rto
        cwnd_changed = cwnd != self._obs_prev_cwnd
        if not cwnd_changed and rto == self._obs_prev_rto:
            return
        now = self.sim.now
        if cwnd_changed:
            self._obs_prev_cwnd = cwnd
            self._obs_cwnd_pts.append((now, float(cwnd)))
        if rto != self._obs_prev_rto:
            self._obs_prev_rto = rto
            self._obs_rto_pts.append((now, rto))

    # ------------------------------------------------------------------ #
    # ACK processing (sender side)

    def _handle_ack(self, segment: TcpSegment) -> None:
        ack = segment.ack
        if ack > self._snd_nxt:
            return
        if self.state == SYN_SENT and "S" not in segment.flags:
            # A bare ACK while we wait for a SYN-ACK (e.g. the server's
            # response to a duplicate SYN racing its resent SYN-ACK):
            # accepting it would stop the SYN retransmission timer and
            # strand the handshake. Ignore; the SYN-ACK carries the ack.
            return
        if segment.sack:
            self._merge_sack(segment.sack)
        if ack > self._snd_una:
            old_una = self._snd_una
            self._snd_una = ack
            self._dupacks = 0
            self._rexmit_next = max(self._rexmit_next, ack)
            self._sacked.trim_below(ack)
            self._rexmit_out.trim_below(ack)
            # Advance the acknowledged prefix of the stream (sequence 0 is
            # the SYN; the FIN sequence is past the stream end).
            stream_len = self._send_buffer.length
            new_offset = min(ack - 1, stream_len)
            old_offset = min(max(old_una - 1, 0), stream_len)
            if new_offset > old_offset:
                self._send_buffer.ack_to(new_offset)
            # RTT sample (Karn's rule: _rtt_seq is cleared on retransmit).
            if self._rtt_seq is not None and ack >= self._rtt_seq:
                self._rtt.add_sample(self.sim.now - self._rtt_time)
                self._rtt_seq = None
            # Handshake completion. Requires our SYN acked AND the peer's
            # SYN seen (rcv_nxt advanced) — a bare ACK reaching a
            # SYN_SENT client whose SYN-ACK was lost must not "establish"
            # a half-open connection.
            if (self.state in (SYN_SENT, SYN_RCVD) and ack >= 1
                    and self._rcv_nxt >= 1):
                self._become_established()
            # Recovery bookkeeping, then window growth.
            if self._in_recovery:
                if ack >= self._recover_seq:
                    self._in_recovery = False
                    self._cc.on_recovery_exit()
                else:
                    # Partial ACK: more holes remain; keep repairing from
                    # the new snd_una (SACK-clocked in _try_send).
                    self._rexmit_next = max(self._rexmit_next, ack)
                    self._arm_rto()
            if self._established_fired and new_offset > old_offset:
                self._cc.on_ack(new_offset - old_offset)
                self._obs_record()
            # Teardown progress.
            if self._fin_sent and ack == self._snd_nxt:
                self._fin_acked()
            # Timer management.
            if self._snd_una == self._snd_nxt:
                self._rto_timer.stop()
            else:
                self._arm_rto()
        elif (
            ack == self._snd_una
            and self._snd_nxt > self._snd_una
            and segment.data_len == 0
            and "S" not in segment.flags
            and "F" not in segment.flags
        ):
            self._dupacks += 1
            if (
                self._dupacks == self.config.dupack_threshold
                and not self._in_recovery
            ):
                self._fast_retransmit()

    def _fast_retransmit(self) -> None:
        self._in_recovery = True
        self._recover_seq = self._snd_nxt
        self._cc.on_fast_retransmit()
        self._obs_record()
        self._rexmit_next = self._snd_una
        self._rtt_seq = None
        self._arm_rto()
        if not self._sacked:
            # Dupacks without SACK information (e.g. pure-ACK peers):
            # fall back to retransmitting the head immediately.
            self.retransmissions += 1
            self._retransmit_head()
        # _try_send (called by segment_arrived after this) performs the
        # actual SACK-clocked retransmissions under the pipe limit.

    def _fin_acked(self) -> None:
        if self.state == FIN_WAIT_1:
            self.state = FIN_WAIT_2
        elif self.state == CLOSING:
            self._teardown(notify_close=True)
        elif self.state == LAST_ACK:
            self._teardown(notify_close=True)

    # ------------------------------------------------------------------ #
    # data and FIN (receiver side)

    def _handle_data(self, segment: TcpSegment) -> None:
        if self.state not in _DATA_STATES and self.state != CLOSE_WAIT:
            return
        offset = segment.seq - 1
        reasm = self._reasm
        if offset == reasm.next_offset and not reasm._runs:
            # In-order fast path (the overwhelmingly common case): hand the
            # segment's piece list straight to the application instead of
            # copying it through the interval map. Ownership transfers
            # cleanly — the sender built the list fresh per segment.
            ready = segment.pieces
            reasm.next_offset = offset + segment.data_len
        else:
            reasm.insert(offset, segment.pieces)
            ready = reasm.pop_ready()
        self._rcv_nxt = reasm.next_offset + 1
        self._ack_pending = True
        if ready:
            delivered = sum(
                len(p) if isinstance(p, (bytes, bytearray)) else p for p in ready
            )
            self.bytes_delivered += delivered
            if self.on_data is not None:
                self.on_data(ready)
        if self._peer_fin_seq is not None and self._peer_fin_seq == self._rcv_nxt:
            self._peer_fin_seq = None
            self._process_fin()

    def _handle_fin(self, segment: TcpSegment) -> None:
        fin_seq = segment.seq + segment.data_len
        self._ack_pending = True
        if fin_seq == self._rcv_nxt:
            self._process_fin()
        elif fin_seq > self._rcv_nxt:
            self._peer_fin_seq = fin_seq

    def _process_fin(self) -> None:
        self._rcv_nxt += 1
        self._ack_pending = True
        if self.state == ESTABLISHED:
            self.state = CLOSE_WAIT
            if self.on_remote_close is not None:
                self.on_remote_close()
        elif self.state == FIN_WAIT_1:
            # Our FIN is still unacked: simultaneous close.
            self.state = CLOSING
        elif self.state == FIN_WAIT_2:
            self._send_pure_ack()
            self._teardown(notify_close=True)

    # ------------------------------------------------------------------ #
    # transmission

    def _try_send(self) -> None:
        if self.state not in _SEND_STATES:
            return
        window = min(self._cc.cwnd, self._peer_rwnd)
        # Pipe accounting (RFC 6675 flavour): unsacked bytes below the
        # highest SACKed byte are presumed lost (they no longer occupy the
        # network) unless we have retransmitted them; see _pipe_bytes.
        # While loss evidence exists, holes are repaired before new data,
        # all under the same pipe < window limit.
        # Hole repair needs loss evidence: a formal recovery episode,
        # enough SACKed bytes above a hole (RFC 6675's IsLost heuristic),
        # or an RTO having declared the outstanding window lost.
        if (
            not self._in_recovery
            and not self._sacked.total
            and self._snd_una >= self._lost_edge
        ):
            # Loss-free fast path (the steady state): no scoreboard, no
            # declared losses — repairing is trivially off and the pipe
            # estimate collapses to plain flight (what _pipe_bytes
            # computes for this state, minus its method and helper calls).
            repairing = False
            pipe = self._snd_nxt - self._snd_una
        else:
            repairing = (
                self._in_recovery
                or self._snd_una < self._lost_edge
                or self._sacked.total >= self.config.dupack_threshold * self.config.mss
            )
            pipe = self._pipe_bytes()
        while pipe < window:
            if repairing:
                hole = self._next_hole()
                if hole is not None:
                    seg_len = self._retransmit_at(*hole)
                    if seg_len <= 0:
                        break
                    self._rexmit_next = hole[0] + seg_len
                    pipe += seg_len
                    continue
            stream_sent = self._snd_nxt - 1
            available = self._send_buffer.length - stream_sent
            if available <= 0:
                break
            seg_len = min(self.config.mss, available, window - pipe)
            pieces = self._send_buffer.slice(stream_sent, seg_len)
            self._send_segment(
                "A",
                seq=self._snd_nxt,
                ack=self._rcv_nxt,
                pieces=pieces,
                data_len=seg_len,
            )
            self._snd_nxt += seg_len
            self.bytes_sent += seg_len
            pipe += seg_len
            if self._rtt_seq is None:
                self._rtt_seq = self._snd_nxt
                self._rtt_time = self.sim.now
            self._arm_rto_if_idle()
        # FIN once every stream byte has been transmitted.
        if (
            self._fin_queued
            and not self._fin_sent
            and self._snd_nxt - 1 == self._send_buffer.length
        ):
            self._send_segment("FA", seq=self._snd_nxt, ack=self._rcv_nxt)
            self._snd_nxt += 1
            self._fin_sent = True
            self.state = FIN_WAIT_1 if self.state == ESTABLISHED else LAST_ACK
            self._arm_rto_if_idle()
        self._check_write_waiter()

    def _retransmit_head(self) -> None:
        """Retransmit one segment starting at snd_una."""
        stream_len = self._send_buffer.length
        head_offset = self._snd_una - 1
        if self._snd_una == 0:
            # SYN (or SYN-ACK) retransmission.
            if self.state == SYN_SENT:
                self._send_segment("S", seq=0)
            elif self.state == SYN_RCVD:
                self._send_segment("SA", seq=0, ack=1)
            return
        if head_offset >= stream_len:
            if self._fin_sent:
                self._send_segment("FA", seq=self._snd_una, ack=self._rcv_nxt)
            return
        seg_len = min(
            self.config.mss, stream_len - head_offset, self._snd_nxt - self._snd_una
        )
        pieces = self._send_buffer.slice(head_offset, seg_len)
        self._send_segment(
            "A", seq=self._snd_una, ack=self._rcv_nxt, pieces=pieces, data_len=seg_len
        )

    def _retransmit_at(self, start_seq: int, max_end: int) -> int:
        """Retransmit one segment beginning at ``start_seq``; returns its
        length. ``max_end`` bounds the segment (the next SACKed byte)."""
        stream_len = self._send_buffer.length
        offset = start_seq - 1
        seg_len = min(
            self.config.mss,
            max_end - start_seq,
            stream_len - offset,
            self._snd_nxt - start_seq,
        )
        if seg_len <= 0:
            return 0
        pieces = self._send_buffer.slice(offset, seg_len)
        self.retransmissions += 1
        self._rexmit_out.add(start_seq, start_seq + seg_len)
        self._send_segment(
            "A", seq=start_seq, ack=self._rcv_nxt, pieces=pieces, data_len=seg_len
        )
        return seg_len

    # ------------------------------------------------------------------ #
    # SACK scoreboard

    def _merge_sack(self, blocks: Tuple[Tuple[int, int], ...]) -> None:
        """Fold an ACK's blocks into the scoreboard. Every ACK of a loss
        episode repeats the receiver's whole picture, so nearly every
        block is already held and costs one bisect."""
        sacked = self._sacked
        for start, end in blocks:
            start = max(start, self._snd_una)
            if end <= start or sacked.covers(start, end):
                continue
            sacked.add(start, end)
            # SACKed data no longer counts as a retransmission in flight
            # (a block already held took its share out when it was added).
            self._rexmit_out.remove(start, end)

    def _loss_bound(self) -> int:
        """Sequence below which unsacked bytes are presumed lost: the
        highest SACKed byte, or the RTO-declared lost edge."""
        high = self._sacked.ends[-1] if self._sacked.total else 0
        return max(high, self._lost_edge)

    def _pipe_bytes(self) -> int:
        """Estimate of bytes currently occupying the network.

        Without loss evidence this is plain flight (snd_nxt - snd_una).
        Otherwise: everything above the loss bound is in flight; SACKed
        bytes sit in the peer's buffer; unsacked bytes below the bound are
        presumed lost — except the parts we have since retransmitted
        (RFC 6675's pipe algorithm, simplified; an RTO extends the bound
        over the whole outstanding window).
        """
        bound = self._loss_bound()
        if bound <= self._snd_una:
            return self._snd_nxt - self._snd_una
        return max(0, self._snd_nxt - bound) + self._rexmit_out.total

    def _next_hole(self) -> Optional[Tuple[int, int]]:
        """The next unretransmitted presumed-lost hole, as
        (start_seq, bound); None when no repairable hole remains."""
        bound = self._loss_bound()
        cursor = max(self._snd_una, self._rexmit_next)
        # The first unsacked stretch of [cursor, bound), found from a
        # bisect at the cursor rather than a walk from the scoreboard's head.
        return next(self._sacked.gaps(cursor, bound), None)

    def _build_sack(self) -> Tuple[Tuple[int, int], ...]:
        """SACK blocks for the out-of-order runs we hold, lowest first:
        one per hole in the stream (see TcpSegment for why all of them)."""
        return tuple((start + 1, end + 1) for start, end in self._reasm.ranges())

    def _on_rto(self) -> None:
        if self._snd_una == self._snd_nxt:
            return
        if self.state in (SYN_SENT, SYN_RCVD):
            self._syn_retries += 1
            if self._syn_retries > self.config.max_syn_retries:
                self._fail(TransportError(f"handshake to {self.remote} timed out"))
                return
        self._rtt.on_timeout()
        if self._established_fired:
            self._cc.on_timeout()
        self._obs_record()
        self._in_recovery = False
        self._dupacks = 0
        self._rexmit_next = 0
        # Everything previously retransmitted is assumed gone too, and the
        # whole outstanding window is now presumed lost: hole repair
        # restarts from snd_una under the collapsed window, skipping
        # SACKed ranges (go-back-N, SACK-aware).
        self._rexmit_out = RangeSet()
        self._lost_edge = self._snd_nxt
        self._rtt_seq = None
        sent_before = self.segments_sent
        self._try_send()
        if self.segments_sent == sent_before:
            # Nothing repairable through the data path (e.g. only a FIN is
            # outstanding): fall back to retransmitting the head.
            self.retransmissions += 1
            self._retransmit_head()
        self._arm_rto()

    def _send_pure_ack(self) -> None:
        self._send_segment("A", seq=self._snd_nxt, ack=self._rcv_nxt)

    def _flush_pending_ack(self) -> None:
        if self._ack_pending:
            self._send_pure_ack()

    def _send_segment(
        self,
        flags: str,
        seq: int,
        ack: int = 0,
        pieces: Optional[List[Piece]] = None,
        data_len: int = 0,
    ) -> None:
        sack: tuple = ()
        if "A" in flags and "S" not in flags and self._reasm._runs:
            sack = self._build_sack()
        segment = TcpSegment(
            flags,
            seq,
            ack,
            pieces if pieces is not None else [],
            data_len,
            self._rcv_wnd,
            sack,
        )
        local = self.local
        remote = self.remote
        packet = Packet(
            local.address,
            remote.address,
            local.port,
            remote.port,
            "tcp",
            segment,
            self._header_bytes + data_len,
        )
        self.segments_sent += 1
        if "A" in flags:
            self._ack_pending = False
        self.host.send_packet(packet)

    # ------------------------------------------------------------------ #
    # timers / teardown

    def _arm_rto(self) -> None:
        self._rto_timer.start(self._rtt.rto)

    def _arm_rto_if_idle(self) -> None:
        if not self._rto_timer.armed:
            self._arm_rto()

    def _handle_rst(self) -> None:
        # The structured subclass lets error paths (and the chaos failure
        # taxonomy) distinguish a peer reset from other transport faults.
        self._fail(ConnectionReset(f"connection reset by {self.remote}"))

    def _fail(self, exc: Exception) -> None:
        self._teardown(notify_close=False)
        if self.on_error is not None:
            self.on_error(exc)

    def _teardown(self, notify_close: bool) -> None:
        self._rto_timer.stop()
        self.state = CLOSED
        self._established_fired = True
        self.host.connection_closed(self)
        if notify_close and self.on_close is not None:
            self.on_close()

    def __repr__(self) -> str:
        return (
            f"<TcpConnection {self.local} -> {self.remote} {self.state} "
            f"una={self._snd_una} nxt={self._snd_nxt} cwnd={self._cc.cwnd}>"
        )
