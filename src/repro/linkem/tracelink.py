"""Trace-driven link pipe: the heart of LinkShell.

``mm-link up.trace down.trace`` paces each direction of the link according
to a packet-delivery trace. :class:`TracePipe` is one direction of that.

Semantics (matching Mahimahi's ``link_queue.cc``):

* arriving packets go into a drop-tail queue (unbounded by default);
* at each delivery opportunity the link gets a byte budget of one MTU;
* the budget drains the queue front-to-back — several small packets can
  share one opportunity, and a large packet may need several opportunities,
  carrying its partial progress across them;
* budget left over when the queue empties is discarded (an idle link's
  capacity cannot be banked).
"""

from __future__ import annotations

from typing import Optional, Union

from repro import calibration
from repro.linkem.processing import SerialProcessor
from repro.linkem.queues import DropTailQueue
from repro.linkem.trace import ConstantRateSchedule, FileTraceSchedule
from repro.net.packet import MTU_BYTES, Packet
from repro.net.pipe import PacketPipe
from repro.sim.simulator import Simulator

Schedule = Union[FileTraceSchedule, ConstantRateSchedule]


class TracePipe(PacketPipe):
    """One direction of a trace-driven link.

    Args:
        sim: the simulator.
        schedule: opportunity source (file trace or constant rate).
        queue: drop-tail buffer; defaults to unbounded like ``mm-link``.
        service_time: serial per-packet forwarding seconds; defaults to
            ``calibration.LINK_SERVICE_TIME``, the mm-link cost.
        obs_path: component path for observability probes (e.g.
            ``linkshell.uplink``); with a registry attached to ``sim``,
            the pipe records queue depth/bytes step series at each
            delivery opportunity (the standing backlog after the drain),
            per-opportunity utilization, and delivered/wasted-byte
            counters. Probes fire only on events the pipe already
            executes — they never schedule, and the per-packet enqueue
            path stays probe-free.
    """

    def __init__(
        self,
        sim: Simulator,
        schedule: Schedule,
        queue: Optional[DropTailQueue] = None,
        service_time: Optional[float] = None,
        obs_path: Optional[str] = None,
    ) -> None:
        super().__init__(sim)
        if service_time is None:
            service_time = calibration.LINK_SERVICE_TIME
        self._schedule = schedule
        self._queue = queue if queue is not None else DropTailQueue()
        self._processor = SerialProcessor(service_time)
        # The packet currently "on the wire" (partially transmitted across
        # opportunities). Dequeue-time disciplines (CoDel) decide drops
        # when a packet is committed to transmission, so the in-flight
        # packet lives outside the queue.
        self._current: Optional[Packet] = None
        self._current_sent = 0
        self._wake = None
        self.opportunities_used = 0
        # Probe handles, captured once at construction (None when
        # uninstrumented — the hot paths then pay one None check).
        registry = sim.metrics
        if registry is not None and obs_path is not None:
            self._obs_depth = registry.timeseries(f"{obs_path}.queue_depth")
            self._obs_bytes = registry.timeseries(f"{obs_path}.queue_bytes")
            self._obs_util = registry.timeseries(f"{obs_path}.utilization")
            self._obs_delivered = registry.counter(f"{obs_path}.bytes_delivered")
            self._obs_wasted = registry.counter(f"{obs_path}.bytes_wasted")
            self._obs_drops = registry.counter(f"{obs_path}.drops")
            # The opportunity probe is inlined: point lists captured as
            # direct handles, change detection via cached previous
            # values, counters bumped by attribute increment. Same
            # observable data as record_changed()/add(), no call frames.
            self._obs_depth_pts = self._obs_depth.points
            self._obs_bytes_pts = self._obs_bytes.points
            self._obs_util_pts = self._obs_util.points
        else:
            self._obs_depth = None
            self._obs_bytes = None
            self._obs_util = None
            self._obs_delivered = None
            self._obs_wasted = None
            self._obs_drops = None
            self._obs_depth_pts = None
            self._obs_bytes_pts = None
            self._obs_util_pts = None
        self._obs_prev_depth = -1
        self._obs_prev_bytes = -1
        self._obs_prev_util = -1.0

    @property
    def queue(self):
        """The buffer feeding the link (drop-tail or CoDel)."""
        return self._queue

    def send(self, packet: Packet) -> None:
        self.packets_sent += 1
        processor = self._processor
        if processor.service_time > 0.0:
            # The shell handles the packet before it can queue for the link.
            sim = self._sim
            sim.schedule_at(processor.finish_time(sim.now), self._enqueue, packet)
            return
        self._enqueue(packet)

    def _enqueue(self, packet: Packet) -> None:
        if not self._queue.push(packet, self._sim.now):
            self.packets_dropped += 1
            if self._obs_drops is not None:
                self._obs_drops.add(1)
            return
        if self._wake is None:
            self._schedule_wake()

    def _schedule_wake(self) -> None:
        when = self._schedule.next_opportunity(self._sim.now)
        self._wake = self._sim.schedule_at(when, self._opportunity)

    def _opportunity(self) -> None:
        self._wake = None
        self.opportunities_used += 1
        now = self._sim.now
        queue = self._queue
        budget = MTU_BYTES
        while budget > 0:
            if self._current is None:
                if not queue:
                    break
                self._current = queue.pop(now)
                if self._current is None:
                    # The discipline dropped its way to an empty queue.
                    break
                self._current_sent = 0
            remaining = self._current.size - self._current_sent
            if remaining > budget:
                self._current_sent += budget
                budget = 0
            else:
                budget -= remaining
                packet, self._current = self._current, None
                self.deliver(packet)
        if self._obs_util is not None:
            # Change-point recording: runs of identical values (a
            # full-MTU bulk transfer, a large packet held across
            # opportunities) collapse to their change points — lossless
            # for a step series and far fewer appends.
            used = MTU_BYTES - budget
            util = used / MTU_BYTES
            if util != self._obs_prev_util:
                self._obs_prev_util = util
                self._obs_util_pts.append((now, util))
            depth = len(self._queue)
            if depth != self._obs_prev_depth:
                self._obs_prev_depth = depth
                self._obs_depth_pts.append((now, depth))
            queued_bytes = self._queue.bytes
            if queued_bytes != self._obs_prev_bytes:
                self._obs_prev_bytes = queued_bytes
                self._obs_bytes_pts.append((now, queued_bytes))
            self._obs_delivered.value += used
            # Leftover budget with an empty queue is capacity an idle
            # link discards — the paper's "wasted opportunity" quantity.
            self._obs_wasted.value += budget
        if self._queue or self._current is not None:
            self._schedule_wake()
