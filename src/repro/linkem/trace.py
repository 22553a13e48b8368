"""Packet-delivery traces (Mahimahi's ``.trace`` format).

A trace is a text file with one integer millisecond timestamp per line.
Each line is a *packet-delivery opportunity*: the instant at which the
emulated link can deliver up to one MTU's worth of bytes. Multiple lines
may carry the same timestamp (several opportunities in one millisecond —
how high rates are expressed at millisecond granularity). When the trace is
exhausted it repeats, offset by its final timestamp, exactly as ``mm-link``
loops its traces.

Two schedule implementations answer "when is the next unconsumed
opportunity at or after time t?":

* :class:`FileTraceSchedule` — walks a (repeating) explicit trace, with
  O(log n) fast-forward over idle gaps.
* :class:`ConstantRateSchedule` — closed-form opportunities for a fixed
  rate, used where an explicit trace would be needlessly large.
"""

from __future__ import annotations

import bisect
import io
import math
from typing import Iterable, List, Sequence

from repro.errors import TraceError
from repro.net.packet import MTU_BYTES


class PacketDeliveryTrace:
    """An immutable parsed trace.

    Args:
        times_ms: non-decreasing, non-negative integer timestamps. The last
            timestamp defines the trace period for wrap-around and must be
            positive.
        lines: the source line of each timestamp, named in errors
            (:meth:`from_lines` passes them).
    """

    def __init__(self, times_ms: Sequence[int], lines: Sequence[int] = ()) -> None:
        times = [int(t) for t in times_ms]
        if not times:
            raise TraceError("trace has no delivery opportunities")
        previous = 0
        for index, t in enumerate(times):
            at = f"line {lines[index]}: " if lines else ""
            if t < 0:
                raise TraceError(f"{at}negative timestamp in trace: {t}")
            if t < previous:
                raise TraceError(
                    f"{at}timestamps must be non-decreasing ({t} after {previous})")
            previous = t
        if times[-1] <= 0:
            raise TraceError(f"{at}final timestamp (trace period) must be positive")
        self._times = times

    @property
    def times_ms(self) -> List[int]:
        """The opportunity timestamps (copy)."""
        return list(self._times)

    @property
    def period_ms(self) -> int:
        """Wrap-around period: the final timestamp."""
        return self._times[-1]

    def __len__(self) -> int:
        return len(self._times)

    @property
    def average_rate_bps(self) -> float:
        """Mean delivery rate over one period, bits per second."""
        return len(self._times) * MTU_BYTES * 8 * 1000.0 / self.period_ms

    @property
    def average_rate_mbps(self) -> float:
        """Mean delivery rate over one period, Mbit/s."""
        return self.average_rate_bps / 1e6

    # ------------------------------------------------------------------ #
    # I/O

    @classmethod
    def from_lines(cls, lines: Iterable[str]) -> "PacketDeliveryTrace":
        """Parse trace text; blank lines and ``#`` comments are ignored."""
        times: List[int] = []
        linenos: List[int] = []
        for lineno, raw in enumerate(lines, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            try:
                times.append(int(line))
            except ValueError:
                raise TraceError(
                    f"line {lineno}: not an integer timestamp: {line!r}"
                ) from None
            linenos.append(lineno)
        return cls(times, lines=linenos)

    @classmethod
    def from_file(cls, path) -> "PacketDeliveryTrace":
        """Load a trace from a file path. Every failure — unreadable, not
        UTF-8, not a trace — is a :class:`TraceError` naming ``path``."""
        try:
            with open(path, "rb") as handle:
                data = handle.read()
            # newline=None splits lines exactly as a text-mode open() does.
            return cls.from_lines(io.StringIO(data.decode("utf-8"), newline=None))
        except OSError as exc:
            reason = exc.strerror or exc
            raise TraceError(f"{path}: cannot read trace: {reason}") from None
        except UnicodeDecodeError as exc:
            line = data.count(b"\n", 0, exc.start) + 1
            raise TraceError(f"{path}: line {line}: not UTF-8 text") from None
        except TraceError as exc:
            raise TraceError(f"{path}: {exc}") from None

    def to_file(self, path) -> None:
        """Write the trace in Mahimahi's one-integer-per-line format."""
        with open(path, "w", encoding="utf-8") as handle:
            for t in self._times:
                handle.write(f"{t}\n")

    def __repr__(self) -> str:
        return (
            f"<PacketDeliveryTrace {len(self._times)} opportunities / "
            f"{self.period_ms} ms (~{self.average_rate_mbps:.2f} Mbit/s)>"
        )


#: Slack (in milliseconds) absorbed when comparing a float instant against
#: integer trace timestamps: far below the 1 ms trace granularity, far above
#: double rounding noise at any plausible simulated duration. Without it,
#: ``(x / 1000.0) * 1000.0`` landing an ulp above ``x`` makes the schedule
#: silently skip opportunities that share a lapsed timestamp — a rate (and
#: determinism) bug that float-seconds arithmetic exhibited in practice.
_TRACE_EPS_MS = 1e-6


class FileTraceSchedule:
    """Sequential opportunity consumer over a repeating trace.

    All internal arithmetic is in *integer milliseconds* (the trace's native
    unit): cycle floors and timestamps stay exact however many times the
    trace wraps, and each returned opportunity is one int-to-float division
    away from exact — so replays are bit-identical and no opportunity is
    lost to accumulated float error.

    Args:
        trace: the parsed trace.
        start_time: virtual time (seconds) at which the link started; trace
            timestamp 0 corresponds to this instant.
    """

    def __init__(self, trace: PacketDeliveryTrace, start_time: float = 0.0) -> None:
        self._times_ms = trace.times_ms
        self._period_ms = trace.period_ms
        self._start = start_time
        self._cycle = 0
        self._index = 0

    def next_opportunity(self, now: float) -> float:
        """Consume and return the next opportunity at or after ``now``.

        Consecutive calls with the same ``now`` return successive
        opportunities (which may share the same timestamp).
        """
        rel_ms = (now - self._start) * 1000.0
        if rel_ms < 0.0:
            rel_ms = 0.0
        times_ms = self._times_ms
        count = len(times_ms)
        # Fast-forward whole cycles if we are far behind: to the cycle
        # holding the instant just before now, whose last line falls on
        # now when now is a period boundary.
        current_floor = self._cycle * self._period_ms
        if rel_ms - _TRACE_EPS_MS > current_floor + self._period_ms:
            self._cycle = int((rel_ms - _TRACE_EPS_MS) // self._period_ms)
            self._index = 0
            current_floor = self._cycle * self._period_ms
        while True:
            if self._index >= count:
                self._cycle += 1
                self._index = 0
                current_floor = self._cycle * self._period_ms
            within_ms = rel_ms - current_floor
            if within_ms - _TRACE_EPS_MS > times_ms[-1]:
                self._cycle += 1
                self._index = 0
                current_floor = self._cycle * self._period_ms
                continue
            if times_ms[self._index] < within_ms - _TRACE_EPS_MS:
                # Skip lapsed opportunities within this cycle in one jump.
                self._index = bisect.bisect_left(
                    times_ms, within_ms - _TRACE_EPS_MS, self._index
                )
                continue
            opportunity = (
                self._start + (current_floor + times_ms[self._index]) / 1000.0
            )
            self._index += 1
            # Guard against float rounding placing the opportunity an ulp
            # before `now`, which the simulator would reject as "the past".
            return opportunity if opportunity > now else now


class ConstantRateSchedule:
    """Closed-form opportunities for a constant-rate link.

    Args:
        rate_bps: link rate in bits per second (finite, > 0).
        start_time: virtual time of the link's first interval.

    Opportunities fall every ``MTU_BYTES * 8 / rate_bps`` seconds, the
    first one a full interval after ``start_time`` (a link never delivers
    at the very instant it comes up); each carries the usual one-MTU byte
    budget.
    """

    def __init__(self, rate_bps: float, start_time: float = 0.0) -> None:
        if not 0.0 < rate_bps < math.inf:
            raise TraceError(
                f"rate must be positive and finite, got {rate_bps!r}")
        self.rate_bps = rate_bps
        self._interval = MTU_BYTES * 8.0 / rate_bps
        self._start = start_time
        self._next_k = 1

    @property
    def interval(self) -> float:
        """Seconds between successive opportunities."""
        return self._interval

    def next_opportunity(self, now: float) -> float:
        """Consume and return the next opportunity at or after ``now``."""
        rel = now - self._start
        if rel < 0.0:
            rel = 0.0
        k = int(rel / self._interval)
        if self._start + k * self._interval < now:
            k += 1
        if k < self._next_k:
            k = self._next_k
        self._next_k = k + 1
        opportunity = self._start + k * self._interval
        # Guard against float rounding placing the opportunity an ulp
        # before `now`, which the simulator would reject as "the past".
        return opportunity if opportunity > now else now
