"""Unit tests for packet-delivery traces and schedules."""

import pytest

from repro.errors import TraceError
from repro.linkem.trace import (
    ConstantRateSchedule,
    FileTraceSchedule,
    PacketDeliveryTrace,
)
from repro.net.packet import MTU_BYTES


class TestPacketDeliveryTrace:
    def test_basic(self):
        trace = PacketDeliveryTrace([1, 2, 2, 5])
        assert len(trace) == 4
        assert trace.period_ms == 5

    def test_empty_rejected(self):
        with pytest.raises(TraceError):
            PacketDeliveryTrace([])

    def test_negative_rejected(self):
        with pytest.raises(TraceError):
            PacketDeliveryTrace([-1, 2])

    def test_decreasing_rejected(self):
        with pytest.raises(TraceError):
            PacketDeliveryTrace([5, 3])

    def test_zero_period_rejected(self):
        with pytest.raises(TraceError):
            PacketDeliveryTrace([0, 0])

    def test_average_rate(self):
        # 1000 opportunities in 1000 ms = one MTU per ms = 12 Mbit/s.
        trace = PacketDeliveryTrace(list(range(1, 1001)))
        assert trace.average_rate_mbps == pytest.approx(12.0)

    def test_from_lines_skips_comments_and_blanks(self):
        trace = PacketDeliveryTrace.from_lines(
            ["# header", "", "1", "2 # two", "  3  "]
        )
        assert trace.times_ms == [1, 2, 3]

    def test_from_lines_rejects_garbage(self):
        with pytest.raises(TraceError):
            PacketDeliveryTrace.from_lines(["1", "abc"])

    def test_file_roundtrip(self, tmp_path):
        trace = PacketDeliveryTrace([1, 5, 5, 9])
        path = tmp_path / "link.trace"
        trace.to_file(path)
        loaded = PacketDeliveryTrace.from_file(path)
        assert loaded.times_ms == trace.times_ms

    @pytest.mark.parametrize("content,detail", [
        (None, "cannot read trace"),
        (b"3\r\n\xc3(\r\n", "line 2: not UTF-8 text"),
        (b"1\r\n-2\r\n", "line 2: negative timestamp"),
        (b"# only a comment\n", "trace has no delivery opportunities"),
        (b"0\n\n0\n", "line 3: final timestamp (trace period) must be positive"),
    ])
    def test_from_file_errors_name_the_path_and_line(
            self, tmp_path, content, detail):
        path = tmp_path / "bad.trace"
        if content is not None:
            path.write_bytes(content)
        with pytest.raises(TraceError) as caught:
            PacketDeliveryTrace.from_file(path)
        assert str(caught.value).startswith(f"{path}: {detail}")

    def test_from_lines_errors_name_the_line(self):
        with pytest.raises(TraceError, match="^line 4: timestamps must be"):
            PacketDeliveryTrace.from_lines(["2", "# x", "5", "4"])
        with pytest.raises(TraceError, match="^negative timestamp"):
            PacketDeliveryTrace([1, -1])  # no lines given, none named


class TestFileTraceSchedule:
    def test_consumes_in_order(self):
        schedule = FileTraceSchedule(PacketDeliveryTrace([1, 2, 5]))
        assert schedule.next_opportunity(0.0) == pytest.approx(0.001)
        assert schedule.next_opportunity(0.0) == pytest.approx(0.002)
        assert schedule.next_opportunity(0.0) == pytest.approx(0.005)

    def test_wraps_with_period_offset(self):
        schedule = FileTraceSchedule(PacketDeliveryTrace([1, 2, 5]))
        for _ in range(3):
            schedule.next_opportunity(0.0)
        # Next cycle: 5ms period offset + 1ms.
        assert schedule.next_opportunity(0.0) == pytest.approx(0.006)

    def test_skips_lapsed_opportunities(self):
        schedule = FileTraceSchedule(PacketDeliveryTrace([1, 2, 5]))
        assert schedule.next_opportunity(0.0035) == pytest.approx(0.005)

    def test_fast_forward_many_cycles(self):
        schedule = FileTraceSchedule(PacketDeliveryTrace([1, 2, 5]))
        # Jump 10 seconds = 2000 cycles ahead.
        opportunity = schedule.next_opportunity(10.0)
        assert opportunity >= 10.0
        assert opportunity <= 10.0 + 0.005

    def test_fast_forward_to_a_period_boundary_keeps_the_line_on_it(self):
        # [5, 10] repeats as 5, 10, 15, 20, 25, ...: the 20 ms opportunity
        # is the second period's last line. Fast-forwarding to exactly
        # 20 ms used to land in the third period and return 25 ms.
        for first in (0.020, 10.0):
            schedule = FileTraceSchedule(PacketDeliveryTrace([5, 10]))
            assert schedule.next_opportunity(first) == pytest.approx(first)
            assert schedule.next_opportunity(first) == \
                pytest.approx(first + 0.005)
        schedule = FileTraceSchedule(PacketDeliveryTrace([1]))
        assert schedule.next_opportunity(0.002) == pytest.approx(0.002)

    def test_duplicate_timestamps_are_distinct_opportunities(self):
        schedule = FileTraceSchedule(PacketDeliveryTrace([3, 3, 3, 10]))
        times = [schedule.next_opportunity(0.0) for _ in range(3)]
        assert times == [pytest.approx(0.003)] * 3

    def test_start_time_offset(self):
        schedule = FileTraceSchedule(PacketDeliveryTrace([2, 4]), start_time=100.0)
        assert schedule.next_opportunity(100.0) == pytest.approx(100.002)

    def test_never_returns_past(self):
        schedule = FileTraceSchedule(PacketDeliveryTrace([1, 2, 5]))
        now = 0.0
        for _ in range(1000):
            t = schedule.next_opportunity(now)
            assert t >= now
            now = t


class TestConstantRateSchedule:
    def test_interval_from_rate(self):
        schedule = ConstantRateSchedule(MTU_BYTES * 8 * 1000.0)  # 1000 pkt/s
        assert schedule.interval == pytest.approx(0.001)

    def test_sequential_consumption(self):
        schedule = ConstantRateSchedule(MTU_BYTES * 8 * 1000.0)
        a = schedule.next_opportunity(0.0)
        b = schedule.next_opportunity(0.0)
        assert b - a == pytest.approx(0.001)

    def test_skips_ahead(self):
        schedule = ConstantRateSchedule(MTU_BYTES * 8 * 1000.0)
        t = schedule.next_opportunity(0.0105)
        assert t >= 0.0105
        assert t <= 0.0115

    def test_monotonic_under_repeated_calls(self):
        schedule = ConstantRateSchedule(8e6)
        now, last = 0.0, -1.0
        for _ in range(500):
            t = schedule.next_opportunity(now)
            assert t >= now
            assert t > last or t == pytest.approx(last)
            last = t
            now = t

    def test_nonpositive_rate_rejected(self):
        with pytest.raises(TraceError):
            ConstantRateSchedule(0.0)

    @pytest.mark.parametrize("rate", [float("nan"), float("inf")])
    def test_non_finite_rate_rejected(self, rate):
        from repro.linkem import constant_rate_trace

        with pytest.raises(TraceError, match="positive and finite"):
            ConstantRateSchedule(rate)
        with pytest.raises(TraceError, match="positive and finite"):
            constant_rate_trace(rate)
