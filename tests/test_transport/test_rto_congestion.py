"""Unit tests for RTT estimation and congestion control."""

import pytest

from repro.transport.congestion import NewReno
from repro.transport.rto import RttEstimator


class TestRttEstimator:
    def test_initial_rto(self):
        est = RttEstimator(initial_rto=1.0)
        assert est.rto == 1.0
        assert est.srtt is None

    def test_first_sample_seeds_estimates(self):
        est = RttEstimator()
        est.add_sample(0.100)
        assert est.srtt == pytest.approx(0.100)
        assert est.rttvar == pytest.approx(0.050)
        # RTO = srtt + 4*rttvar = 0.3
        assert est.rto == pytest.approx(0.300)

    def test_smoothing(self):
        est = RttEstimator()
        est.add_sample(0.100)
        est.add_sample(0.100)
        assert est.srtt == pytest.approx(0.100)
        # Variance decays toward zero on constant samples.
        assert est.rttvar < 0.050

    def test_min_rto_floor(self):
        est = RttEstimator(min_rto=0.2)
        for _ in range(20):
            est.add_sample(0.001)
        assert est.rto == pytest.approx(0.2)

    def test_max_rto_ceiling(self):
        est = RttEstimator(max_rto=60.0)
        est.add_sample(30.0)
        for _ in range(10):
            est.on_timeout()
        assert est.rto == 60.0

    def test_backoff_doubles(self):
        est = RttEstimator()
        est.add_sample(0.100)
        base = est.rto
        est.on_timeout()
        assert est.rto == pytest.approx(2 * base)
        est.on_timeout()
        assert est.rto == pytest.approx(4 * base)

    def test_sample_resets_backoff(self):
        est = RttEstimator()
        est.add_sample(0.100)
        est.on_timeout()
        est.add_sample(0.100)
        assert est.rto == pytest.approx(0.300, rel=0.2)

    def test_negative_sample_rejected(self):
        with pytest.raises(ValueError):
            RttEstimator().add_sample(-0.1)

    def test_bad_bounds_rejected(self):
        with pytest.raises(ValueError):
            RttEstimator(min_rto=2.0, max_rto=1.0)

    def test_sample_counter(self):
        est = RttEstimator()
        est.add_sample(0.1)
        est.add_sample(0.2)
        assert est.samples == 2


class TestNewReno:
    MSS = 1460

    def test_initial_window_rfc6928(self):
        cc = NewReno(self.MSS)
        assert cc.cwnd == 10 * self.MSS
        assert cc.in_slow_start

    def test_slow_start_doubles_per_window(self):
        cc = NewReno(self.MSS)
        start = cc.cwnd
        cc.on_ack(start)  # a full window's worth of ACKs
        assert cc.cwnd == 2 * start

    def test_congestion_avoidance_linear(self):
        cc = NewReno(self.MSS, initial_ssthresh=10 * self.MSS)
        # cwnd == ssthresh -> CA. One window of ACKs adds one MSS.
        window = cc.cwnd
        cc.on_ack(window)
        assert cc.cwnd == window + self.MSS

    def test_fast_retransmit_halves(self):
        cc = NewReno(self.MSS)
        cc.on_ack(20 * self.MSS)  # grow a bit
        before = cc.cwnd
        cc.on_fast_retransmit()
        assert cc.cwnd == before // 2
        assert cc.ssthresh == before // 2
        assert cc.in_recovery

    def test_recovery_freezes_growth(self):
        cc = NewReno(self.MSS)
        cc.on_fast_retransmit()
        frozen = cc.cwnd
        cc.on_ack(10 * self.MSS)
        assert cc.cwnd == frozen
        cc.on_recovery_exit()
        assert not cc.in_recovery

    def test_timeout_collapses_to_one_mss(self):
        cc = NewReno(self.MSS)
        cc.on_ack(30 * self.MSS)
        before = cc.cwnd
        cc.on_timeout()
        assert cc.cwnd == self.MSS
        assert cc.ssthresh == max(before // 2, 2 * self.MSS)
        assert cc.in_slow_start

    def test_ssthresh_floor_two_mss(self):
        cc = NewReno(self.MSS, initial_window_segments=2)
        cc.on_timeout()
        assert cc.ssthresh == 2 * self.MSS

    def test_slow_start_exits_at_ssthresh(self):
        cc = NewReno(self.MSS, initial_ssthresh=20 * self.MSS)
        cc.on_ack(10 * self.MSS)
        assert cc.cwnd == 20 * self.MSS
        assert not cc.in_slow_start

    def test_bad_mss_rejected(self):
        with pytest.raises(ValueError):
            NewReno(0)

