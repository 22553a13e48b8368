"""Loss recovery: what it costs (by counting, not timing) and whether it
behaves like TCP (against a closed form).

The SACK option carries one block per *hole* — RFC 2018's meaning — not
one per out-of-order segment held, so the work an ACK causes at the sender
grows with the holes in flight, not with the window behind them. And a
long flow over a path losing packets at rate p settles at the Mathis et
al. throughput, the first of the transport's closed-form checks.
"""

import math
from statistics import median

import pytest

from repro.core import ShellStack
from repro.linkem.delay import DelayPipe
from repro.reference import merge_range
from repro.scenarios import SCENARIOS, bulk_download
from repro.sim import Simulator
from repro.testing import ScriptedLossPipe, TwoHostWorld
from repro.transport.tcp import MSS


def sack_options_sent_by(host):
    """Every non-empty SACK option ``host`` sends from now on, in order."""
    seen = []
    send = host.send_packet

    def tap(packet):
        if packet.protocol == "tcp" and packet.payload.sack:
            seen.append(packet.payload.sack)
        send(packet)

    host.send_packet = tap
    return seen


def holes(blocks):
    """How many holes a SACK option describes: the maximal runs in the
    union of its blocks, by the reference range list."""
    runs = []
    for start, end in blocks:
        runs = merge_range(runs, start, end)
    return len(runs)


class TestOneSackBlockPerHole:
    def test_a_window_buffered_behind_one_hole_is_one_block(self):
        sim = Simulator()
        world = TwoHostWorld(
            sim=sim,
            pipe_ab=DelayPipe(sim, 0.020, service_time=0.0),
            # Server -> client: packet 0 is the SYN-ACK, 1.. are data; the
            # third data segment is lost, the initial window's other seven
            # segments after it arrive in order behind the hole.
            pipe_ba=ScriptedLossPipe(sim, 0.020, drop_indices={3}),
        )

        def on_connection(conn):
            conn.on_data = lambda pieces: conn.send_virtual(100_000)

        world.server.listen(None, 80, on_connection)
        options = sack_options_sent_by(world.client)
        client = world.client.connect(world.server_endpoint)
        client.on_established = lambda: client.send(b"GET")
        sim.run_until(lambda: client.bytes_delivered >= 100_000, timeout=30)
        assert client.bytes_delivered == 100_000
        assert options, "the loss never produced a SACK"
        assert {len(blocks) for blocks in options} == {1}
        # ... however much piled up behind the hole.
        assert max(end - start for blocks in options
                   for start, end in blocks) >= 7 * MSS

    def test_a_lossy_transfer_never_reports_more_blocks_than_holes(self):
        stack = ShellStack.fresh(seed=3)
        stack.add_loss(0.01)
        stack.add_delay(0.020)
        options = sack_options_sent_by(stack.transport)
        flows = bulk_download(stack, flows=1, flow_bytes=1_000_000)
        stack.sim.run_until(lambda: flows.complete, timeout=120)
        assert flows.complete
        assert len(options) > 100
        assert all(len(blocks) == holes(blocks) for blocks in options)
        # The guard bites: some block spans many segments, each of which
        # was a block of its own when the receiver never coalesced.
        assert max(end - start for blocks in options
                   for start, end in blocks) > 20 * MSS
        assert max(map(len, options)) <= 8


def test_bulk_lossy_reproduces_the_counts_measured_before_the_range_set():
    """Read at the parent of PR 18 (``7a6edd0``, per-segment SACK blocks,
    list scoreboard) with the digest ``repro.scenarios`` pins: the rewrite
    may not move the simulation by one event or one segment."""
    sim, flows = SCENARIOS["bulk_lossy"].build()(0)
    sim.run()
    assert flows.complete
    assert sim.events_processed == 7049
    assert sum(c.segments_sent for c in flows.connections) == 1840
    assert sum(c.retransmissions for c in flows.connections) == 105


class TestMathisThroughput:
    """Loss-limited throughput against Mathis, Semke, Mahdavi & Ott (1997):
    ``MSS / (RTT * sqrt(2p/3))`` for a Reno sender whose every segment is
    acknowledged, as here.

    One 10 MB flow through ``add_loss(p)`` + ``add_delay(0.020)`` (RTT
    40 ms, no bottleneck, so the law is the only limit); goodput is taken
    over the last 7.5 MB, after the initial slow start — which with no
    link to fill overshoots until the first loss — has been paid for.
    Measured at the parent of PR 18 and unchanged by it: goodput / bound is
    0.95–1.41 over seeds 0–7 at the three loss rates (seeds 0–2, used
    here: 1.05–1.41). The pinned tolerance is 0.5x–2x.
    """

    RTT = 0.040
    FLOW_BYTES = 10_000_000
    SKIP_BYTES = 2_500_000

    def goodput(self, loss: float, seed: int) -> float:
        """Bytes per virtual second over the tail of one flow."""
        stack = ShellStack.fresh(seed)
        stack.add_loss(loss)
        stack.add_delay(self.RTT / 2)
        sim = stack.sim
        flows = bulk_download(stack, flows=1, flow_bytes=self.FLOW_BYTES)
        client = flows.connections[0]
        sim.run_until(lambda: client.bytes_delivered >= self.SKIP_BYTES,
                      timeout=600)
        since, delivered = sim.now, client.bytes_delivered
        sim.run_until(lambda: flows.complete, timeout=600)
        assert flows.complete
        return (self.FLOW_BYTES - delivered) / (flows.finished[0] - since)

    def test_goodput_follows_the_inverse_square_root_law(self):
        typical = []
        for loss in (0.005, 0.01, 0.02):
            bound = MSS / (self.RTT * math.sqrt(2 * loss / 3))
            ratios = [self.goodput(loss, seed) / bound for seed in range(3)]
            assert all(0.5 <= ratio <= 2.0 for ratio in ratios), (loss, ratios)
            typical.append(median(ratios) * bound)
        assert typical == sorted(typical, reverse=True), typical
        # Doubling p twice should halve the rate (1/sqrt(4)), near enough.
        assert typical[0] / typical[2] == pytest.approx(2.0, rel=0.35)
