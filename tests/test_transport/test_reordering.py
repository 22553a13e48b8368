"""TCP behaviour under packet reordering (no loss)."""

from repro.linkem.delay import DelayPipe
from repro.sim import Simulator
from repro.testing import ReorderPipe, TwoHostWorld
from repro.transport.wire import pieces_len, pieces_to_bytes


def reordering_world(probability=0.2, seed=0):
    sim = Simulator(seed=seed)
    rng = sim.streams.stream("reorder")
    down = ReorderPipe(sim, 0.020, rng, reorder_probability=probability)
    up = DelayPipe(sim, 0.020, service_time=0.0)
    return TwoHostWorld(sim=sim, pipe_ab=up, pipe_ba=down), down


class TestReordering:
    def test_stream_integrity(self):
        world, pipe = reordering_world()
        payload = bytes(range(256)) * 200  # 51.2 KB patterned
        got = []

        def on_conn(conn):
            conn.on_data = lambda p: conn.send(payload)
        world.server.listen(None, 80, on_conn)
        conn = world.client.connect(world.server_endpoint)
        conn.on_established = lambda: conn.send(b"GET")
        conn.on_data = got.extend
        world.sim.run_until(lambda: pieces_len(got) >= len(payload),
                            timeout=60)
        assert pieces_to_bytes(got) == payload
        assert pipe.reordered > 0

    def test_large_transfer_completes_quickly(self):
        # Reordering causes some spurious fast retransmits (as in real
        # TCP) but must not collapse throughput: 500 KB over a 40 ms RTT
        # should still finish within a handful of RTT-rounds.
        world, pipe = reordering_world(probability=0.1, seed=1)
        total = [0]

        def on_conn(conn):
            conn.on_data = lambda p: conn.send_virtual(500_000)
        world.server.listen(None, 80, on_conn)
        conn = world.client.connect(world.server_endpoint)
        conn.on_established = lambda: conn.send(b"GET")
        conn.on_data = lambda p: total.__setitem__(
            0, total[0] + pieces_len(p))
        world.sim.run_until(lambda: total[0] >= 500_000, timeout=60)
        assert total[0] == 500_000
        assert world.sim.now < 3.0

    def test_deterministic_under_reordering(self):
        def run(seed):
            world, pipe = reordering_world(probability=0.3, seed=seed)
            total = [0]

            def on_conn(conn):
                conn.on_data = lambda p: conn.send_virtual(100_000)
            world.server.listen(None, 80, on_conn)
            conn = world.client.connect(world.server_endpoint)
            conn.on_established = lambda: conn.send(b"GET")
            conn.on_data = lambda p: total.__setitem__(
                0, total[0] + pieces_len(p))
            world.sim.run_until(lambda: total[0] >= 100_000, timeout=60)
            return world.sim.now

        assert run(7) == run(7)
