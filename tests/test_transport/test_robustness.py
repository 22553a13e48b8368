"""Robustness tests: protocol layers under adverse conditions."""

import pytest

from repro.http.body import Body
from repro.http.message import Headers, HttpRequest, HttpResponse
from repro.http.client import HttpClient
from repro.http.server import HttpServer, WorkerPool
from repro.linkem.delay import DelayPipe, LossPipe
from repro.sim import Simulator
from repro.testing import TwoHostWorld


def lossy_world(loss_rate, seed=0, delay=0.015):
    sim = Simulator(seed=seed)
    rng = sim.streams.stream("loss")
    up = DelayPipe(sim, delay, service_time=0.0)
    down = DelayPipe(sim, delay, service_time=0.0)
    world = TwoHostWorld(sim=sim, pipe_ab=up, pipe_ba=down)
    # Each direction loses packets before delaying them.
    for iface, delayed in ((world.veth.iface_a, up),
                           (world.veth.iface_b, down)):
        loss = LossPipe(sim, loss_rate, rng)
        loss.attach_sink(delayed.send)
        iface.attach_tx(loss)
    return world


class TestHttpsUnderLoss:
    def test_tls_page_fetch_survives_loss(self):
        # TLS handshake flights and HTTP exchange all cross a 3%-lossy
        # path; retransmission must carry everything through.
        world = lossy_world(0.03)
        HttpServer(world.sim, world.server, world.SERVER_ADDR, 443,
                   lambda req: HttpResponse(200, body=Body.virtual(80_000)),
                   tls=True)
        client = HttpClient(world.sim, world.client, world.endpoint(443),
                            tls=True)
        got = []
        client.request(HttpRequest("GET", "/", Headers([("Host", "h")])),
                       got.append)
        world.sim.run_until(lambda: bool(got), timeout=120)
        assert got and got[0].status == 200
        assert got[0].body.length == 80_000

    def test_http_keepalive_sequence_under_loss(self):
        world = lossy_world(0.02, seed=3)
        HttpServer(world.sim, world.server, world.SERVER_ADDR, 80,
                   lambda req: HttpResponse(
                       200, body=Body.from_bytes(req.uri.encode())))
        client = HttpClient(world.sim, world.client, world.server_endpoint)
        got = []
        for i in range(5):
            client.request(
                HttpRequest("GET", f"/item/{i}", Headers([("Host", "h")])),
                lambda r: got.append(r.body.as_bytes()),
            )
        world.sim.run_until(lambda: len(got) == 5, timeout=120)
        assert got == [f"/item/{i}".encode() for i in range(5)]


class TestWorkerPool:
    def test_unbounded_runs_everything_now(self):
        sim = Simulator()
        pool = WorkerPool(sim, None)
        done = []
        for i in range(5):
            pool.submit(lambda i=i: done.append(i), 0.0)
        assert done == list(range(5))

    def test_bound_enforced(self):
        sim = Simulator()
        pool = WorkerPool(sim, 2)
        done = []
        for i in range(6):
            pool.submit(lambda i=i: done.append((i, sim.now)), 0.010)
        sim.run()
        # Two at a time: finish times 10, 10, 20, 20, 30, 30 ms.
        times = [t for __, t in done]
        assert times == [pytest.approx(x) for x in
                         (0.01, 0.01, 0.02, 0.02, 0.03, 0.03)]
        assert pool.peak_backlog == 4

    def test_fifo_order(self):
        sim = Simulator()
        pool = WorkerPool(sim, 1)
        done = []
        for i in range(4):
            pool.submit(lambda i=i: done.append(i), 0.001)
        sim.run()
        assert done == list(range(4))

    def test_exception_in_work_frees_slot(self):
        sim = Simulator()
        pool = WorkerPool(sim, 1)
        done = []

        def boom():
            raise RuntimeError("handler failure")

        pool.submit(boom, 0.001)
        # The failing job propagates (handlers are not supposed to raise),
        # but the slot must be released so later work still runs.
        with pytest.raises(RuntimeError):
            sim.run()
        pool.submit(lambda: done.append("after"), 0.0)
        assert done == ["after"]

    def test_bad_bound_rejected(self):
        with pytest.raises(ValueError):
            WorkerPool(Simulator(), 0)
