"""HTTP server fault clauses: stall, truncate, reset, error-burst."""

from repro.chaos import ServerFaultClause
from repro.chaos.inject import ServerFaultInjector
from repro.errors import ResetMidTransfer, TruncatedBody
from repro.http.body import Body
from repro.http.client import FailableCallback, HttpClient
from repro.http.message import Headers, HttpRequest, HttpResponse
from repro.http.server import HttpServer
from repro.testing import delayed_world

BODY = b"x" * 4000


def handler(request):
    return HttpResponse(200, body=Body.from_bytes(BODY))


def get(uri="/page"):
    return HttpRequest("GET", uri, Headers([("Host", "srv.example")]))


def make_world(clauses, delay=0.010):
    world = delayed_world(delay)
    injector = ServerFaultInjector(world.sim, clauses)
    server = HttpServer(world.sim, world.server, world.SERVER_ADDR, 80,
                        handler, fault_injector=injector)
    client = HttpClient(world.sim, world.client, world.server_endpoint)
    return world, server, client, injector


def issue(world, client, on_response, failures):
    client.request(get(), FailableCallback(on_response, failures.append))


class TestErrorBurst:
    def test_answers_status_without_handler(self):
        calls = []

        def counting_handler(request):
            calls.append(request)
            return handler(request)

        world = delayed_world(0.010)
        injector = ServerFaultInjector(
            world.sim, [ServerFaultClause(kind="error-burst", count=1)])
        server = HttpServer(world.sim, world.server, world.SERVER_ADDR, 80,
                            counting_handler, fault_injector=injector)
        client = HttpClient(world.sim, world.client, world.server_endpoint)
        got = []
        client.request(get(), got.append)
        client.request(get(), got.append)
        world.sim.run_until(lambda: len(got) == 2, timeout=5)
        assert got[0].status == 503
        assert got[1].status == 200
        assert len(calls) == 1  # burst answered without invoking the handler
        assert server.faults_injected == 1

    def test_custom_status(self):
        world, server, client, __ = make_world(
            [ServerFaultClause(kind="error-burst", status=502)])
        got = []
        client.request(get(), got.append)
        world.sim.run_until(lambda: bool(got), timeout=5)
        assert got[0].status == 502


class TestStall:
    def test_response_completes_after_stall(self):
        world, server, client, __ = make_world(
            [ServerFaultClause(kind="stall", after_bytes=1000, stall=0.5)])
        got = []
        client.request(get(), lambda r: got.append(world.sim.now))
        world.sim.run_until(lambda: bool(got), timeout=10)
        assert got[0] >= 0.5
        assert server.requests_served == 1

    def test_unstalled_request_is_fast(self):
        world, server, client, __ = make_world(
            [ServerFaultClause(kind="stall", skip=1, stall=0.5)])
        got = []
        client.request(get(), lambda r: got.append(world.sim.now))
        world.sim.run_until(lambda: bool(got), timeout=10)
        assert got[0] < 0.5

    def test_connection_usable_after_stall(self):
        world, server, client, __ = make_world(
            [ServerFaultClause(kind="stall", stall=0.2)])
        got = []
        client.request(get(), got.append)
        client.request(get(), got.append)
        world.sim.run_until(lambda: len(got) == 2, timeout=10)
        assert [r.status for r in got] == [200, 200]


class TestTruncate:
    def test_client_sees_truncated_body(self):
        world, server, client, __ = make_world(
            [ServerFaultClause(kind="truncate", after_bytes=1000)])
        failures = []
        issue(world, client, lambda r: None, failures)
        world.sim.run_until(lambda: bool(failures), timeout=10)
        exc = failures[0]
        assert isinstance(exc, TruncatedBody)
        assert exc.url == "http://srv.example/page"
        assert 0 < exc.bytes_received < len(BODY)


class TestReset:
    def test_client_sees_reset_mid_transfer(self):
        world, server, client, __ = make_world(
            [ServerFaultClause(kind="reset", after_bytes=500)])
        failures = []
        issue(world, client, lambda r: None, failures)
        world.sim.run_until(lambda: bool(failures), timeout=10)
        exc = failures[0]
        assert isinstance(exc, ResetMidTransfer)
        assert exc.url == "http://srv.example/page"

    def test_structured_errors_pickle(self):
        import pickle

        exc = ResetMidTransfer("reset", url="http://a/b", bytes_received=42)
        clone = pickle.loads(pickle.dumps(exc))
        assert isinstance(clone, ResetMidTransfer)
        assert clone.url == "http://a/b"
        assert clone.bytes_received == 42
        assert "at byte 42" in str(clone)


class TestClauseMatching:
    def test_skip_count_window(self):
        world, server, client, injector = make_world(
            [ServerFaultClause(kind="error-burst", skip=1, count=2)])
        got = []
        for __ in range(4):
            client.request(get(), got.append)
        world.sim.run_until(lambda: len(got) == 4, timeout=10)
        assert [r.status for r in got] == [200, 503, 503, 200]
        assert injector.faults_fired == 2

    def test_path_prefix_filters(self):
        world = delayed_world(0.010)
        injector = ServerFaultInjector(
            world.sim,
            [ServerFaultClause(kind="error-burst", path_prefix="/api",
                               count=None)],
        )
        server = HttpServer(world.sim, world.server, world.SERVER_ADDR, 80,
                            handler, fault_injector=injector)
        client = HttpClient(world.sim, world.client, world.server_endpoint)
        got = []
        client.request(get("/static/app.js"), got.append)
        client.request(get("/api/data"), got.append)
        world.sim.run_until(lambda: len(got) == 2, timeout=10)
        assert [r.status for r in got] == [200, 503]

    def test_count_none_afflicts_all(self):
        world, server, client, injector = make_world(
            [ServerFaultClause(kind="error-burst", count=None)])
        got = []
        for __ in range(3):
            client.request(get(), got.append)
        world.sim.run_until(lambda: len(got) == 3, timeout=10)
        assert all(r.status == 503 for r in got)
