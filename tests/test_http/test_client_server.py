"""Integration tests: HttpClient <-> HttpServer over the simulated net."""

import pytest

from repro.errors import ConnectionClosed, ConnectionReset, HttpParseError
from repro.http.body import Body
from repro.http.client import FailableCallback, HttpClient
from repro.http.message import Headers, HttpRequest, HttpResponse
from repro.http.serialize import message_wire_length
from repro.http.server import HttpServer
from repro.net.address import IPv4Address
from repro.testing import delayed_world


def simple_handler(request):
    if request.uri == "/small":
        return HttpResponse(200, body=Body.from_bytes(b"tiny"))
    if request.uri == "/big":
        return HttpResponse(200, body=Body.virtual(200_000))
    if request.uri == "/close":
        return HttpResponse(
            200, headers=Headers([("Connection", "close")]),
            body=Body.from_bytes(b"bye"),
        )
    return HttpResponse(404, body=Body.from_bytes(b"nope"))


def get(uri, host="example.com"):
    return HttpRequest("GET", uri, Headers([("Host", host)]))


def make_world(delay=0.020, **server_kwargs):
    world = delayed_world(delay)
    server = HttpServer(world.sim, world.server, world.SERVER_ADDR, 80,
                        simple_handler, **server_kwargs)
    client = HttpClient(world.sim, world.client, world.server_endpoint)
    return world, server, client


class TestRequestResponse:
    def test_basic_exchange(self):
        world, server, client = make_world()
        got = []
        client.request(get("/small"), got.append)
        world.sim.run_until(lambda: bool(got), timeout=5)
        assert got[0].status == 200
        assert got[0].body.as_bytes() == b"tiny"
        assert server.requests_served == 1

    def test_keep_alive_reuses_connection(self):
        world, server, client = make_world()
        got = []
        for _ in range(3):
            client.request(get("/small"), got.append)
        world.sim.run_until(lambda: len(got) == 3, timeout=5)
        assert server.connections_accepted == 1
        assert client.requests_sent == 3

    def test_requests_serialized_on_one_connection(self):
        world, server, client = make_world(0.050)
        done_times = []
        for _ in range(2):
            client.request(get("/small"),
                           lambda r: done_times.append(world.sim.now))
        world.sim.run_until(lambda: len(done_times) == 2, timeout=5)
        # Second response must be a full RTT after the first (no pipelining).
        assert done_times[1] - done_times[0] >= 0.099

    def test_404_for_unknown(self):
        world, server, client = make_world()
        got = []
        client.request(get("/missing"), got.append)
        world.sim.run_until(lambda: bool(got), timeout=5)
        assert got[0].status == 404

    def test_large_virtual_response(self):
        world, server, client = make_world()
        got = []
        client.request(get("/big"), got.append)
        world.sim.run_until(lambda: bool(got), timeout=10)
        assert got[0].body.length == 200_000
        assert not got[0].body.is_fully_real

    def test_processing_time_delays_response(self):
        world, server, client = make_world(0.010, processing_time=lambda r: 0.100)
        got = []
        client.request(get("/small"), lambda r: got.append(world.sim.now))
        world.sim.run_until(lambda: bool(got), timeout=5)
        # 1 RTT handshake + 1 RTT request/response + 100ms processing.
        assert got[0] == pytest.approx(0.140, abs=0.01)

    def test_connection_close_header_closes(self):
        world, server, client = make_world()
        got = []
        client.request(get("/close"), got.append)
        world.sim.run_until(lambda: bool(got), timeout=5)
        assert got[0].status == 200
        world.sim.run_for(1.0)
        assert client.closed
        with pytest.raises(ConnectionClosed):
            client.request(get("/small"), got.append)

    def test_request_wire_size_padding(self):
        # The browser pads requests to a realistic size; a bare request
        # serializes to its natural size.
        req = get("/small")
        from repro.http.serialize import serialize_request
        assert message_wire_length(serialize_request(req)) < 100


class TestWorkerPool:
    def test_bounded_workers_queue_requests(self):
        world = delayed_world(0.001)
        HttpServer(world.sim, world.server, world.SERVER_ADDR, 80,
                   simple_handler, processing_time=lambda r: 0.050,
                   max_workers=1)
        done = []
        clients = [
            HttpClient(world.sim, world.client, world.server_endpoint)
            for _ in range(3)
        ]
        for client in clients:
            client.request(get("/small"),
                           lambda r: done.append(world.sim.now))
        world.sim.run_until(lambda: len(done) == 3, timeout=10)
        # Serialized: responses ~50ms apart.
        assert done[1] - done[0] == pytest.approx(0.050, abs=0.005)
        assert done[2] - done[1] == pytest.approx(0.050, abs=0.005)

    def test_unbounded_workers_parallel(self):
        world = delayed_world(0.001)
        HttpServer(world.sim, world.server, world.SERVER_ADDR, 80,
                   simple_handler, processing_time=lambda r: 0.050)
        done = []
        clients = [
            HttpClient(world.sim, world.client, world.server_endpoint)
            for _ in range(3)
        ]
        for client in clients:
            client.request(get("/small"),
                           lambda r: done.append(world.sim.now))
        world.sim.run_until(lambda: len(done) == 3, timeout=10)
        assert done[2] - done[0] < 0.010

    def test_peak_backlog_counter(self):
        world = delayed_world(0.001)
        server = HttpServer(world.sim, world.server, world.SERVER_ADDR, 80,
                            simple_handler,
                            processing_time=lambda r: 0.020, max_workers=1)
        clients = [
            HttpClient(world.sim, world.client, world.server_endpoint)
            for _ in range(4)
        ]
        done = []
        for client in clients:
            client.request(get("/small"), done.append)
        world.sim.run_until(lambda: len(done) == 4, timeout=10)
        assert server.peak_backlog >= 2

    def test_bad_worker_count_rejected(self):
        world = delayed_world(0.001)
        with pytest.raises(ValueError):
            HttpServer(world.sim, world.server, world.SERVER_ADDR, 80,
                       simple_handler, max_workers=0)


class TestTlsHttp:
    def test_https_exchange(self):
        world = delayed_world(0.030)
        HttpServer(world.sim, world.server, world.SERVER_ADDR, 443,
                   simple_handler, tls=True)
        client = HttpClient(world.sim, world.client, world.endpoint(443),
                            tls=True)
        got = []
        client.request(get("/small"), lambda r: got.append(world.sim.now))
        world.sim.run_until(lambda: bool(got), timeout=5)
        # 1 RTT TCP + 2 RTT TLS + 1 RTT request = ~0.24.
        assert got[0] == pytest.approx(0.240, abs=0.02)

    def test_plain_client_to_tls_server_fails_to_parse_nothing(self):
        # A plain client's request bytes are consumed as a (bogus)
        # ClientHello; no response ever arrives. The request just hangs,
        # which is what happens in reality until a timeout.
        world = delayed_world(0.010)
        HttpServer(world.sim, world.server, world.SERVER_ADDR, 443,
                   simple_handler, tls=True)
        client = HttpClient(world.sim, world.client, world.endpoint(443),
                            tls=False)
        got = []
        client.request(get("/small"), got.append)
        world.sim.run_for(2.0)
        assert got == []


class TestFailableCallback:
    def test_failure_path_invoked(self):
        world = delayed_world(0.010)
        # No server at all: connection will be reset.
        client = HttpClient(world.sim, world.client, world.server_endpoint)
        responses, failures = [], []
        client.request(
            get("/x"),
            FailableCallback(responses.append, failures.append),
        )
        world.sim.run_until(lambda: bool(failures), timeout=10)
        assert responses == []
        assert failures


class TestMalformedMessages:
    """A malformed message costs its own connection, never the world:
    the server aborts that connection and the client fails what it has
    outstanding with the parse error."""

    def test_garbage_request_resets_only_its_connection(self):
        world = delayed_world(0.010)
        server = HttpServer(world.sim, world.server, world.SERVER_ADDR, 80,
                            simple_handler)
        raw = world.client.connect(world.server_endpoint)
        errors = []
        raw.on_error = errors.append
        raw.on_established = lambda: raw.write(
            [b"MUX 1 H 30 1\nGET / HTTP/1.1\r\nHost: h\r\n\r\n"])
        world.sim.run()
        assert [type(exc) for exc in errors] == [ConnectionReset]

        client = HttpClient(world.sim, world.client, world.server_endpoint)
        got = []
        client.request(get("/small"), got.append)
        world.sim.run()
        assert [response.status for response in got] == [200]
        assert server.connections_accepted == 2
        assert server.requests_served == 1

    def test_garbage_response_fails_the_outstanding_request(self):
        world = delayed_world(0.010)

        def accept(conn):
            conn.on_data = lambda pieces: conn.write(
                [b"HTTP/1.1 200 OK\r\nnot a header\r\n\r\n"])

        world.server.listen(IPv4Address(world.SERVER_ADDR), 80, accept)
        client = HttpClient(world.sim, world.client, world.server_endpoint)
        responses, failures = [], []
        client.request(get("/x"),
                       FailableCallback(responses.append, failures.append))
        world.sim.run()
        assert responses == []
        assert [type(exc) for exc in failures] == [HttpParseError]
        assert client.closed
