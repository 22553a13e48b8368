"""Tests for the SPDY-style multiplexed transport."""

import pytest

from repro.browser import Browser
from repro.core import HostMachine, ShellStack
from repro.corpus import generate_site
from repro.errors import ShellError
from repro.http.body import Body
from repro.http.client import FailableCallback
from repro.http.message import Headers, HttpRequest, HttpResponse
from repro.http.mux import MuxClientSession, _FrameCodec
from repro.http.server import HttpServer
from repro.sim import Simulator
from repro.testing import delayed_world


def get(uri, host="example.com"):
    return HttpRequest("GET", uri, Headers([("Host", host)]))


def mux_world(handler, delay=0.020, **server_kwargs):
    world = delayed_world(delay)
    server = HttpServer(world.sim, world.server, world.SERVER_ADDR, 80,
                        handler, protocol="mux", **server_kwargs)
    session = MuxClientSession(world.sim, world.client, world.server_endpoint)
    return world, server, session


class TestFrameCodec:
    def test_roundtrip(self):
        codec = _FrameCodec()
        frames = []
        wire = _FrameCodec.encode(3, "H", [b"hello", 100], fin=True)
        codec.feed(wire, lambda *a: frames.append(a))
        assert len(frames) == 1
        stream_id, frame_type, payload, fin = frames[0]
        assert (stream_id, frame_type, fin) == (3, "H", True)
        assert payload == [b"hello", 100]

    def test_incremental_feed(self):
        codec = _FrameCodec()
        frames = []
        wire = _FrameCodec.encode(1, "D", [5000], fin=False)
        # Feed the virtual payload in dribbles.
        codec.feed(wire[:1], lambda *a: frames.append(a))
        for _ in range(5):
            codec.feed([1000], lambda *a: frames.append(a))
        assert len(frames) == 1

    def test_multiple_frames_one_feed(self):
        codec = _FrameCodec()
        frames = []
        wire = (_FrameCodec.encode(1, "H", [b"a"], fin=False)
                + _FrameCodec.encode(2, "H", [b"b"], fin=True))
        codec.feed(wire, lambda *a: frames.append(a))
        assert [f[0] for f in frames] == [1, 2]

    def test_garbage_header_rejected(self):
        from repro.errors import HttpParseError
        codec = _FrameCodec()
        with pytest.raises(HttpParseError):
            codec.feed([b"NOTMUX line\n"], lambda *a: None)


class TestMuxSession:
    def test_basic_request_response(self):
        world, server, session = mux_world(
            lambda req: HttpResponse(200, body=Body.virtual(50_000)))
        got = []
        session.request(get("/a"), got.append)
        world.sim.run_until(lambda: bool(got), timeout=10)
        assert got[0].status == 200
        assert got[0].body.length == 50_000

    def test_concurrent_streams_one_connection(self):
        world, server, session = mux_world(
            lambda req: HttpResponse(200, body=Body.virtual(20_000)))
        got = []
        for i in range(8):
            session.request(get(f"/r{i}"), got.append)
        world.sim.run_until(lambda: len(got) == 8, timeout=10)
        assert server.connections_accepted == 1
        assert session.responses_received == 8

    def test_no_head_of_line_request_blocking(self):
        # A slow big response must not delay a small one issued after it.
        def handler(req):
            size = 600_000 if req.uri == "/big" else 500
            return HttpResponse(200, body=Body.virtual(size))
        world, server, session = mux_world(handler)
        done = {}
        session.request(get("/big"),
                        lambda r: done.setdefault("big", world.sim.now))
        session.request(get("/small"),
                        lambda r: done.setdefault("small", world.sim.now))
        world.sim.run_until(lambda: len(done) == 2, timeout=30)
        assert done["small"] < done["big"]

    def test_interleaving_shares_bandwidth(self):
        # Two equal responses requested together finish together (frame
        # round-robin), not serially.
        world, server, session = mux_world(
            lambda req: HttpResponse(200, body=Body.virtual(200_000)))
        done = []
        for i in range(2):
            session.request(get(f"/{i}"), lambda r: done.append(world.sim.now))
        world.sim.run_until(lambda: len(done) == 2, timeout=30)
        assert done[1] - done[0] < 0.05

    def test_real_body_content_survives(self):
        payload = bytes(range(256)) * 50
        world, server, session = mux_world(
            lambda req: HttpResponse(200, body=Body.from_bytes(payload)))
        got = []
        session.request(get("/data"), got.append)
        world.sim.run_until(lambda: bool(got), timeout=10)
        assert got[0].body.as_bytes() == payload

    def test_bounded_workers_apply(self):
        world, server, session = mux_world(
            lambda req: HttpResponse(200, body=Body.virtual(100)),
            processing_time=lambda r: 0.050, max_workers=1)
        done = []
        for i in range(3):
            session.request(get(f"/{i}"), lambda r: done.append(world.sim.now))
        world.sim.run_until(lambda: len(done) == 3, timeout=10)
        assert done[2] - done[0] == pytest.approx(0.100, abs=0.01)
        assert server.peak_backlog >= 1

    def test_connection_failure_fails_streams(self):
        world = delayed_world(0.010)
        # No server listening: RST.
        session = MuxClientSession(world.sim, world.client,
                                   world.server_endpoint)
        failures = []
        session.request(get("/x"), FailableCallback(
            lambda r: None, failures.append))
        world.sim.run_until(lambda: bool(failures), timeout=10)
        assert failures
        assert session.closed


class TestMuxPageLoads:
    def _load(self, protocol, rate=14, delay=0.150, seed=0, n_origins=8,
              name="muxpage.com", replay_protocol=None):
        site = generate_site(name, seed=70, n_origins=n_origins)
        store = site.to_recorded_site()
        sim = Simulator(seed=seed)
        machine = HostMachine(sim)
        stack = ShellStack(machine)
        stack.add_replay(store, protocol=replay_protocol or protocol)
        stack.add_link(rate, rate)
        stack.add_delay(delay)
        browser = Browser(sim, stack.transport, stack.resolver_endpoint,
                          protocol=protocol, machine=machine)
        result = browser.load(site.page)
        sim.run_until(lambda: result.complete, timeout=600)
        if replay_protocol is None:
            assert result.complete and result.resources_failed == 0
        return result

    def test_mux_page_load_completes(self):
        result = self._load("mux")
        assert result.resources_loaded > 0

    def test_one_connection_per_origin(self):
        result = self._load("mux")
        http1 = self._load("http/1.1")
        assert result.connections_opened < http1.connections_opened

    def test_mux_wins_on_consolidated_page(self):
        # SPDY's headline effect shows on consolidated pages (deep
        # per-origin request queues): concurrent streams beat six
        # serial-request connections. Sharded pages see little gain —
        # the multiplexing_study row of bench_studies.py maps the full landscape.
        mux = self._load("mux", delay=0.050, n_origins=2,
                         name="muxconsolidated.com")
        http1 = self._load("http/1.1", delay=0.050, n_origins=2,
                           name="muxconsolidated.com")
        assert mux.page_load_time < http1.page_load_time

    @pytest.mark.parametrize("browser,replay",
                             [("mux", "http/1.1"), ("http/1.1", "mux")])
    def test_mismatched_protocols_fail_the_load_not_the_world(
            self, browser, replay):
        # Each server reads the other framing as a malformed message and
        # aborts the connection; the browser fails the root document.
        result = self._load(browser, n_origins=2, replay_protocol=replay)
        assert result.complete
        assert result.resources_loaded == 0
        assert result.resources_failed >= 1

    def test_unknown_protocol_rejected(self):
        site = generate_site("badproto.com", seed=71, n_origins=3)
        sim = Simulator(seed=0)
        machine = HostMachine(sim)
        stack = ShellStack(machine)
        with pytest.raises(ShellError):
            stack.add_replay(site.to_recorded_site(), protocol="quic")
