"""Segment boundaries do not depend on a body's shape.

A response body may be one real piece, one virtual piece, markup followed
by a virtual filler (a generated root document), or many small real
pieces (what RecordShell captures, one per arriving segment). All of them
reach TCP in one write (:func:`repro.http.serialize.write_message`), so
the server sends the same segments, at the same times, for every shape:
the invariant that lets bodies stay virtual without moving timing.
"""

import pytest

from repro.http.body import Body
from repro.http.client import HttpClient
from repro.http.message import Headers, HttpRequest, HttpResponse
from repro.http.mux import MuxClientSession
from repro.http.server import HttpServer
from repro.net.capture import PacketCapture
from repro.testing import TwoHostWorld, delayed_world

LENGTH = 30_000
MARKUP = b"<!DOCTYPE html><html>" + b"m" * 3_000 + b"</html>"


def _chunks(data, size):
    return [data[i:i + size] for i in range(0, len(data), size)]


SHAPES = {
    "one real piece": lambda: [b"r" * LENGTH],
    "one virtual piece": lambda: [LENGTH],
    "real prefix + virtual tail": lambda: [MARKUP, LENGTH - len(MARKUP)],
    "many small real pieces": lambda: _chunks(b"c" * LENGTH, 700),
}

CLIENTS = {"http/1.1": HttpClient, "mux": MuxClientSession}


def _server_segments(protocol, pieces, tls=False):
    """(time, size) of every packet the server sent for one GET."""
    client_cls = CLIENTS[protocol]
    world: TwoHostWorld = delayed_world(0.010)
    capture = PacketCapture(
        world.client_ns,
        match=lambda packet: str(packet.src) == world.SERVER_ADDR)
    HttpServer(world.sim, world.server, world.SERVER_ADDR, 80,
               lambda request: HttpResponse(200, body=Body(pieces)),
               tls=tls, protocol=protocol)
    client = client_cls(world.sim, world.client, world.server_endpoint,
                        tls=tls)
    got = []
    client.request(HttpRequest("GET", "/", Headers([("Host", "x.com")])),
                   got.append)
    world.sim.run_until(lambda: bool(got), timeout=30)
    assert got[0].body.length == LENGTH
    return [(packet.time, packet.size) for packet in capture.packets]


@pytest.mark.parametrize("shape", sorted(SHAPES))
@pytest.mark.parametrize("protocol", sorted(CLIENTS))
@pytest.mark.parametrize("tls", [False, True], ids=["tcp", "tls"])
def test_server_segments_do_not_depend_on_body_shape(shape, protocol, tls):
    reference = _server_segments(protocol, SHAPES["one real piece"](), tls)
    assert len(reference) > LENGTH // 1500
    assert _server_segments(protocol, SHAPES[shape](), tls) == reference


@pytest.mark.parametrize("protocol", sorted(CLIENTS))
def test_markup_survives_the_trip(protocol):
    """The client parses the markup back out of the mixed body."""
    client_cls = CLIENTS[protocol]
    world = delayed_world(0.010)
    body = Body([MARKUP, LENGTH - len(MARKUP)])
    HttpServer(world.sim, world.server, world.SERVER_ADDR, 80,
               lambda request: HttpResponse(200, body=body),
               protocol=protocol)
    client = client_cls(world.sim, world.client, world.server_endpoint)
    got = []
    client.request(HttpRequest("GET", "/", Headers([("Host", "x.com")])),
                   got.append)
    world.sim.run_until(lambda: bool(got), timeout=30)
    received = got[0].body
    assert received.real_prefix == MARKUP
    assert received.virtual_tail == LENGTH - len(MARKUP)
    assert received == body
