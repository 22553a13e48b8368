"""Unit and property tests for the incremental HTTP parser."""

import weakref

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import HttpParseError
from repro.http.body import Body
from repro.http.client import HttpClient
from repro.http.message import Headers, HttpRequest, HttpResponse
from repro.http.parser import HttpParser
from repro.http.serialize import serialize_request, serialize_response
from repro.http.server import HttpServer
from repro.testing import delayed_world
from repro.transport.wire import pieces_slice


def feed_bytes(parser, data, chunk=None):
    if chunk is None:
        parser.feed([data])
    else:
        for i in range(0, len(data), chunk):
            parser.feed([data[i:i + chunk]])
    return parser.pop_messages()


class TestRequestParsing:
    def test_simple_get(self):
        wire = b"GET /index.html HTTP/1.1\r\nHost: example.com\r\n\r\n"
        messages = feed_bytes(HttpParser("request"), wire)
        assert len(messages) == 1
        req = messages[0]
        assert req.method == "GET"
        assert req.uri == "/index.html"
        assert req.headers.get("Host") == "example.com"
        assert req.body.length == 0

    def test_byte_at_a_time(self):
        wire = b"GET / HTTP/1.1\r\nHost: h\r\n\r\n"
        messages = feed_bytes(HttpParser("request"), wire, chunk=1)
        assert len(messages) == 1

    def test_post_with_body(self):
        wire = (b"POST /submit HTTP/1.1\r\nHost: h\r\n"
                b"Content-Length: 5\r\n\r\nhello")
        req = feed_bytes(HttpParser("request"), wire)[0]
        assert req.method == "POST"
        assert req.body.as_bytes() == b"hello"

    def test_pipelined_requests(self):
        wire = (b"GET /a HTTP/1.1\r\nHost: h\r\n\r\n"
                b"GET /b HTTP/1.1\r\nHost: h\r\n\r\n")
        messages = feed_bytes(HttpParser("request"), wire)
        assert [m.uri for m in messages] == ["/a", "/b"]

    def test_lf_only_line_endings_tolerated(self):
        wire = b"GET / HTTP/1.1\nHost: h\n\n"
        assert len(feed_bytes(HttpParser("request"), wire)) == 1

    def test_malformed_request_line(self):
        with pytest.raises(HttpParseError):
            feed_bytes(HttpParser("request"), b"GARBAGE\r\n\r\n")

    def test_malformed_header(self):
        with pytest.raises(HttpParseError):
            feed_bytes(HttpParser("request"),
                       b"GET / HTTP/1.1\r\nno-colon-here\r\n\r\n")

    def test_header_with_space_before_colon_rejected(self):
        with pytest.raises(HttpParseError):
            feed_bytes(HttpParser("request"),
                       b"GET / HTTP/1.1\r\nBad : v\r\n\r\n")

    def test_oversized_headers_rejected(self):
        parser = HttpParser("request")
        parser.feed([b"GET / HTTP/1.1\r\n"])
        with pytest.raises(HttpParseError):
            parser.feed([b"X: " + b"a" * 70_000])

    def test_virtual_bytes_in_headers_rejected(self):
        parser = HttpParser("request")
        with pytest.raises(HttpParseError):
            parser.feed([b"GET / HT", 50])
            parser.feed([b"TP/1.1\r\n\r\n"])


class TestResponseParsing:
    def test_content_length_response(self):
        wire = (b"HTTP/1.1 200 OK\r\nContent-Length: 4\r\n\r\nbody")
        resp = feed_bytes(HttpParser("response"), wire)[0]
        assert resp.status == 200
        assert resp.reason == "OK"
        assert resp.body.as_bytes() == b"body"

    def test_virtual_body(self):
        parser = HttpParser("response")
        parser.feed([b"HTTP/1.1 200 OK\r\nContent-Length: 5000\r\n\r\n"])
        parser.feed([2000])
        assert parser.messages == []
        parser.feed([3000])
        resp = parser.pop_messages()[0]
        assert resp.body.length == 5000
        assert not resp.body.is_fully_real

    def test_mixed_real_virtual_body(self):
        parser = HttpParser("response")
        parser.feed([b"HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\nab", 8])
        resp = parser.pop_messages()[0]
        assert resp.body.length == 10

    def test_204_has_no_body(self):
        wire = (b"HTTP/1.1 204 No Content\r\n\r\n"
                b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nxy")
        messages = feed_bytes(HttpParser("response"), wire)
        assert [m.status for m in messages] == [204, 200]

    def test_head_response_has_no_body(self):
        parser = HttpParser("response")
        parser.expect("HEAD")
        parser.expect("GET")
        wire = (b"HTTP/1.1 200 OK\r\nContent-Length: 100\r\n\r\n"
                b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nxy")
        parser.feed([wire])
        messages = parser.pop_messages()
        assert len(messages) == 2
        assert messages[0].body.length == 0
        assert messages[1].body.as_bytes() == b"xy"

    def test_chunked_encoding(self):
        wire = (b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
                b"4\r\nWiki\r\n5\r\npedia\r\n0\r\n\r\n")
        resp = feed_bytes(HttpParser("response"), wire)[0]
        assert resp.body.as_bytes() == b"Wikipedia"

    def test_chunked_with_extensions_and_trailers(self):
        wire = (b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
                b"3;ext=1\r\nabc\r\n0\r\nTrailer: x\r\n\r\n")
        resp = feed_bytes(HttpParser("response"), wire)[0]
        assert resp.body.as_bytes() == b"abc"

    def test_bad_chunk_size(self):
        parser = HttpParser("response")
        with pytest.raises(HttpParseError):
            parser.feed([b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked"
                         b"\r\n\r\nzz\r\n"])

    def test_close_delimited_body(self):
        parser = HttpParser("response")
        parser.feed([b"HTTP/1.1 200 OK\r\n\r\nsome data"])
        assert parser.messages == []
        parser.feed([b" more"])
        parser.finish()
        resp = parser.pop_messages()[0]
        assert resp.body.as_bytes() == b"some data more"

    def test_finish_mid_message_raises(self):
        parser = HttpParser("response")
        parser.feed([b"HTTP/1.1 200 OK\r\nContent-Le"])
        with pytest.raises(HttpParseError):
            parser.finish()

    def test_bad_content_length(self):
        with pytest.raises(HttpParseError):
            feed_bytes(HttpParser("response"),
                       b"HTTP/1.1 200 OK\r\nContent-Length: abc\r\n\r\n")

    def test_malformed_status_line(self):
        with pytest.raises(HttpParseError):
            feed_bytes(HttpParser("response"), b"HTTP/1.1 OK\r\n\r\n")

    def test_bad_kind_rejected(self):
        with pytest.raises(ValueError):
            HttpParser("message")

    def test_feed_after_finish_rejected(self):
        parser = HttpParser("response")
        parser.feed([b"HTTP/1.1 200 OK\r\nContent-Length: 0\r\n\r\n"])
        parser.finish()
        with pytest.raises(HttpParseError):
            parser.feed([b"x"])

    def test_callback_mode(self):
        got = []
        parser = HttpParser("request")
        parser.on_message = got.append
        parser.feed([b"GET / HTTP/1.1\r\nHost: h\r\n\r\n"])
        assert len(got) == 1


class TestRetention:
    """A message goes to the callback or to the queue, never both."""

    WIRE = b"GET / HTTP/1.1\r\nHost: h\r\n\r\n"

    def test_callback_parser_keeps_nothing(self):
        got = []
        parser = HttpParser("request")
        parser.on_message = got.append
        for __ in range(5):
            parser.feed([self.WIRE])
        assert len(got) == 5
        assert parser.messages == []
        assert parser.pop_messages() == []

    def test_callback_less_parser_queues(self):
        parser = HttpParser("request")
        for __ in range(5):
            parser.feed([self.WIRE])
        assert len(parser.messages) == 5
        assert len(parser.pop_messages()) == 5
        assert parser.messages == []

    def test_keep_alive_client_holds_no_delivered_response(
            self, collector_off, monkeypatch):
        class Traceable(HttpResponse):
            __slots__ = ("__weakref__",)

        monkeypatch.setattr("repro.http.parser.HttpResponse", Traceable)
        world = delayed_world(0.010)
        HttpServer(world.sim, world.server, world.SERVER_ADDR, 80,
                   lambda request: HttpResponse(
                       200, body=Body.from_bytes(b"x" * 1000)))
        client = HttpClient(world.sim, world.client, world.server_endpoint)
        delivered = []

        def take(response):
            assert response.body.length == 1000
            delivered.append(weakref.ref(response))

        for __ in range(3):
            client.request(HttpRequest("GET", "/", Headers([("Host", "h")])),
                           take)
        world.sim.run_until(lambda: len(delivered) == 3, timeout=5)
        assert not client.closed and client.responses_received == 3
        assert [ref() for ref in delivered] == [None, None, None]


class TestRoundTrip:
    def test_request_roundtrip(self):
        original = HttpRequest(
            "POST", "/api?x=1",
            Headers([("Host", "example.com"), ("X-Custom", "v"),
                     ("Content-Length", "7")]),
            Body.from_bytes(b"payload"),
        )
        parser = HttpParser("request")
        parser.feed(serialize_request(original))
        parsed = parser.pop_messages()[0]
        assert parsed == original

    def test_response_roundtrip_virtual(self):
        original = HttpResponse(
            200, headers=Headers([("Content-Type", "image/jpeg")]),
            body=Body.virtual(100_000),
        )
        parser = HttpParser("response")
        parser.feed(serialize_response(original))
        parsed = parser.pop_messages()[0]
        assert parsed.status == 200
        assert parsed.body.length == 100_000
        assert parsed.headers.get("Content-Type") == "image/jpeg"


# ---------------------------------------------------------------------- #
# property tests

header_names = st.text(
    alphabet=st.sampled_from("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnoprstuvwxyz-"),
    min_size=1, max_size=16,
)
header_values = st.text(
    alphabet=st.characters(min_codepoint=0x20, max_codepoint=0x7E),
    max_size=30,
).map(str.strip).filter(lambda v: ":" not in v or True)


@st.composite
def requests(draw):
    method = draw(st.sampled_from(["GET", "POST", "HEAD", "PUT"]))
    path = "/" + draw(st.text(
        alphabet=st.sampled_from("abcdefghij0123456789/._-?=&"), max_size=40,
    ))
    names = draw(st.lists(header_names, min_size=1, max_size=6, unique_by=str.lower))
    headers = Headers()
    headers.add("Host", "example.com")
    for name in names:
        if name.lower() in ("host", "content-length", "transfer-encoding"):
            continue
        headers.add(name, draw(header_values))
    body = Body.from_bytes(draw(st.binary(max_size=200)))
    return HttpRequest(method, path, headers, body)


class TestParserProperties:
    @given(requests(), st.integers(min_value=1, max_value=64))
    @settings(max_examples=150, deadline=None)
    def test_serialize_parse_roundtrip_any_chunking(self, request, chunk):
        pieces = serialize_request(request)
        parser = HttpParser("request")
        # Re-chunk the serialized stream arbitrarily.
        total = sum(len(p) if isinstance(p, bytes) else p for p in pieces)
        for start in range(0, total, chunk):
            parser.feed(pieces_slice(pieces, start, min(start + chunk, total)))
        parsed = parser.pop_messages()
        assert len(parsed) == 1
        assert parsed[0].method == request.method
        assert parsed[0].uri == request.uri
        assert parsed[0].body == request.body
        for name, value in request.headers:
            assert parsed[0].headers.get(name) == value
