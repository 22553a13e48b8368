"""Unit tests for headers, bodies, requests, and responses."""

import pytest

from repro.errors import HttpProtocolError
from repro.http.body import Body
from repro.http.message import Headers, HttpRequest, HttpResponse
from repro.http.status import BODILESS_STATUSES, reason_phrase


class TestHeaders:
    def test_add_and_get_case_insensitive(self):
        headers = Headers()
        headers.add("Content-Type", "text/html")
        assert headers.get("content-type") == "text/html"
        assert headers.get("CONTENT-TYPE") == "text/html"

    def test_original_casing_preserved_on_iteration(self):
        headers = Headers([("X-FooBar", "1")])
        assert list(headers) == [("X-FooBar", "1")]

    def test_duplicates_kept_in_order(self):
        headers = Headers()
        headers.add("Set-Cookie", "a=1")
        headers.add("Set-Cookie", "b=2")
        assert headers.get_all("set-cookie") == ["a=1", "b=2"]
        assert headers.get("Set-Cookie") == "a=1"

    def test_set_replaces_all(self):
        headers = Headers([("X", "1"), ("x", "2")])
        headers.set("X", "3")
        assert headers.get_all("x") == ["3"]

    def test_remove(self):
        headers = Headers([("A", "1"), ("B", "2")])
        headers.remove("a")
        assert "A" not in headers
        assert "B" in headers

    def test_get_default(self):
        assert Headers().get("Missing", "fallback") == "fallback"

    def test_equality_ignores_name_case(self):
        assert Headers([("Host", "x")]) == Headers([("host", "x")])

    def test_copy_is_detached(self):
        original = Headers([("A", "1")])
        clone = original.copy()
        clone.add("B", "2")
        assert "B" not in original

    @pytest.mark.parametrize("name", ["", "Bad:Name", "Bad\nName"])
    def test_invalid_names_rejected(self, name):
        with pytest.raises(HttpProtocolError):
            Headers().add(name, "v")

    def test_invalid_value_rejected(self):
        with pytest.raises(HttpProtocolError):
            Headers().add("X", "evil\r\ninjection")

    def test_len(self):
        assert len(Headers([("A", "1"), ("B", "2")])) == 2


class TestBody:
    def test_empty(self):
        body = Body.empty()
        assert body.length == 0
        assert body.is_fully_real
        assert body.as_bytes() == b""

    def test_real(self):
        body = Body.from_bytes(b"content")
        assert body.length == 7
        assert body.as_bytes() == b"content"

    def test_virtual(self):
        body = Body.virtual(1000)
        assert body.length == 1000
        assert not body.is_fully_real
        with pytest.raises(ValueError):
            body.as_bytes()

    def test_negative_virtual_rejected(self):
        with pytest.raises(ValueError):
            Body.virtual(-1)

    def test_equality(self):
        assert Body.from_bytes(b"ab") == Body.from_bytes(b"ab")
        assert Body.from_bytes(b"ab") != Body.from_bytes(b"cd")
        assert Body.virtual(10) == Body.virtual(10)
        assert Body.virtual(10) != Body.virtual(11)
        # A virtual and a real body of the same length compare equal
        # (virtual content is unknowable).
        assert Body.virtual(2) == Body.from_bytes(b"ab")

    def test_equality_compares_the_real_bytes_both_carry(self):
        assert Body([b"abc", 5]) != Body([b"xyz", 5])
        assert Body([b"abc", 5]) == Body([b"abc", 5])
        assert Body([b"abc", 5]) != Body([b"abc", 6])
        # Where one side is virtual, only the overlap is compared.
        assert Body([b"abc", 5]) == Body.virtual(8)
        assert Body([b"abc", 5]) == Body([b"ab", 6])
        assert Body([b"abc", 5]) != Body([b"az", 6])
        assert Body([b"abc", 5]) == Body.from_bytes(b"abc12345")
        assert Body([b"abc", 5]) != Body.from_bytes(b"abd12345")
        assert Body([3, b"tail"]) != Body([3, b"tale"])

    def test_real_prefix_and_virtual_tail(self):
        body = Body([b"<html>", 100])
        assert (body.real_prefix, body.virtual_tail) == (b"<html>", 100)
        assert body.length == 106 and not body.is_fully_real
        assert (Body.virtual(7).real_prefix, Body.virtual(7).virtual_tail) \
            == (b"", 7)
        real = Body.from_bytes(b"abc")
        assert (real.real_prefix, real.virtual_tail) == (b"abc", 0)
        assert (Body.empty().real_prefix, Body.empty().virtual_tail) \
            == (b"", 0)

    def test_pieces_normalised(self):
        # A capture's segment-sized pieces become one run of each kind.
        body = Body([b"<ht", bytearray(b"ml>"), 0, 40, b"", 60])
        assert body.pieces == [b"<html>", 100]
        assert isinstance(body.pieces[0], bytes)
        assert Body([b"a", 2, b"b", 3]).pieces == [b"a", 2, b"b", 3]

    def test_mixed_pieces(self):
        body = Body([b"head", 100, b"tail"])
        assert body.length == 108
        assert not body.is_fully_real

    def test_empty_pieces_dropped(self):
        body = Body([b"", 0, b"x"])
        assert body.pieces == [b"x"]


class TestHttpRequest:
    def test_host_parsing(self):
        req = HttpRequest("GET", "/", Headers([("Host", "example.com")]))
        assert req.host == "example.com"
        assert req.host_port is None

    def test_host_with_port(self):
        req = HttpRequest("GET", "/", Headers([("Host", "example.com:8080")]))
        assert req.host == "example.com"
        assert req.host_port == 8080

    def test_missing_host(self):
        assert HttpRequest("GET", "/").host is None

    def test_path_and_query(self):
        req = HttpRequest("GET", "/search?q=1&x=2")
        assert req.path == "/search"
        assert req.query == "q=1&x=2"

    def test_no_query(self):
        req = HttpRequest("GET", "/plain")
        assert req.query == ""

    def test_equality(self):
        a = HttpRequest("GET", "/", Headers([("Host", "h")]))
        b = HttpRequest("GET", "/", Headers([("Host", "h")]))
        assert a == b
        assert a != HttpRequest("POST", "/", Headers([("Host", "h")]))

    @pytest.mark.parametrize("body", [b"hello", "hello", 5, [b"x"]])
    def test_non_body_refused_by_type_name(self, body):
        with pytest.raises(HttpProtocolError,
                           match=f"HttpRequest body must be a Body, not "
                                 f"{type(body).__name__}"):
            HttpRequest("POST", "/", body=body)


class TestHttpResponse:
    def test_default_reason_phrase(self):
        assert HttpResponse(200).reason == "OK"
        assert HttpResponse(404).reason == "Not Found"
        assert HttpResponse(599).reason == "Unknown"

    def test_content_length_parsing(self):
        resp = HttpResponse(200, headers=Headers([("Content-Length", "123")]))
        assert resp.content_length == 123

    def test_content_length_missing_or_bad(self):
        assert HttpResponse(200).content_length is None
        resp = HttpResponse(200, headers=Headers([("Content-Length", "nan")]))
        assert resp.content_length is None

    def test_bodiless_statuses(self):
        assert 204 in BODILESS_STATUSES
        assert 304 in BODILESS_STATUSES
        assert 101 in BODILESS_STATUSES
        assert 200 not in BODILESS_STATUSES

    def test_reason_phrase_table(self):
        assert reason_phrase(503) == "Service Unavailable"

    @pytest.mark.parametrize("body", [b"hello", "hello", 5, [b"x"]])
    def test_non_body_refused_by_type_name(self, body):
        # Refused here, naming the type, not mid-simulation inside the
        # serializer when a handler's response is first sent.
        with pytest.raises(HttpProtocolError,
                           match=f"HttpResponse body must be a Body, not "
                                 f"{type(body).__name__}"):
            HttpResponse(200, body=body)
