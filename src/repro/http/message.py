"""HTTP message model: headers, requests, responses.

:class:`Headers` is an ordered, case-insensitive multimap, because recorded
sites round-trip through serialization and the matcher compares header
values (``Host`` especially). Requests and responses are plain data objects;
all wire concerns live in :mod:`repro.http.serialize` and
:mod:`repro.http.parser`.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Optional, Tuple

from repro.errors import HttpProtocolError
from repro.http.body import Body


class Headers:
    """Ordered, case-insensitive HTTP header multimap.

    Iteration yields (name, value) pairs in insertion order with original
    name casing preserved; lookups are case-insensitive.
    """

    __slots__ = ("_items",)

    def __init__(self, items: Optional[Iterable[Tuple[str, str]]] = None) -> None:
        self._items: List[Tuple[str, str]] = []
        if items is not None:
            for name, value in items:
                self.add(name, value)

    def add(self, name: str, value: str) -> None:
        """Append a header field (duplicates allowed, order kept)."""
        if not name or any(c in name for c in ":\r\n"):
            raise HttpProtocolError(f"invalid header name: {name!r}")
        if "\r" in value or "\n" in value:
            raise HttpProtocolError(f"invalid header value: {value!r}")
        self._items.append((name, value))

    def set(self, name: str, value: str) -> None:
        """Replace all fields named ``name`` with a single value."""
        self.remove(name)
        self.add(name, value)

    def get(self, name: str, default: Optional[str] = None) -> Optional[str]:
        """First value for ``name`` (case-insensitive), or ``default``."""
        lowered = name.lower()
        for item_name, value in self._items:
            if item_name.lower() == lowered:
                return value
        return default

    def get_all(self, name: str) -> List[str]:
        """All values for ``name`` in order."""
        lowered = name.lower()
        return [v for n, v in self._items if n.lower() == lowered]

    def remove(self, name: str) -> None:
        """Drop every field named ``name``; no-op if absent."""
        lowered = name.lower()
        self._items = [(n, v) for n, v in self._items if n.lower() != lowered]

    def __contains__(self, name: str) -> bool:
        return self.get(name) is not None

    def __iter__(self) -> Iterator[Tuple[str, str]]:
        return iter(self._items)

    def __len__(self) -> int:
        return len(self._items)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Headers):
            return NotImplemented
        def normalize(items):
            return [(n.lower(), v) for n, v in items]
        return normalize(self._items) == normalize(other._items)

    def copy(self) -> "Headers":
        """A detached copy."""
        return Headers(self._items)

    def __repr__(self) -> str:
        return f"Headers({self._items!r})"


def _message_body(owner: str, body: Optional[Body]) -> Body:
    """``body`` checked at construction (None means empty), so a wrong
    type fails here, naming itself, rather than mid-simulation when the
    message is first serialized."""
    if body is None:
        return Body.empty()
    if not isinstance(body, Body):
        raise HttpProtocolError(
            f"{owner} body must be a Body, not {type(body).__name__}: "
            "wrap bytes with Body.from_bytes or a length with Body.virtual"
        )
    return body


class HttpRequest:
    """An HTTP/1.x request.

    Raises:
        HttpProtocolError: if ``body`` is neither None nor a :class:`Body`.
    """

    __slots__ = ("method", "uri", "version", "headers", "body")

    def __init__(
        self,
        method: str,
        uri: str,
        headers: Optional[Headers] = None,
        body: Optional[Body] = None,
        version: str = "HTTP/1.1",
    ) -> None:
        self.method = method
        self.uri = uri
        self.version = version
        self.headers = headers if headers is not None else Headers()
        self.body = _message_body("HttpRequest", body)

    @property
    def host(self) -> Optional[str]:
        """The Host header value (without port), or None."""
        host = self.headers.get("Host")
        if host is None:
            return None
        return host.split(":", 1)[0]

    @property
    def host_port(self) -> Optional[int]:
        """Port from the Host header, if one is present."""
        host = self.headers.get("Host")
        if host is None or ":" not in host:
            return None
        port_text = host.split(":", 1)[1]
        return int(port_text) if port_text.isdigit() else None

    @property
    def path(self) -> str:
        """The URI without its query string."""
        return self.uri.split("?", 1)[0]

    @property
    def query(self) -> str:
        """The query string (no leading '?'), empty if none."""
        parts = self.uri.split("?", 1)
        return parts[1] if len(parts) == 2 else ""

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, HttpRequest):
            return NotImplemented
        return (
            self.method == other.method
            and self.uri == other.uri
            and self.version == other.version
            and self.headers == other.headers
            and self.body == other.body
        )

    def __repr__(self) -> str:
        return f"<HttpRequest {self.method} {self.uri} {self.version}>"


class HttpResponse:
    """An HTTP/1.x response.

    Raises:
        HttpProtocolError: if ``body`` is neither None nor a :class:`Body`.
    """

    __slots__ = ("status", "reason", "version", "headers", "body")

    def __init__(
        self,
        status: int,
        reason: Optional[str] = None,
        headers: Optional[Headers] = None,
        body: Optional[Body] = None,
        version: str = "HTTP/1.1",
    ) -> None:
        from repro.http.status import reason_phrase

        self.status = status
        self.reason = reason if reason is not None else reason_phrase(status)
        self.version = version
        self.headers = headers if headers is not None else Headers()
        self.body = _message_body("HttpResponse", body)

    @property
    def content_length(self) -> Optional[int]:
        """Parsed Content-Length header, or None."""
        value = self.headers.get("Content-Length")
        if value is None or not value.strip().isdigit():
            return None
        return int(value.strip())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, HttpResponse):
            return NotImplemented
        return (
            self.status == other.status
            and self.version == other.version
            and self.headers == other.headers
            and self.body == other.body
        )

    def __repr__(self) -> str:
        return (
            f"<HttpResponse {self.status} {self.reason} "
            f"body={self.body.length}B>"
        )
