"""One recorded request-response exchange.

Mahimahi stores each pair as a protobuf file containing the raw request,
the raw response, and the connection's original destination (IP/port) —
the datum that makes multi-origin replay possible. This class is the same
record with JSON serialization; bodies can be real (on disk: a reference
into the content-addressed store; in the canonical in-memory form:
base64) or virtual (length only).
"""

from __future__ import annotations

import base64
import json
from typing import Any, Callable, Dict, Optional

from repro.errors import AddressError, StoreFormatError

#: Resolves a CAS body reference (hex address) to the body's raw bytes.
BodyResolver = Callable[[str], bytes]

#: Stores raw body bytes, returning their CAS address.
BodyPut = Callable[[bytes], str]
from repro.http.body import Body
from repro.http.message import Headers, HttpRequest, HttpResponse
from repro.net.address import IPv4Address


class RequestResponsePair:
    """A recorded exchange and the origin that served it.

    Attributes:
        scheme: "http" or "https".
        origin_ip: the server IP the client originally connected to.
        origin_port: the server port (80 / 443 typically).
        request / response: the parsed messages.
    """

    __slots__ = ("scheme", "origin_ip", "origin_port", "request", "response")

    def __init__(
        self,
        scheme: str,
        origin_ip: IPv4Address,
        origin_port: int,
        request: HttpRequest,
        response: HttpResponse,
    ) -> None:
        if scheme not in ("http", "https"):
            raise StoreFormatError(f"unknown scheme: {scheme!r}")
        self.scheme = scheme
        self.origin_ip = origin_ip
        self.origin_port = origin_port
        self.request = request
        self.response = response

    @property
    def host(self) -> Optional[str]:
        """The request's Host header value (no port)."""
        return self.request.host

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serializable form."""
        return {
            "scheme": self.scheme,
            "origin_ip": str(self.origin_ip),
            "origin_port": self.origin_port,
            "request": _message_to_dict(
                self.request,
                first_line=[self.request.method, self.request.uri,
                            self.request.version],
            ),
            "response": _message_to_dict(
                self.response,
                first_line=[self.response.version, self.response.status,
                            self.response.reason],
            ),
        }

    def to_canonical_bytes(self) -> bytes:
        """The pair's canonical serialized form (sorted keys, no spaces).

        The pair's identity, bodies inline: what "pair-for-pair
        byte-identical" compares across a save/load round trip, and the
        encoding :meth:`to_cas_bytes` shares (one canonical encoding, so
        a pair-file checksum mismatch always means damage, never an
        encoder's whitespace mood).
        """
        return json.dumps(
            self.to_dict(), sort_keys=True, separators=(",", ":")
        ).encode("utf-8")

    def to_cas_dict(self, put: BodyPut) -> Dict[str, Any]:
        """JSON form with real bodies externalised into a CAS.

        Every fully-real, non-empty body is handed to ``put`` (which
        stores it and returns its address) and serialised as
        ``{"length": N, "cas": "<hex>"}`` instead of inline base64.
        Virtual and empty bodies are unchanged — they carry no content
        to deduplicate.
        """
        data = self.to_dict()
        for message, body in (("request", self.request.body),
                              ("response", self.response.body)):
            body_dict = data[message]["body"]
            if "content_b64" in body_dict:
                body_dict.pop("content_b64")
                body_dict["cas"] = put(body.as_bytes())
        return data

    def to_cas_bytes(self, put: BodyPut) -> bytes:
        """Canonical bytes of the :meth:`to_cas_dict` form: exactly what
        :meth:`RecordedSite.save <repro.record.store.RecordedSite.save>`
        writes to a pair file, and the manifest checksum's input."""
        return json.dumps(
            self.to_cas_dict(put), sort_keys=True, separators=(",", ":")
        ).encode("utf-8")

    @classmethod
    def from_dict(
        cls,
        data: Dict[str, Any],
        body_resolver: Optional[BodyResolver] = None,
    ) -> "RequestResponsePair":
        """Parse the :meth:`to_dict` (or :meth:`to_cas_dict`) form.

        Args:
            data: the serialized pair.
            body_resolver: resolves ``{"cas": "<hex>"}`` body references
                to raw bytes (a bound :meth:`CasStore.get
                <repro.record.cas.CasStore.get>`); without one, a CAS
                reference raises :class:`StoreFormatError`.

        Raises:
            StoreFormatError: on missing or malformed fields, or a CAS
                reference with no resolver attached.
            BlobMissingError / BlobCorruptError: propagated from the
                resolver for a dangling or corrupt reference.
        """
        try:
            req_data = data["request"]
            resp_data = data["response"]
            method, uri, req_version = req_data["first_line"]
            resp_version, status, reason = resp_data["first_line"]
            request = HttpRequest(
                method, uri,
                _headers_from_list(req_data["headers"]),
                _body_from_dict(req_data["body"], body_resolver),
                req_version,
            )
            response = HttpResponse(
                int(status), reason,
                _headers_from_list(resp_data["headers"]),
                _body_from_dict(resp_data["body"], body_resolver),
                resp_version,
            )
            return cls(
                data["scheme"],
                IPv4Address(data["origin_ip"]),
                int(data["origin_port"]),
                request,
                response,
            )
        except (KeyError, TypeError, ValueError, AddressError) as exc:
            raise StoreFormatError(f"malformed pair record: {exc}") from exc

    def __repr__(self) -> str:
        return (
            f"<RequestResponsePair {self.scheme}://{self.host}"
            f"{self.request.uri} @ {self.origin_ip}:{self.origin_port} "
            f"-> {self.response.status} ({self.response.body.length}B)>"
        )


def _message_to_dict(message, first_line) -> Dict[str, Any]:
    body: Body = message.body
    body_dict: Dict[str, Any] = {"length": body.length}
    if body.length and body.is_fully_real:
        body_dict["content_b64"] = base64.b64encode(body.as_bytes()).decode("ascii")
    return {
        "first_line": list(first_line),
        "headers": [[name, value] for name, value in message.headers],
        "body": body_dict,
    }


def _headers_from_list(items) -> Headers:
    return Headers((name, value) for name, value in items)


def _body_from_dict(
    data: Dict[str, Any], resolver: Optional[BodyResolver] = None
) -> Body:
    length = int(data["length"])
    content = data.get("content_b64")
    cas_ref = data.get("cas")
    if content is not None:
        raw = base64.b64decode(content)
        if len(raw) != length:
            raise StoreFormatError(
                f"body length {length} does not match content ({len(raw)}B)"
            )
        return Body.from_bytes(raw)
    if cas_ref is not None:
        if resolver is None:
            raise StoreFormatError(
                f"body references CAS blob {cas_ref!r} but no store is "
                f"attached (the manifest names no cas directory)"
            )
        raw = resolver(str(cas_ref))
        if len(raw) != length:
            raise StoreFormatError(
                f"body length {length} does not match CAS blob "
                f"{cas_ref} ({len(raw)}B)"
            )
        return Body.from_bytes(raw)
    if length == 0:
        return Body.empty()
    return Body.virtual(length)
