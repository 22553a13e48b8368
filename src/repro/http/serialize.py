"""HTTP/1.x message serialization to stream pieces.

Serialization returns a list of stream pieces: one real-bytes block for the
start line and headers, followed by the body's pieces (real or virtual).
The byte count on the wire is identical either way, and
:func:`write_message` hands the body to TCP in one write however many
pieces carry it, so no segment boundary depends on a body's shape either:
that is the invariant that lets bodies stay virtual without affecting
timing.
"""

from __future__ import annotations

from typing import List

from repro.http.message import Headers, HttpRequest, HttpResponse
from repro.http.status import BODILESS_STATUSES
from repro.transport.wire import Piece


def serialize_headers(first_line: str, headers: Headers) -> bytes:
    """Render the start line and header block, including the blank line."""
    lines = [first_line]
    lines.extend(f"{name}: {value}" for name, value in headers)
    lines.append("")
    lines.append("")
    return "\r\n".join(lines).encode("latin-1")


def _with_content_length(headers: Headers, body_length: int) -> Headers:
    """Ensure framing headers exist for a body of ``body_length`` bytes."""
    if "Transfer-Encoding" in headers:
        return headers
    if headers.get("Content-Length") is not None:
        return headers
    if body_length == 0:
        return headers
    fixed = headers.copy()
    fixed.set("Content-Length", str(body_length))
    return fixed


def serialize_request(request: HttpRequest) -> List[Piece]:
    """Serialize a request to stream pieces."""
    headers = _with_content_length(request.headers, request.body.length)
    first_line = f"{request.method} {request.uri} {request.version}"
    pieces: List[Piece] = [serialize_headers(first_line, headers)]
    pieces.extend(request.body.pieces)
    return pieces


def serialize_response(response: HttpResponse) -> List[Piece]:
    """Serialize a response to stream pieces.

    Responses that must not carry a body (1xx, 204, 304) are serialized
    without one regardless of the attached Body.
    """
    if response.status in BODILESS_STATUSES:
        first_line = (
            f"{response.version} {response.status} {response.reason}"
        )
        return [serialize_headers(first_line, response.headers)]
    headers = _with_content_length(response.headers, response.body.length)
    first_line = f"{response.version} {response.status} {response.reason}"
    pieces: List[Piece] = [serialize_headers(first_line, headers)]
    pieces.extend(response.body.pieces)
    return pieces


def write_message(sender, pieces: List[Piece]) -> None:
    """Hand a serialized message to a stream (a TCP connection or a TLS
    session): its header block as one write, then its body as another.

    One write queues every piece before any is transmitted, so a body
    split into many pieces (a capture's segment-sized slices, markup
    followed by a virtual filler) leaves in the same segments as the same
    body in one piece. The header block stays a write of its own, which
    is why each response's headers leave in a segment ahead of their
    body (DESIGN.md §2).
    """
    sender.write(pieces[:1])
    if len(pieces) > 1:
        sender.write(pieces[1:])


def message_wire_length(pieces: List[Piece]) -> int:
    """Total on-wire bytes of a serialized message."""
    total = 0
    for piece in pieces:
        total += len(piece) if isinstance(piece, (bytes, bytearray)) else piece
    return total
