"""Incremental HTTP/1.x parser over mixed real/virtual streams.

The parser consumes stream pieces as the transport delivers them and emits
complete :class:`~repro.http.message.HttpRequest` /
:class:`~repro.http.message.HttpResponse` objects. Header sections must be
real bytes (our serializer guarantees that); bodies may be any mix — the
parser only counts virtual bytes through body regions.

Framing supported: Content-Length, chunked transfer encoding, bodiless
statuses, HEAD responses, and close-delimited bodies (via :meth:`finish`).
RecordShell's proxy runs one request parser and one response parser per
intercepted connection, pairing their outputs.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional

from repro.errors import HttpParseError
from repro.http.body import Body
from repro.http.message import Headers, HttpRequest, HttpResponse
from repro.http.status import BODILESS_STATUSES
from repro.transport.wire import Piece, piece_len

_MAX_HEADER_BYTES = 64 * 1024

_START = "start-line"
_HEADERS = "headers"
_BODY_CL = "body-content-length"
_CHUNK_SIZE = "chunk-size"
_CHUNK_DATA = "chunk-data"
_CHUNK_CRLF = "chunk-crlf"
_TRAILERS = "trailers"
_BODY_CLOSE = "body-close-delimited"


class _PieceBuffer:
    """FIFO of stream pieces with line- and byte-oriented reads."""

    def __init__(self) -> None:
        self._pieces: Deque[Piece] = deque()
        self._real_head = bytearray()

    def push(self, piece: Piece) -> None:
        if piece_len(piece) == 0:
            return
        self._pieces.append(piece)

    def _fill_real_head(self) -> None:
        # Move leading real pieces into the line-scan buffer.
        while self._pieces and isinstance(self._pieces[0], (bytes, bytearray)):
            self._real_head.extend(self._pieces.popleft())

    def read_line(self) -> Optional[bytes]:
        """One CRLF- (or LF-) terminated line, without the terminator.

        Returns None if no complete line is buffered yet.

        Raises:
            HttpParseError: if virtual bytes appear where a line is needed,
                or the pending header text exceeds the size limit.
        """
        self._fill_real_head()
        index = self._real_head.find(b"\n")
        if index == -1:
            if self._pieces:
                raise HttpParseError(
                    "virtual bytes encountered while parsing header text"
                )
            if len(self._real_head) > _MAX_HEADER_BYTES:
                raise HttpParseError("header section exceeds 64 KiB")
            return None
        line = bytes(self._real_head[:index])
        del self._real_head[: index + 1]
        return line.rstrip(b"\r")

    def read_up_to(self, limit: int) -> List[Piece]:
        """Consume and return at most ``limit`` buffered bytes as pieces."""
        out: List[Piece] = []
        remaining = limit
        if self._real_head and remaining > 0:
            take = min(len(self._real_head), remaining)
            out.append(bytes(self._real_head[:take]))
            del self._real_head[:take]
            remaining -= take
        while remaining > 0 and self._pieces:
            piece = self._pieces.popleft()
            length = piece_len(piece)
            if length <= remaining:
                out.append(piece)
                remaining -= length
            else:
                if isinstance(piece, int):
                    out.append(remaining)
                    self._pieces.appendleft(piece - remaining)
                else:
                    out.append(bytes(piece[:remaining]))
                    self._pieces.appendleft(piece[remaining:])
                remaining = 0
        return out

    @property
    def buffered(self) -> int:
        """Total bytes currently buffered."""
        return len(self._real_head) + sum(piece_len(p) for p in self._pieces)


class HttpParser:
    """Incremental parser for a one-direction HTTP/1.x stream.

    Args:
        kind: "request" or "response".

    Feed transport deliveries with :meth:`feed`. Completed messages go to
    exactly one place: the ``on_message`` callback attribute when it is
    set, or else the :attr:`messages` queue (drain it with
    :meth:`pop_messages`). A callback parser keeps nothing, so a message,
    its header strings and its body bytes live only as long as the
    callback's consumer holds them — not as long as the connection.
    For a response parser, push the method of each outstanding request with
    :meth:`expect` so HEAD responses frame correctly.
    """

    def __init__(self, kind: str) -> None:
        if kind not in ("request", "response"):
            raise ValueError(f"kind must be 'request' or 'response': {kind!r}")
        self.kind = kind
        self.messages: List = []
        self.on_message = None
        self._buffer = _PieceBuffer()
        self._state = _START
        self._expected_methods: Deque[str] = deque()
        self._reset_message_state()
        self._finished = False

    def _reset_message_state(self) -> None:
        self._start_line: Optional[str] = None
        self._headers = Headers()
        self._body_pieces: List[Piece] = []
        self._body_remaining = 0
        self._current_method = "GET"

    # ------------------------------------------------------------------ #
    # public API

    def expect(self, method: str) -> None:
        """(Response parsers) note the method of an outstanding request."""
        self._expected_methods.append(method.upper())

    def feed(self, pieces: List[Piece]) -> None:
        """Consume newly arrived stream pieces; emits completed messages."""
        if self._finished:
            raise HttpParseError("feed() after finish()")
        for piece in pieces:
            self._buffer.push(piece)
        self._advance()

    def finish(self) -> None:
        """Signal end-of-stream (connection closed by the peer).

        Completes a close-delimited response body; raises if the stream
        ends mid-message otherwise.
        """
        if self._finished:
            return
        self._finished = True
        if self._state == _BODY_CLOSE:
            self._emit()
            self._state = _START
            return
        if self._state != _START or self._buffer.buffered:
            raise HttpParseError("stream ended mid-message")

    # ------------------------------------------------------------------ #
    # state machine

    def _advance(self) -> None:
        progressing = True
        while progressing:
            progressing = False
            if self._state == _START:
                line = self._buffer.read_line()
                if line is None:
                    return
                if not line:
                    # Tolerate stray blank lines between messages.
                    progressing = True
                    continue
                self._start_line = line.decode("latin-1")
                self._state = _HEADERS
                progressing = True
            elif self._state == _HEADERS:
                line = self._buffer.read_line()
                if line is None:
                    return
                if line:
                    self._header_line(line)
                else:
                    self._headers_complete()
                progressing = True
            elif self._state == _BODY_CL:
                progressing = self._consume_body()
            elif self._state == _BODY_CLOSE:
                self._body_pieces.extend(
                    self._buffer.read_up_to(self._buffer.buffered)
                )
                return
            elif self._state == _CHUNK_SIZE:
                line = self._buffer.read_line()
                if line is None:
                    return
                self._chunk_size_line(line)
                progressing = True
            elif self._state == _CHUNK_DATA:
                progressing = self._consume_chunk_data()
            elif self._state == _CHUNK_CRLF:
                line = self._buffer.read_line()
                if line is None:
                    return
                if line:
                    raise HttpParseError("missing CRLF after chunk data")
                self._state = _CHUNK_SIZE
                progressing = True
            elif self._state == _TRAILERS:
                line = self._buffer.read_line()
                if line is None:
                    return
                if not line:
                    self._emit()
                    self._state = _START
                progressing = True

    def _header_line(self, line: bytes) -> None:
        text = line.decode("latin-1")
        if ":" not in text:
            raise HttpParseError(f"malformed header line: {text!r}")
        name, __, value = text.partition(":")
        if not name.strip() or name != name.strip():
            raise HttpParseError(f"malformed header name: {name!r}")
        self._headers.add(name, value.strip())

    def _headers_complete(self) -> None:
        if self.kind == "response":
            self._current_method = (
                self._expected_methods.popleft()
                if self._expected_methods else "GET"
            )
        framing = self._body_framing()
        if framing == "none":
            self._emit()
            self._state = _START
        elif framing == "chunked":
            self._state = _CHUNK_SIZE
        elif framing == "close":
            self._state = _BODY_CLOSE
        else:
            self._body_remaining = int(framing)
            if self._body_remaining == 0:
                self._emit()
                self._state = _START
            else:
                self._state = _BODY_CL

    def _body_framing(self) -> str:
        """Decide body framing per RFC 7230 §3.3.3 (simplified)."""
        if self.kind == "response":
            status = self._parse_status_line()[1]
            if status in BODILESS_STATUSES or self._current_method == "HEAD":
                return "none"
        te = self._headers.get("Transfer-Encoding")
        if te is not None and "chunked" in te.lower():
            return "chunked"
        cl = self._headers.get("Content-Length")
        if cl is not None:
            cl = cl.strip()
            if not cl.isdigit():
                raise HttpParseError(f"bad Content-Length: {cl!r}")
            return cl
        if self.kind == "request":
            return "none"
        return "close"

    def _consume_body(self) -> bool:
        got = self._buffer.read_up_to(self._body_remaining)
        if not got:
            return False
        self._body_pieces.extend(got)
        self._body_remaining -= sum(piece_len(p) for p in got)
        if self._body_remaining == 0:
            self._emit()
            self._state = _START
            return True
        return False

    def _chunk_size_line(self, line: bytes) -> None:
        text = line.decode("latin-1").split(";", 1)[0].strip()
        try:
            size = int(text, 16)
        except ValueError:
            raise HttpParseError(f"bad chunk size: {text!r}") from None
        if size == 0:
            self._state = _TRAILERS
        else:
            self._body_remaining = size
            self._state = _CHUNK_DATA

    def _consume_chunk_data(self) -> bool:
        got = self._buffer.read_up_to(self._body_remaining)
        if not got:
            return False
        self._body_pieces.extend(got)
        self._body_remaining -= sum(piece_len(p) for p in got)
        if self._body_remaining == 0:
            self._state = _CHUNK_CRLF
            return True
        return False

    # ------------------------------------------------------------------ #
    # emission

    def _parse_status_line(self):
        assert self._start_line is not None
        parts = self._start_line.split(" ", 2)
        if len(parts) < 2 or not parts[1].isdigit():
            raise HttpParseError(f"malformed status line: {self._start_line!r}")
        version = parts[0]
        status = int(parts[1])
        reason = parts[2] if len(parts) == 3 else ""
        return version, status, reason

    def _emit(self) -> None:
        body = Body(self._body_pieces)
        if self.kind == "request":
            parts = (self._start_line or "").split(" ")
            if len(parts) != 3:
                raise HttpParseError(
                    f"malformed request line: {self._start_line!r}"
                )
            method, uri, version = parts
            message = HttpRequest(method, uri, self._headers, body, version)
        else:
            version, status, reason = self._parse_status_line()
            message = HttpResponse(status, reason, self._headers, body, version)
        self._reset_message_state()
        if self.on_message is not None:
            self.on_message(message)
        else:
            self.messages.append(message)

    def pop_messages(self) -> List:
        """Drain and return the completed-message queue (callback-less
        parsers only; a callback parser's queue stays empty)."""
        out = self.messages
        self.messages = []
        return out
