"""The fabric wire protocol: length-prefixed, checksummed frames.

Both fabric backends — forked local workers and ``mm-fabric worker``
subprocesses — speak exactly this protocol over an OS pipe on this
host, so the coordinator cannot tell backends apart and a worker binary
works unchanged under either.

Frame layout (all integers big-endian)::

    MAGIC (4B) | length (4B) | blake2b-8 of payload (8B) | payload

The payload is a pickled ``(kind, data)`` message tuple. A local pipe
does not flip, drop or reorder bytes, so a frame that is not well formed
means the peer is broken, not the wire: the magic catches a stream that
is not speaking the protocol at all (a stray print to stdout inside a
worker), and the checksum fails fast on a payload that does not match
its header. Either way the read raises one named
:class:`~repro.errors.ProtocolError`, and the coordinator loses that
worker exactly as it would on EOF.

Message vocabulary (coordinator ↔ worker), protocol version 4::

    worker → coordinator:  ("hello",     {"protocol", "pid"})
    coordinator → worker:  ("config",    {...})      # see worker.py
    coordinator → worker:  ("run",       trial index)       # repeatable
    worker → coordinator:  ("heartbeat", {"pid"})    # liveness, any time
    worker → coordinator:  ("outcome",   TrialOutcome)      # ends a run
    coordinator → worker:  ("shutdown",  None)       # conversation over
    worker → coordinator:  ("error",     message string)

After each ``outcome`` the worker blocks for either another ``run`` or
``shutdown``; heartbeats flow on a wall-clock timer between — and during
— trials, so a coordinator can tell a slow worker (beating) from a
wedged one (silent).

A clean EOF at a frame boundary raises :class:`EOFError` (the normal
end-of-worker signal); EOF *inside* a frame is a :class:`ProtocolError`
(the worker died mid-send).

**Deadlines.** :func:`read_message` and :func:`write_message` accept a
``timeout`` (wall seconds for the whole frame). On expiry they raise
:class:`~repro.errors.ProtocolTimeout` — a peer that stops mid-frame or
stops reading can therefore never hang the caller. Deadlines need an
*unbuffered* stream with a real file descriptor (the backends open their
pipe ends with ``buffering=0``); on buffered or in-memory streams the
timeout is ignored and the read blocks, which is fine for the
in-process test harnesses that use them.
"""

from __future__ import annotations

import hashlib
import io
import os
import pickle
import select
import struct
import time
from typing import Any, BinaryIO, Optional, Tuple

from repro.errors import ProtocolError, ProtocolTimeout

__all__ = [
    "MAX_FRAME",
    "PROTOCOL_VERSION",
    "read_message",
    "write_message",
]

#: Bumped on any incompatible frame or vocabulary change; the hello
#: handshake refuses a mismatch instead of guessing. v3: one ``run`` is
#: one trial index, answered by exactly one ``outcome`` (no ``done``).
#: v4: an outcome's page-load result keeps its page's name, not its
#: PageModel (the same record change as journal version 2).
PROTOCOL_VERSION = 4

_MAGIC = b"MMFB"
_HEADER = struct.Struct(">4sI8s")
_CHECKSUM_SIZE = 8

#: Refuse absurd frames before allocating for them (a corrupted length
#: prefix must not become a 4 GiB read).
MAX_FRAME = 256 * 1024 * 1024


def _checksum(payload: bytes) -> bytes:
    return hashlib.blake2b(payload, digest_size=_CHECKSUM_SIZE).digest()


def _deadline(timeout: Optional[float]) -> Optional[float]:
    return None if timeout is None else time.monotonic() + timeout


def _selectable_fd(stream: BinaryIO) -> Optional[int]:
    """The stream's fd when select() is accurate for it, else None.

    A buffered stream may hold bytes in userspace that select cannot
    see, so deadlines are only enforced on raw (unbuffered) streams —
    which is how the backends open every coordinator-side pipe end.
    """
    if isinstance(stream, (io.BufferedIOBase, io.TextIOBase)):
        return None
    try:
        return stream.fileno()
    except (AttributeError, OSError, ValueError, io.UnsupportedOperation):
        return None


def write_message(stream: BinaryIO, message: Tuple[str, Any],
                  timeout: Optional[float] = None) -> None:
    """Frame and send one ``(kind, data)`` message (flushed).

    Args:
        stream: the peer-bound byte stream.
        message: the ``(kind, data)`` tuple to frame.
        timeout: wall seconds for the whole frame to enter the pipe.
            A peer that stopped reading (a wedged worker, a full pipe
            buffer) then raises :class:`~repro.errors.ProtocolTimeout`
            instead of blocking the caller forever. Needs an unbuffered
            stream; ignored otherwise.
    """
    payload = pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)
    frame = _HEADER.pack(_MAGIC, len(payload), _checksum(payload)) + payload
    fd = _selectable_fd(stream) if timeout is not None else None
    if fd is None:
        stream.write(frame)
        stream.flush()
        return
    # Deadline path: non-blocking writes against the raw fd, waiting for
    # writability between chunks. A blocking write of a frame larger
    # than the pipe buffer could otherwise sleep past any deadline.
    deadline = _deadline(timeout)
    view = memoryview(frame)
    sent = 0
    blocking = os.get_blocking(fd)
    try:
        os.set_blocking(fd, False)
        while sent < len(frame):
            assert deadline is not None
            remaining = deadline - time.monotonic()
            if remaining <= 0 or not select.select([], [fd], [],
                                                   remaining)[1]:
                raise ProtocolTimeout(
                    f"write deadline expired with {len(frame) - sent} of "
                    f"{len(frame)} frame bytes unsent (peer not reading)"
                )
            try:
                sent += os.write(fd, view[sent:])
            except BlockingIOError:
                continue
    finally:
        os.set_blocking(fd, blocking)


def _read_exactly(stream: BinaryIO, n: int, fd: Optional[int],
                  deadline: Optional[float], context: str) -> bytes:
    """``n`` bytes off ``stream``, waiting at most until ``deadline``
    (when ``fd`` is selectable). EOF before the first byte of a header
    is a clean end of stream; anywhere else it is a torn frame."""
    chunks = []
    remaining = n
    while remaining:
        if fd is not None and deadline is not None:
            wait = deadline - time.monotonic()
            if wait <= 0 or not select.select([fd], [], [], wait)[0]:
                raise ProtocolTimeout(
                    f"read deadline expired waiting for a {context}")
        chunk = stream.read(remaining)
        if not chunk:
            if chunks or context == "frame body":
                raise ProtocolError(
                    f"stream ended inside a {context}: got "
                    f"{n - remaining} of {n} bytes")
            raise EOFError("fabric stream closed at a frame boundary")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def read_message(stream: BinaryIO,
                 timeout: Optional[float] = None) -> Tuple[str, Any]:
    """Read one framed message.

    Args:
        stream: the peer's byte stream.
        timeout: wall seconds for the whole frame (header through
            payload). Expiry raises
            :class:`~repro.errors.ProtocolTimeout`. Needs an unbuffered
            stream with a file descriptor; ignored otherwise.

    Raises:
        EOFError: clean end of stream (no partial frame).
        ProtocolTimeout: the deadline expired mid-read.
        ProtocolError: bad magic, oversized length, truncated frame,
            checksum mismatch, or an unpicklable or malformed payload.
    """
    deadline = _deadline(timeout)
    fd = _selectable_fd(stream) if timeout is not None else None
    magic, length, checksum = _HEADER.unpack(
        _read_exactly(stream, _HEADER.size, fd, deadline, "frame header"))
    if magic != _MAGIC:
        raise ProtocolError(
            f"bad frame magic {magic!r} (stream is not speaking the "
            f"fabric protocol)")
    if length > MAX_FRAME:
        raise ProtocolError(
            f"frame length {length} exceeds the {MAX_FRAME}-byte cap "
            f"(corrupted length prefix?)")
    payload = _read_exactly(stream, length, fd, deadline, "frame body")
    if _checksum(payload) != checksum:
        raise ProtocolError(
            f"frame checksum mismatch over {length} payload bytes")
    try:
        message = pickle.loads(payload)
    except Exception as exc:
        raise ProtocolError(f"unpicklable frame payload: {exc}") from exc
    if (not isinstance(message, tuple) or len(message) != 2
            or not isinstance(message[0], str)):
        raise ProtocolError(
            f"malformed message {type(message).__name__} (expected a "
            f"(kind, data) tuple)"
        )
    return message
