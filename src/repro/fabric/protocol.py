"""The fabric wire protocol: length-prefixed, checksummed frames.

Every fabric backend — forked local workers, ``mm-fabric worker``
subprocesses, SSH-shaped remote workers — speaks exactly this protocol
over a byte stream, so the coordinator cannot tell backends apart and a
worker binary works unchanged across all of them (the IoTreeplay shape:
one coordinator, interchangeable transports).

Frame layout (all integers big-endian)::

    MAGIC (4B) | length (4B) | blake2b-8 of payload (8B) | payload

The payload is a pickled ``(kind, data)`` message tuple. The checksum
makes a corrupted transport (a truncated pipe, line noise on a remote
link) a loud :class:`~repro.errors.ProtocolError` naming what went wrong
instead of a pickle crash deep in a worker; the magic catches streams
that are not speaking the protocol at all (an ssh banner, a stray print
to stdout inside a worker).

Message vocabulary (coordinator ↔ worker), protocol version 2::

    worker → coordinator:  ("hello",     {"protocol", "pid"})
    coordinator → worker:  ("config",    {...})      # see worker.py
    coordinator → worker:  ("run",       [trial indices])   # repeatable
    worker → coordinator:  ("heartbeat", {"pid"})    # liveness, any time
    worker → coordinator:  ("outcome",   TrialOutcome)
    worker → coordinator:  ("done",      {"trials": n, "batch": i})
    coordinator → worker:  ("shutdown",  None)       # conversation over
    worker → coordinator:  ("error",     message string)

Version 2 turned the conversation into a *batch loop*: after ``done``
the worker blocks for either another ``run`` (reassigned or speculative
trials) or ``shutdown``; heartbeats flow on a wall-clock timer between —
and during — trials, so a coordinator can tell a slow worker (beating)
from a wedged one (silent).

A clean EOF at a frame boundary raises :class:`EOFError` (the normal
end-of-worker signal); EOF *inside* a frame is a :class:`ProtocolError`
(the worker died mid-send).

**Deadlines.** :func:`read_message` and :func:`write_message` accept a
``timeout`` (wall seconds for the whole frame). On expiry they raise
:class:`~repro.errors.ProtocolTimeout` — a half-open connection (peer
host dead, transport process alive) can therefore never hang the caller.
Deadlines need an *unbuffered* stream with a real file descriptor (the
backends open their pipe ends with ``buffering=0``); on buffered or
in-memory streams the timeout is ignored and the read blocks, which is
fine for the in-process test harnesses that use them.

**Resync.** A corrupted frame normally kills the conversation. With
``resync=N``, :func:`read_message` instead survives up to ``N`` bad
frames per call: a checksum mismatch skips that frame (its boundary is
still intact — length was read before the damage was detected) and a bad
magic scans forward at most :data:`MAX_RESYNC_SCAN` bytes for the next
``MMFB`` marker. Every recovery is counted in the caller's ``stats``
dict (``"resyncs"``), and the *content* lost with a skipped frame is
recovered one level up: the worker's ``done`` message names how many
trials it ran, so the coordinator redelivers any outcome the wire ate.
"""

from __future__ import annotations

import hashlib
import io
import os
import pickle
import select
import struct
import time
from typing import Any, BinaryIO, Dict, Optional, Tuple

from repro.errors import ProtocolError, ProtocolTimeout

__all__ = [
    "BadFrame",
    "FrameReader",
    "MAX_FRAME",
    "MAX_RESYNC_SCAN",
    "PROTOCOL_VERSION",
    "read_message",
    "write_message",
]

#: Bumped on any incompatible frame or vocabulary change; the hello
#: handshake refuses a mismatch instead of guessing. v2: batch loop
#: (repeatable ``run`` / per-batch ``done``), ``heartbeat``/``shutdown``.
PROTOCOL_VERSION = 2

_MAGIC = b"MMFB"
_HEADER = struct.Struct(">4sI8s")
_CHECKSUM_SIZE = 8

#: Refuse absurd frames before allocating for them (a corrupted length
#: prefix must not become a 4 GiB read).
MAX_FRAME = 256 * 1024 * 1024

#: How far past a bad magic a resyncing reader will scan for the next
#: frame marker before giving up (bounds the damage a garbage flood can
#: do to the coordinator's memory and time).
MAX_RESYNC_SCAN = 1024 * 1024


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


def _wait_readable(fd: Optional[int], deadline: Optional[float],
                   context: str) -> None:
    if fd is None or deadline is None:
        return
    remaining = deadline - time.monotonic()
    if remaining <= 0 or not select.select([fd], [], [], remaining)[0]:
        raise ProtocolTimeout(
            f"read deadline expired waiting for a {context}"
        )


def write_message(stream: BinaryIO, message: Tuple[str, Any],
                  timeout: Optional[float] = None) -> None:
    """Frame and send one ``(kind, data)`` message (flushed).

    Args:
        stream: the peer-bound byte stream.
        message: the ``(kind, data)`` tuple to frame.
        timeout: wall seconds for the whole frame to enter the pipe.
            A peer that stopped reading (wedged worker, full buffer on a
            half-open transport) then raises
            :class:`~repro.errors.ProtocolTimeout` instead of blocking
            the caller forever. Needs an unbuffered stream; ignored
            otherwise.
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


class BadFrame(ProtocolError):
    """The stream did not yield a whole frame: it ended part-way through
    one, or what arrived was not one.

    Attributes:
        consumed: every byte taken off the stream for the frame, so a
            relay can pass the damage on exactly as it arrived.
        scannable: the frame *marker* was wrong (not the length, not the
            stream's end): a resyncing reader may scan for the next one.
    """

    def __init__(self, message: str, consumed: bytes,
                 scannable: bool = False) -> None:
        super().__init__(message)
        self.consumed = consumed
        self.scannable = scannable


class FrameReader:
    """Raw frames off one byte stream: the one framing layer, under
    :func:`read_message` and under the fault injector's relay, which
    must cut the stream exactly where a receiver would.

    Args:
        stream: the peer's byte stream.
        timeout: wall seconds, counted from construction, for everything
            read through this reader (see :func:`read_message`).
    """

    def __init__(self, stream: BinaryIO,
                 timeout: Optional[float] = None) -> None:
        self._stream = stream
        self._deadline = _deadline(timeout)
        self._fd = _selectable_fd(stream) if timeout is not None else None
        # Resync scans read in chunks and can overshoot past the marker
        # they find; those already-consumed bytes are served first, so
        # nothing on the wire is lost or double-read.
        self._ahead = b""

    def _take(self, n: int, context: str) -> bytes:
        ahead, self._ahead = self._ahead[:n], self._ahead[n:]
        chunks = [ahead] if ahead else []
        remaining = n - len(ahead)
        while remaining:
            _wait_readable(self._fd, self._deadline, context)
            chunk = self._stream.read(remaining)
            if not chunk:
                if chunks or context == "frame body":
                    raise BadFrame(
                        f"stream ended inside a {context}: got "
                        f"{n - remaining} of {n} bytes", b"".join(chunks))
                raise EOFError("fabric stream closed at a frame boundary")
            chunks.append(chunk)
            remaining -= len(chunk)
        return b"".join(chunks)

    def read(self) -> Tuple[bytes, bytes]:
        """The next frame as ``(header, payload)``, exactly as on the
        wire; the checksum is the caller's to verify. Raises EOFError at
        a clean end of stream, :class:`BadFrame` for a truncated frame, a
        bad magic or an oversized length."""
        header = self._take(_HEADER.size, "frame header")
        magic, length, _ = _HEADER.unpack(header)
        if magic != _MAGIC:
            raise BadFrame(
                f"bad frame magic {magic!r} (stream is not speaking "
                f"the fabric protocol)", header, scannable=True)
        if length > MAX_FRAME:
            raise BadFrame(
                f"frame length {length} exceeds the {MAX_FRAME}-byte cap "
                f"(corrupted length prefix?)", header)
        try:
            return header, self._take(length, "frame body")
        except BadFrame as exc:
            exc.consumed = header + exc.consumed
            raise

    def scan(self, garbage: bytes) -> None:
        """Recover a frame boundary: search ``garbage`` and then the
        stream for the next MAGIC, so the next :meth:`read` starts on
        it. Raises ProtocolError when no marker appears within
        :data:`MAX_RESYNC_SCAN` bytes."""
        buffer, self._ahead = garbage + self._ahead, b""
        scanned = 0
        while True:
            at = buffer.find(_MAGIC)
            if at >= 0:
                self._ahead = buffer[at:]
                return
            # Keep a window of len(MAGIC)-1 bytes in case the marker spans
            # the chunk boundary.
            scanned += max(0, len(buffer) - (len(_MAGIC) - 1))
            if scanned > MAX_RESYNC_SCAN:
                raise ProtocolError(
                    f"no frame marker within {MAX_RESYNC_SCAN} bytes of "
                    f"garbage (resync abandoned)"
                )
            buffer = buffer[-(len(_MAGIC) - 1):] if buffer else b""
            _wait_readable(self._fd, self._deadline, "resync scan")
            chunk = self._stream.read(4096)
            if not chunk:
                raise ProtocolError(
                    "stream ended while scanning for a frame marker"
                )
            buffer += chunk


def read_message(stream: BinaryIO, timeout: Optional[float] = None,
                 resync: int = 0,
                 stats: Optional[Dict[str, int]] = None) -> Tuple[str, Any]:
    """Read one framed message.

    Args:
        stream: the peer's byte stream.
        timeout: wall seconds for the whole frame (header through
            payload). Expiry raises
            :class:`~repro.errors.ProtocolTimeout`. Needs an unbuffered
            stream with a file descriptor; ignored otherwise.
        resync: how many damaged frames this call may survive: a
            checksum mismatch skips the frame, a bad magic scans forward
            (at most :data:`MAX_RESYNC_SCAN` bytes) for the next one.
            ``0`` keeps the strict fail-fast behaviour.
        stats: when given, ``stats["resyncs"]`` is incremented per
            recovery, so callers can surface wire damage as a counter.

    Raises:
        EOFError: clean end of stream (no partial frame).
        ProtocolTimeout: the deadline expired mid-read.
        ProtocolError: bad magic, bad checksum, oversized or truncated
            frame, or an unpicklable payload (after ``resync`` damaged
            frames, where allowed).
    """
    reader = FrameReader(stream, timeout)
    budget = resync
    while True:
        try:
            header, payload = reader.read()
        except BadFrame as exc:
            if not exc.scannable or budget <= 0:
                raise
            reader.scan(exc.consumed[1:])
        else:
            if _checksum(payload) == _HEADER.unpack(header)[2]:
                break
            if budget <= 0:
                raise ProtocolError(
                    f"frame checksum mismatch over {len(payload)} "
                    f"payload bytes"
                )
            # The boundary is intact (length was trusted and verified by
            # position); drop the damaged frame and read the next one.
        budget -= 1
        if stats is not None:
            stats["resyncs"] = stats.get("resyncs", 0) + 1
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
