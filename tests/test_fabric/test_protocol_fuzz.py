"""Protocol fuzz + deadline suite: damaged frames die loudly, never hang.

The satellite contract: truncated, corrupt, oversized, and zero-length
frames each yield a clean *named* error (``ProtocolError`` subtree or
``EOFError``) — and with a deadline set, within the deadline — never a
hang and never a silently merged partial message. There is no recovery
inside a stream: a damaged frame ends the read, and the dispatcher loses
the worker that wrote it.
"""

import hashlib
import io
import os
import pickle
import random
import struct
import time

import pytest

from repro.errors import ProtocolError, ProtocolTimeout
from repro.fabric.protocol import read_message, write_message

_HEADER = struct.Struct(">4sI8s")


def frame(message, magic=b"MMFB", checksum=None, length=None):
    """Hand-build one frame so tests can corrupt any field."""
    payload = pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)
    if checksum is None:
        checksum = hashlib.blake2b(payload, digest_size=8).digest()
    if length is None:
        length = len(payload)
    return _HEADER.pack(magic, length, checksum) + payload


def corrupted(message, at=-1):
    """A frame with one payload byte flipped (checksum left stale)."""
    data = bytearray(frame(message))
    data[at] ^= 0xFF
    return bytes(data)


@pytest.fixture
def pipe():
    """A real OS pipe as raw streams (what backends hand the fabric)."""
    read_fd, write_fd = os.pipe()
    rfile = os.fdopen(read_fd, "rb", buffering=0)
    wfile = os.fdopen(write_fd, "wb", buffering=0)
    yield rfile, wfile
    for stream in (rfile, wfile):
        try:
            stream.close()
        except OSError:
            pass


class TestMalformedFrames:
    """Each malformation class → one clean named error, no partial data."""

    def test_zero_length_frame(self):
        # length=0 with a checksum that cannot match an empty payload.
        data = _HEADER.pack(b"MMFB", 0, b"\xde\xad\xbe\xef\xde\xad\xbe\xef")
        with pytest.raises(ProtocolError, match="checksum"):
            read_message(io.BytesIO(data))

    def test_zero_length_frame_with_valid_checksum(self):
        # An empty payload that checksums correctly still cannot carry a
        # message: the pickle layer names the failure.
        checksum = hashlib.blake2b(b"", digest_size=8).digest()
        data = _HEADER.pack(b"MMFB", 0, checksum)
        with pytest.raises(ProtocolError, match="unpicklable"):
            read_message(io.BytesIO(data))

    def test_truncated_header(self):
        with pytest.raises(ProtocolError, match="frame header"):
            read_message(io.BytesIO(frame(("shutdown", None))[:9]))

    def test_truncated_body(self):
        with pytest.raises(ProtocolError, match="frame body"):
            read_message(io.BytesIO(frame(("shutdown", None))[:-4]))

    def test_oversized_length_refused_before_allocation(self):
        data = frame(("shutdown", None), length=0xFFFFFFFF)
        with pytest.raises(ProtocolError, match="cap"):
            read_message(io.BytesIO(data))

    def test_corrupt_payload(self):
        with pytest.raises(ProtocolError, match="checksum"):
            read_message(io.BytesIO(corrupted(("outcome", 123))))

    def test_corrupt_magic(self):
        with pytest.raises(ProtocolError, match="magic"):
            read_message(io.BytesIO(frame(("shutdown", None), magic=b"HTTP")))


class TestDeadlines:
    """No peer can hang the caller: silence becomes ProtocolTimeout."""

    def test_silent_stream_times_out(self, pipe):
        rfile, _wfile = pipe
        started = time.monotonic()
        with pytest.raises(ProtocolTimeout, match="read deadline"):
            read_message(rfile, timeout=0.2)
        assert time.monotonic() - started < 2.0

    def test_partial_frame_then_silence_times_out(self, pipe):
        rfile, wfile = pipe
        wfile.write(frame(("outcome", "x" * 64))[:10])  # header fragment
        started = time.monotonic()
        with pytest.raises(ProtocolTimeout):
            read_message(rfile, timeout=0.2)
        assert time.monotonic() - started < 2.0

    def test_unread_peer_write_times_out(self, pipe):
        # Nobody drains the pipe: a frame larger than the kernel buffer
        # cannot fully enter it, and the deadline converts the would-be
        # eternal block into a named error.
        _rfile, wfile = pipe
        blob = ("blob", b"x" * (4 * 1024 * 1024))
        started = time.monotonic()
        with pytest.raises(ProtocolTimeout, match="write deadline"):
            write_message(wfile, blob, timeout=0.2)
        assert time.monotonic() - started < 2.0

    def test_prompt_frame_beats_the_deadline(self, pipe):
        rfile, wfile = pipe
        write_message(wfile, ("heartbeat", {"pid": 1}))
        assert read_message(rfile, timeout=5.0) == ("heartbeat", {"pid": 1})

    def test_timeout_ignored_on_buffered_streams(self):
        # BytesIO has no selectable fd; the timeout silently no-ops
        # (documented) rather than raising on a perfectly good read.
        buffer = io.BytesIO(frame(("shutdown", None)))
        assert read_message(buffer, timeout=0.01) == ("shutdown", None)


class TestSeededFuzz:
    """Random mutations of a valid stream never escape the error taxonomy.

    Every read either returns a well-formed (kind, data) message or
    raises EOFError / ProtocolError — mutated bytes can never produce a
    hang (reads here cannot block) or a malformed merged message.
    """

    MESSAGES = [
        ("hello", {"protocol": 3, "pid": 11}),
        ("outcome", {"trial": 3, "plt": 1.25}),
        ("heartbeat", {"pid": 11}),
        ("run", 4),
    ]

    def _mutate(self, data, rng):
        data = bytearray(data)
        for _ in range(rng.randint(1, 8)):
            choice = rng.random()
            if choice < 0.5 and data:
                data[rng.randrange(len(data))] ^= 1 << rng.randint(0, 7)
            elif choice < 0.75 and data:
                del data[rng.randrange(len(data))]
            else:
                data.insert(rng.randrange(len(data) + 1),
                            rng.randint(0, 255))
        return bytes(data)

    @pytest.mark.parametrize("seed", range(50))
    def test_mutated_stream_yields_only_named_errors(self, seed):
        rng = random.Random(seed)
        clean = b"".join(frame(m) for m in self.MESSAGES)
        stream = io.BytesIO(self._mutate(clean, rng))
        read = 0
        while read < len(self.MESSAGES) + 4:
            try:
                kind, _data = read_message(stream)
            except EOFError:
                break
            except ProtocolError:
                break
            assert isinstance(kind, str)
            read += 1
        else:
            pytest.fail("mutated stream produced more messages than sent")
