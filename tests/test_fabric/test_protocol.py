"""Tests for the fabric wire protocol framing."""

import hashlib
import io
import pickle
import struct

import pytest

from repro.errors import ProtocolError
from repro.fabric.protocol import MAX_FRAME, read_message, write_message

_HEADER = struct.Struct(">4sI8s")


def frame(message, magic=b"MMFB", checksum=None, length=None):
    """Hand-build one frame so tests can corrupt any field."""
    payload = pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)
    if checksum is None:
        checksum = hashlib.blake2b(payload, digest_size=8).digest()
    if length is None:
        length = len(payload)
    return _HEADER.pack(magic, length, checksum) + payload


class TestRoundTrip:
    def test_one_message(self):
        buffer = io.BytesIO()
        write_message(buffer, ("hello", {"protocol": 1, "pid": 42}))
        buffer.seek(0)
        assert read_message(buffer) == ("hello", {"protocol": 1, "pid": 42})

    def test_stream_of_messages(self):
        buffer = io.BytesIO()
        messages = [("run", [0, 2, 4]), ("outcome", None),
                    ("run", 3)]
        for message in messages:
            write_message(buffer, message)
        buffer.seek(0)
        assert [read_message(buffer) for __ in messages] == messages

    def test_empty_payload_data(self):
        buffer = io.BytesIO()
        write_message(buffer, ("shutdown", None))
        buffer.seek(0)
        assert read_message(buffer) == ("shutdown", None)


class TestFraming:
    def test_clean_eof_is_eoferror(self):
        with pytest.raises(EOFError):
            read_message(io.BytesIO(b""))

    def test_eof_inside_header_is_protocol_error(self):
        data = frame(("shutdown", None))[:7]
        with pytest.raises(ProtocolError, match="frame header"):
            read_message(io.BytesIO(data))

    def test_eof_inside_body_is_protocol_error(self):
        data = frame(("shutdown", None))[:-3]
        with pytest.raises(ProtocolError, match="frame body"):
            read_message(io.BytesIO(data))

    def test_bad_magic(self):
        data = frame(("shutdown", None), magic=b"SSH-")
        with pytest.raises(ProtocolError, match="magic"):
            read_message(io.BytesIO(data))

    def test_checksum_mismatch(self):
        data = bytearray(frame(("shutdown", None)))
        data[-1] ^= 0xFF  # flip a payload byte; header checksum stands
        with pytest.raises(ProtocolError, match="checksum"):
            read_message(io.BytesIO(bytes(data)))

    def test_oversized_frame_refused_before_read(self):
        data = frame(("shutdown", None), length=MAX_FRAME + 1)
        with pytest.raises(ProtocolError, match="cap"):
            read_message(io.BytesIO(data))

    def test_non_tuple_payload(self):
        data = frame(["not", "a", "tuple"])
        with pytest.raises(ProtocolError, match="malformed message"):
            read_message(io.BytesIO(data))

    def test_wrong_arity_tuple(self):
        data = frame(("kind", "data", "extra"))
        with pytest.raises(ProtocolError, match="malformed message"):
            read_message(io.BytesIO(data))

    def test_non_string_kind(self):
        data = frame((7, "data"))
        with pytest.raises(ProtocolError, match="malformed message"):
            read_message(io.BytesIO(data))
