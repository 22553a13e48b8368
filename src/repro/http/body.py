"""Message bodies: real bytes followed by counted virtual bytes.

A :class:`Body` is what an HTTP message carries. Real bytes keep their
content (recorded HTML, whose structure the browser model scans); virtual
bytes know only their count, which is all the transport needs to
reproduce timing. A generated root document is both: its markup as real
bytes, then a virtual filler up to the page's drawn weight. The
distinction never leaks into timing — every shape serializes to the same
number of on-wire bytes, and a body reaches TCP in one write however many
pieces carry it (:func:`repro.http.serialize.write_message`).

This module is the one place that knows that shape: :attr:`Body.real_prefix`
is the leading real bytes, :attr:`Body.virtual_tail` the trailing virtual
count, and a body is exactly the two when their lengths add up to
:attr:`Body.length` (what a recorded store persists).
"""

from __future__ import annotations

from typing import Iterable, List

from repro.transport.wire import Piece, piece_len


class Body:
    """An HTTP message body.

    Create with :meth:`from_bytes` (content preserved), :meth:`virtual`
    (length-only), :meth:`empty`, or from a piece list such as
    ``Body([markup, filler_length])``. Pieces are normalised: empty ones
    are dropped and neighbours of the same kind merged, so a body built
    from a capture's many segment-sized pieces holds one real run and one
    virtual run, as one built from its two parts does.
    """

    __slots__ = ("_pieces", "_length")

    def __init__(self, pieces: Iterable[Piece]) -> None:
        merged: List[Piece] = []
        run: List[bytes] = []  # real pieces not yet joined
        length = 0
        for piece in pieces:
            size = piece_len(piece)
            if not size:
                continue
            length += size
            if isinstance(piece, int):
                if run:
                    merged.append(b"".join(run))
                    run = []
                if merged and isinstance(merged[-1], int):
                    merged[-1] += piece
                else:
                    merged.append(piece)
            else:
                run.append(piece)
        if run:
            merged.append(b"".join(run))
        self._pieces = merged
        self._length = length

    @classmethod
    def empty(cls) -> "Body":
        """A zero-length body."""
        return cls([])

    @classmethod
    def from_bytes(cls, data: bytes) -> "Body":
        """A body with real content."""
        return cls([data])

    @classmethod
    def virtual(cls, length: int) -> "Body":
        """A content-free body of ``length`` bytes."""
        if length < 0:
            raise ValueError(f"body length must be >= 0, got {length!r}")
        return cls([length])

    @property
    def length(self) -> int:
        """Total byte length."""
        return self._length

    @property
    def pieces(self) -> List[Piece]:
        """The underlying stream pieces (copy)."""
        return list(self._pieces)

    @property
    def is_fully_real(self) -> bool:
        """True when every byte of content is available."""
        return not any(isinstance(p, int) for p in self._pieces)

    @property
    def real_prefix(self) -> bytes:
        """The real bytes the body starts with (``b""`` if none)."""
        pieces = self._pieces
        if pieces and not isinstance(pieces[0], int):
            return pieces[0]
        return b""

    @property
    def virtual_tail(self) -> int:
        """How many virtual bytes the body ends with (0 if none)."""
        pieces = self._pieces
        if pieces and isinstance(pieces[-1], int):
            return pieces[-1]
        return 0

    def as_bytes(self) -> bytes:
        """Materialize the content.

        Raises:
            ValueError: if any part of the body is virtual.
        """
        if not self.is_fully_real:
            raise ValueError("body contains virtual bytes; no content to return")
        return self.real_prefix

    def __len__(self) -> int:
        return self._length

    def __eq__(self, other: object) -> bool:
        """Same length, and wherever both bodies carry real bytes at the
        same offsets, the same bytes (virtual content is unknowable, so
        it matches anything)."""
        if not isinstance(other, Body):
            return NotImplemented
        if self._length != other._length:
            return False
        mine, theirs = self._pieces, other._pieces
        i = j = 0
        start_i = start_j = 0
        while i < len(mine) and j < len(theirs):
            a, b = mine[i], theirs[j]
            end_i, end_j = start_i + piece_len(a), start_j + piece_len(b)
            if not isinstance(a, int) and not isinstance(b, int):
                lo, hi = max(start_i, start_j), min(end_i, end_j)
                if (lo < hi and a[lo - start_i:hi - start_i]
                        != b[lo - start_j:hi - start_j]):
                    return False
            if end_i <= end_j:
                i, start_i = i + 1, end_i
            else:
                j, start_j = j + 1, end_j
        return True

    def __repr__(self) -> str:
        prefix, tail = len(self.real_prefix), self.virtual_tail
        if prefix == self._length:
            kind = "real"
        elif tail == self._length:
            kind = "virtual"
        elif prefix + tail == self._length:
            kind = f"{prefix}B real + {tail}B virtual"
        else:
            kind = "mixed"
        return f"<Body {self._length}B {kind}>"
