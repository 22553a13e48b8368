"""The receive-side interval map as a plain list: one stored fragment per
segment received, never coalesced, re-sorted on every insert.

``transport/wire.py``'s ``ReassemblyBuffer`` as it stood until PR 18 (its
piece helpers inlined, so nothing is shared with the code under test). A
stream piece is ``bytes`` or an ``int`` count of virtual bytes.
"""

from typing import List, Tuple, Union

Piece = Union[bytes, int]


def _length(pieces: List[Piece]) -> int:
    return sum(p if isinstance(p, int) else len(p) for p in pieces)


def _slice(pieces: List[Piece], start: int, end: int) -> List[Piece]:
    """``pieces`` cut to byte range [start, end), empty parts dropped."""
    result: List[Piece] = []
    offset = 0
    for piece in pieces:
        length = piece if isinstance(piece, int) else len(piece)
        lo, hi = max(start - offset, 0), min(end - offset, length)
        if lo < hi:
            result.append(hi - lo if isinstance(piece, int) else piece[lo:hi])
        offset += length
    return result


class ListReassembly:
    """``insert`` any fragment; ``pop_ready`` releases what is contiguous."""

    def __init__(self) -> None:
        self.next_offset = 0
        # Non-overlapping stored fragments: sorted list of (start, end, pieces).
        self._fragments: List[Tuple[int, int, List[Piece]]] = []

    def ranges(self) -> List[Tuple[int, int]]:
        """The (start, end) of every fragment held, lowest first."""
        return [(start, end) for start, end, __ in self._fragments]

    def insert(self, offset: int, pieces: List[Piece]) -> None:
        """Store a fragment of the stream starting at ``offset``."""
        length = _length(pieces)
        start, end = offset, offset + length
        if end <= self.next_offset:
            return
        if start < self.next_offset:
            pieces = _slice(pieces, self.next_offset - start, length)
            start = self.next_offset
        # Clip the incoming fragment into the gaps between stored fragments.
        for gap_start, gap_end in self._gaps(start, end):
            part = _slice(pieces, gap_start - start, gap_end - start)
            if part:
                self._fragments.append((gap_start, gap_end, part))
        self._fragments.sort(key=lambda frag: frag[0])

    def _gaps(self, start: int, end: int) -> List[Tuple[int, int]]:
        """Sub-ranges of [start, end) not covered by stored fragments."""
        gaps = []
        cursor = start
        for frag_start, frag_end, __ in self._fragments:
            if frag_end <= cursor:
                continue
            if frag_start >= end:
                break
            if frag_start > cursor:
                gaps.append((cursor, min(frag_start, end)))
            cursor = max(cursor, frag_end)
            if cursor >= end:
                break
        if cursor < end:
            gaps.append((cursor, end))
        return gaps

    def pop_ready(self) -> List[Piece]:
        """Remove and return all pieces now contiguous at ``next_offset``."""
        ready: List[Piece] = []
        while self._fragments and self._fragments[0][0] == self.next_offset:
            __, end, pieces = self._fragments.pop(0)
            ready.extend(pieces)
            self.next_offset = end
        return ready
