"""Mixed real/virtual byte streams and the TCP stream buffers.

A stream *piece* is either ``bytes`` (real data — HTTP headers, small
payloads that must be parsed) or a non-negative ``int`` (that many virtual
bytes — response bodies whose content is irrelevant to timing). All
sequence arithmetic treats both identically; only the HTTP layer ever looks
inside real pieces.

:class:`SendBuffer` holds the outbound stream with absolute offsets and
serves arbitrary byte-range slices, so retransmissions need no per-segment
copies. :class:`ReassemblyBuffer` is the receive side: an interval map that
tolerates duplication, reordering, and partial overlap, releasing in-order
pieces to the application. :class:`RangeSet` is the one interval structure
under it and under the sender's SACK scoreboard and retransmit ledger.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

Piece = Union[bytes, int]


def piece_len(piece: Piece) -> int:
    """Byte length of one piece."""
    if isinstance(piece, (bytes, bytearray)):
        return len(piece)
    if isinstance(piece, int):
        if piece < 0:
            raise ValueError(f"virtual piece length must be >= 0: {piece!r}")
        return piece
    raise TypeError(f"not a stream piece: {piece!r}")


def pieces_len(pieces: List[Piece]) -> int:
    """Total byte length of a piece list."""
    return sum(piece_len(p) for p in pieces)


def piece_slice(piece: Piece, start: int, end: int) -> Piece:
    """Slice one piece by byte range (``0 <= start <= end <= len``)."""
    if isinstance(piece, (bytes, bytearray)):
        return bytes(piece[start:end])
    return end - start


def pieces_slice(pieces: List[Piece], start: int, end: int) -> List[Piece]:
    """Slice a piece list by byte range, skipping empty fragments.

    ``start``/``end`` are offsets relative to the beginning of ``pieces``;
    out-of-range ends are clamped.
    """
    if start < 0:
        raise ValueError(f"negative slice start: {start!r}")
    result: List[Piece] = []
    offset = 0
    for piece in pieces:
        if offset >= end:
            break
        length = piece_len(piece)
        lo = max(start - offset, 0)
        hi = min(end - offset, length)
        if lo < hi:
            result.append(piece_slice(piece, lo, hi))
        offset += length
    return result


def pieces_split(
    pieces: Sequence[Piece], limit: int
) -> Tuple[List[Piece], List[Piece]]:
    """Split a piece list into (its first ``limit`` bytes, the rest).

    Real and virtual pieces both split exactly, so the head carries
    precisely ``limit`` bytes (or everything, if shorter); ``pieces``
    itself is left as it was.
    """
    head: List[Piece] = []
    budget = limit
    for index, piece in enumerate(pieces):
        if budget <= 0:
            return head, list(pieces[index:])
        size = piece_len(piece)
        if size <= budget:
            head.append(piece)
            budget -= size
        else:
            head.append(piece_slice(piece, 0, budget))
            rest = [piece_slice(piece, budget, size)]
            rest.extend(pieces[index + 1:])
            return head, rest
    return head, []


def pieces_to_bytes(pieces: List[Piece]) -> bytes:
    """Materialize a piece list as real bytes (virtual bytes become zeros).

    Only used by tests and by code paths that genuinely need content.
    """
    parts = []
    for piece in pieces:
        if isinstance(piece, (bytes, bytearray)):
            parts.append(bytes(piece))
        else:
            parts.append(b"\x00" * piece)
    return b"".join(parts)


class SendBuffer:
    """Outbound stream with absolute offsets and an acknowledged prefix.

    Appended pieces accumulate at increasing offsets; :meth:`slice` serves
    any byte range at or beyond the acknowledged prefix, which is advanced
    by :meth:`ack_to` (releasing memory for real pieces). The piece lists
    exist only while unacknowledged bytes do (None otherwise), so a
    connection with nothing in flight holds no send storage.
    """

    __slots__ = ("_starts", "_pieces", "_length", "_acked")

    def __init__(self) -> None:
        self._starts: Optional[List[int]] = None
        self._pieces: Optional[List[Piece]] = None
        self._length = 0
        self._acked = 0

    @property
    def length(self) -> int:
        """Total bytes ever appended (the stream's current end offset)."""
        return self._length

    @property
    def acked(self) -> int:
        """Offset of the acknowledged prefix."""
        return self._acked

    @property
    def unacked_bytes(self) -> int:
        """Bytes appended but not yet acknowledged."""
        return self._length - self._acked

    def append(self, piece: Piece) -> None:
        """Add a piece to the end of the stream (zero-length is a no-op)."""
        length = piece_len(piece)
        if length == 0:
            return
        if self._pieces is None:
            self._starts = [self._length]
            self._pieces = [piece]
        else:
            self._starts.append(self._length)
            self._pieces.append(piece)
        self._length += length

    def slice(self, start: int, length: int) -> List[Piece]:
        """Return pieces covering ``[start, start + length)``.

        Raises:
            ValueError: if the range reaches below the acked prefix or
                beyond the appended data.
        """
        end = start + length
        if start < self._acked:
            raise ValueError(f"slice start {start} below acked prefix {self._acked}")
        if end > self._length:
            raise ValueError(f"slice end {end} beyond stream end {self._length}")
        if length == 0:
            return []
        index = bisect_right(self._starts, start) - 1
        result: List[Piece] = []
        while index < len(self._pieces):
            piece_start = self._starts[index]
            if piece_start >= end:
                break
            piece = self._pieces[index]
            lo = max(start - piece_start, 0)
            hi = min(end - piece_start, piece_len(piece))
            if lo < hi:
                result.append(piece_slice(piece, lo, hi))
            index += 1
        return result

    def ack_to(self, offset: int) -> None:
        """Advance the acknowledged prefix (never backwards)."""
        if offset <= self._acked:
            return
        if offset > self._length:
            raise ValueError(f"ack {offset} beyond stream end {self._length}")
        self._acked = offset
        if offset == self._length:
            self._starts = self._pieces = None
            return
        # Release fully acked pieces from the front.
        drop = 0
        while drop < len(self._pieces):
            end = self._starts[drop] + piece_len(self._pieces[drop])
            if end <= offset:
                drop += 1
            else:
                break
        if drop:
            del self._starts[:drop]
            del self._pieces[:drop]


class RangeSet:
    """A set of integers kept as sorted, disjoint, non-touching half-open
    ``[start, end)`` ranges, with the total they cover.

    Every operation is a bisect plus work proportional to the ranges it
    merges or cuts — never to the ranges held — so a TCP window with a
    handful of holes costs a handful of steps per ACK however many
    segments sit between them. ``starts`` and ``ends`` are parallel lists,
    public to read (bisect, walk) and changed only by the methods.
    """

    __slots__ = ("starts", "ends", "total")

    def __init__(self) -> None:
        self.starts: List[int] = []
        self.ends: List[int] = []
        self.total = 0

    def __bool__(self) -> bool:
        return bool(self.starts)

    def ranges(self) -> List[Tuple[int, int]]:
        """The held ``(start, end)`` ranges, lowest first."""
        return list(zip(self.starts, self.ends))

    def covers(self, start: int, end: int) -> bool:
        """Whether all of ``[start, end)`` is held (one bisect)."""
        index = bisect_right(self.starts, start) - 1
        return index >= 0 and end <= self.ends[index]

    def add(self, start: int, end: int) -> Tuple[int, int]:
        """Insert the non-empty ``[start, end)``, absorbing every range it
        overlaps or touches; returns the held range that now contains it."""
        starts, ends = self.starts, self.ends
        lo = bisect_left(ends, start)  # first range ending at or after start
        hi = bisect_right(starts, end, lo)  # first range starting after end
        if lo < hi:
            start = min(start, starts[lo])
            end = max(end, ends[hi - 1])
            self.total -= sum(ends[lo:hi]) - sum(starts[lo:hi])
        starts[lo:hi] = (start,)
        ends[lo:hi] = (end,)
        self.total += end - start
        return start, end

    def remove(self, start: int, end: int) -> None:
        """Delete ``[start, end)``, cutting the ranges it crosses."""
        starts, ends = self.starts, self.ends
        lo = bisect_right(ends, start)  # first range ending after start
        hi = bisect_left(starts, end, lo)  # first range starting at/after end
        if lo == hi:
            return
        first, last = starts[lo], ends[hi - 1]
        self.total -= sum(ends[lo:hi]) - sum(starts[lo:hi])
        keep_starts, keep_ends = [], []
        if first < start:
            keep_starts.append(first)
            keep_ends.append(start)
            self.total += start - first
        if last > end:
            keep_starts.append(end)
            keep_ends.append(last)
            self.total += last - end
        starts[lo:hi] = keep_starts
        ends[lo:hi] = keep_ends

    def trim_below(self, bound: int) -> None:
        """Delete everything below ``bound`` (free when nothing is)."""
        if self.starts and self.starts[0] < bound:
            self.remove(self.starts[0], bound)

    def gaps(self, start: int, end: int) -> Iterator[Tuple[int, int]]:
        """The sub-ranges of ``[start, end)`` not held, lowest first,
        found from a bisect at ``start``. Do not mutate while iterating."""
        starts, ends = self.starts, self.ends
        index = bisect_right(ends, start)  # first range ending after start
        while start < end:
            if index == len(starts) or starts[index] >= end:
                yield start, end
                return
            if starts[index] > start:
                yield start, starts[index]
            start = ends[index]
            index += 1


class ReassemblyBuffer:
    """Receive-side interval map delivering in-order stream pieces.

    ``insert`` accepts any (offset, pieces) fragment — duplicated,
    reordered, or partially overlapping previously received data —
    and ``pop_ready`` releases whatever is now contiguous from
    :attr:`next_offset`. Out-of-order data is held as *coalesced runs*:
    a fragment that touches a stored run joins it, so the runs (and the
    SACK blocks TCP builds from :meth:`ranges`) number one per hole in
    the stream, not one per segment received.
    """

    __slots__ = ("next_offset", "_held", "_runs")

    def __init__(self) -> None:
        self.next_offset = 0
        # The offsets held out of order, and each run's pieces (in stream
        # order) keyed by the run's start offset; both None while nothing
        # is held, so an in-order stream never builds either.
        self._held: Optional[RangeSet] = None
        self._runs: Optional[Dict[int, List[Piece]]] = None

    @property
    def buffered_bytes(self) -> int:
        """Bytes held out of order, not yet deliverable."""
        return self._held.total if self._held is not None else 0

    def ranges(self) -> List[Tuple[int, int]]:
        """The out-of-order (start, end) offset runs held, lowest first:
        what TCP reports as SACK blocks."""
        return self._held.ranges() if self._held is not None else []

    def insert(self, offset: int, pieces: List[Piece]) -> None:
        """Store a fragment of the stream starting at ``offset``."""
        start = max(offset, self.next_offset)
        end = offset + pieces_len(pieces)
        if start >= end:
            return
        if self._held is None:
            self._held = RangeSet()
            self._runs = {}
        held, runs = self._held, self._runs
        # Only what falls in the gaps between stored runs (and above the
        # delivered prefix) is new; stored data wins an overlap.
        for gap_start, gap_end in list(held.gaps(start, end)):
            run_start, run_end = held.add(gap_start, gap_end)
            # The gap was uncovered, so add() merged at most a run ending
            # exactly at gap_start (whose list this extends) and one
            # starting exactly at gap_end (whose list is appended).
            run = runs.setdefault(run_start, [])
            run.extend(pieces_slice(pieces, gap_start - offset, gap_end - offset))
            if run_end > gap_end:
                run.extend(runs.pop(gap_end))

    def pop_ready(self) -> List[Piece]:
        """Remove and return all pieces now contiguous at ``next_offset``."""
        held = self._held
        if held is None or held.starts[0] != self.next_offset:
            return []
        # Runs never touch, so at most the lowest one is deliverable.
        ready = self._runs.pop(self.next_offset)
        self.next_offset = held.ends[0]
        held.trim_below(self.next_offset)
        if not held:
            self._held = self._runs = None
        return ready
