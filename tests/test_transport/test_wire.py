"""Unit and property tests for mixed real/virtual stream buffers."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.reference import ListReassembly, merge_range
from repro.transport.wire import (
    ReassemblyBuffer,
    SendBuffer,
    piece_len,
    piece_slice,
    pieces_len,
    pieces_slice,
    pieces_split,
    pieces_to_bytes,
)


class TestPieceHelpers:
    def test_piece_len(self):
        assert piece_len(b"abc") == 3
        assert piece_len(7) == 7
        assert piece_len(b"") == 0

    def test_negative_virtual_rejected(self):
        with pytest.raises(ValueError):
            piece_len(-1)

    def test_non_piece_rejected(self):
        with pytest.raises(TypeError):
            piece_len("text")

    def test_piece_slice(self):
        assert piece_slice(b"hello", 1, 4) == b"ell"
        assert piece_slice(100, 10, 30) == 20

    def test_pieces_slice_spans_pieces(self):
        pieces = [b"abcd", 6, b"xy"]
        assert pieces_slice(pieces, 2, 11) == [b"cd", 6, b"x"]

    def test_pieces_slice_clamps_end(self):
        assert pieces_slice([b"abc"], 0, 99) == [b"abc"]

    def test_pieces_slice_empty_range(self):
        assert pieces_slice([b"abc", 5], 4, 4) == []

    def test_pieces_slice_negative_start_rejected(self):
        with pytest.raises(ValueError):
            pieces_slice([b"abc"], -1, 2)

    @pytest.mark.parametrize("pieces, limit, head, rest", [
        ([b"abcdef"], 4, [b"abcd"], [b"ef"]),
        ([1000], 300, [300], [700]),
        ([b"ab", 10, b"cd"], 5, [b"ab", 3], [7, b"cd"]),
        ([b"abcd", 10, b"xy"], 6, [b"abcd", 2], [8, b"xy"]),
        ([b"ab", b"", 3], 2, [b"ab"], [b"", 3]),
        ([b"ab", 3], 0, [], [b"ab", 3]),
        ([b"ab", 3], 100, [b"ab", 3], []),
    ], ids=["real-bytes", "virtual-bytes", "mixed", "mixed-frame",
            "empty-piece-at-limit", "zero-limit", "limit-beyond-total"])
    def test_pieces_split(self, pieces, limit, head, rest):
        before = list(pieces)
        assert pieces_split(pieces, limit) == (head, rest)
        assert pieces == before  # the caller's list is not consumed

    def test_pieces_to_bytes(self):
        assert pieces_to_bytes([b"ab", 3, b"c"]) == b"ab\x00\x00\x00c"

    def test_pieces_len(self):
        assert pieces_len([b"ab", 3, b"", 0]) == 5


class TestSendBuffer:
    def test_append_and_slice(self):
        buf = SendBuffer()
        buf.append(b"hello ")
        buf.append(b"world")
        assert buf.length == 11
        assert pieces_to_bytes(buf.slice(0, 11)) == b"hello world"
        assert pieces_to_bytes(buf.slice(3, 5)) == b"lo wo"

    def test_virtual_pieces(self):
        buf = SendBuffer()
        buf.append(b"hdr")
        buf.append(1000)
        assert buf.length == 1003
        got = buf.slice(0, 10)
        assert got == [b"hdr", 7]

    def test_zero_length_append_ignored(self):
        buf = SendBuffer()
        buf.append(b"")
        buf.append(0)
        assert buf.length == 0

    def test_ack_releases_prefix(self):
        buf = SendBuffer()
        buf.append(b"aaaa")
        buf.append(b"bbbb")
        buf.ack_to(4)
        assert buf.acked == 4
        assert buf.unacked_bytes == 4
        assert pieces_to_bytes(buf.slice(4, 4)) == b"bbbb"

    def test_slice_below_ack_rejected(self):
        buf = SendBuffer()
        buf.append(b"aaaa")
        buf.ack_to(2)
        with pytest.raises(ValueError):
            buf.slice(1, 2)

    def test_slice_beyond_end_rejected(self):
        buf = SendBuffer()
        buf.append(b"aaaa")
        with pytest.raises(ValueError):
            buf.slice(2, 3)

    def test_ack_backwards_is_noop(self):
        buf = SendBuffer()
        buf.append(b"aaaa")
        buf.ack_to(3)
        buf.ack_to(1)
        assert buf.acked == 3

    def test_ack_beyond_end_rejected(self):
        buf = SendBuffer()
        buf.append(b"aa")
        with pytest.raises(ValueError):
            buf.ack_to(5)

    def test_slice_mid_piece_after_ack(self):
        buf = SendBuffer()
        buf.append(b"abcdef")
        buf.ack_to(2)
        assert pieces_to_bytes(buf.slice(2, 4)) == b"cdef"


class TestReassemblyBuffer:
    def test_in_order_delivery(self):
        buf = ReassemblyBuffer()
        buf.insert(0, [b"ab"])
        assert pieces_to_bytes(buf.pop_ready()) == b"ab"
        buf.insert(2, [b"cd"])
        assert pieces_to_bytes(buf.pop_ready()) == b"cd"
        assert buf.next_offset == 4

    def test_out_of_order_held(self):
        buf = ReassemblyBuffer()
        buf.insert(2, [b"cd"])
        assert buf.pop_ready() == []
        assert buf.buffered_bytes == 2
        buf.insert(0, [b"ab"])
        assert pieces_to_bytes(buf.pop_ready()) == b"abcd"

    def test_duplicate_ignored(self):
        buf = ReassemblyBuffer()
        buf.insert(0, [b"ab"])
        buf.insert(0, [b"ab"])
        assert pieces_to_bytes(buf.pop_ready()) == b"ab"
        assert buf.next_offset == 2

    def test_stale_fragment_ignored(self):
        buf = ReassemblyBuffer()
        buf.insert(0, [b"abcd"])
        buf.pop_ready()
        buf.insert(0, [b"abcd"])
        assert buf.pop_ready() == []

    def test_partial_overlap_trimmed(self):
        buf = ReassemblyBuffer()
        buf.insert(0, [b"abcd"])
        buf.insert(2, [b"cdef"])  # overlaps [2,4)
        assert pieces_to_bytes(buf.pop_ready()) == b"abcdef"

    def test_overlap_keeps_stored_data(self):
        buf = ReassemblyBuffer()
        buf.insert(2, [b"CD"])
        buf.insert(0, [b"abcd"])  # its [2,4) clipped in favour of stored
        assert pieces_to_bytes(buf.pop_ready()) == b"abCD"

    def test_fragment_filling_gap_between_two(self):
        buf = ReassemblyBuffer()
        buf.insert(0, [b"ab"])
        buf.insert(4, [b"ef"])
        buf.insert(2, [b"cd"])
        assert pieces_to_bytes(buf.pop_ready()) == b"abcdef"

    def test_large_fragment_spanning_stored(self):
        buf = ReassemblyBuffer()
        buf.insert(2, [b"c"])
        buf.insert(5, [b"f"])
        buf.insert(0, [b"ABCDEFG"])  # fills all gaps around stored c, f
        assert pieces_to_bytes(buf.pop_ready()) == b"ABcDEfG"

    def test_virtual_pieces_counted(self):
        buf = ReassemblyBuffer()
        buf.insert(0, [b"hdr", 100])
        ready = buf.pop_ready()
        assert pieces_len(ready) == 103
        assert buf.next_offset == 103

    def test_ranges_reported_for_sack(self):
        buf = ReassemblyBuffer()
        buf.insert(10, [b"aa"])
        buf.insert(20, [b"bb"])
        assert buf.ranges() == [(10, 12), (20, 22)]
        buf.insert(12, [b"cc"])  # touches the first run: joins it
        assert buf.ranges() == [(10, 14), (20, 22)]


# ---------------------------------------------------------------------- #
# property tests: arbitrary fragmentation/reordering reconstructs streams

@st.composite
def stream_and_fragments(draw):
    """A stream, fragments of it (a partition into segments plus arbitrary
    slices that partially overlap them), an arrival order over all the
    fragments, and some duplicates."""
    data = draw(st.binary(min_size=1, max_size=400))
    # Cut points partition the stream into segments.
    n_cuts = draw(st.integers(min_value=0, max_value=10))
    cuts = sorted(draw(st.lists(
        st.integers(min_value=1, max_value=max(1, len(data) - 1)),
        min_size=n_cuts, max_size=n_cuts,
    )))
    bounds = [0] + cuts + [len(data)]
    segments = [
        (start, data[start:end])
        for start, end in zip(bounds, bounds[1:]) if end > start
    ]
    for start in draw(st.lists(
            st.integers(min_value=0, max_value=len(data) - 1), max_size=4)):
        length = draw(st.integers(min_value=1, max_value=120))
        segments.append((start, data[start:start + length]))
    order = draw(st.permutations(range(len(segments))))
    duplicates = draw(st.lists(
        st.integers(min_value=0, max_value=len(segments) - 1),
        max_size=5,
    ))
    return data, segments, order, duplicates


class TestReassemblyProperties:
    @given(stream_and_fragments())
    @settings(max_examples=200, deadline=None)
    def test_any_arrival_order_reconstructs_stream(self, case):
        data, segments, order, duplicates = case
        buf = ReassemblyBuffer()
        received = bytearray()
        for index in list(order) + list(duplicates):
            offset, chunk = segments[index]
            buf.insert(offset, [chunk])
            for piece in buf.pop_ready():
                received.extend(
                    piece if isinstance(piece, bytes) else b"\x00" * piece
                )
        assert bytes(received) == data
        assert buf.next_offset == len(data)
        assert buf.buffered_bytes == 0

    @given(stream_and_fragments())
    @settings(max_examples=200, deadline=None)
    def test_coalescing_buffer_agrees_with_the_fragment_list(self, case):
        """Same pieces, in the same order, at the same step as the
        one-fragment-per-segment reference; and the runs it reports (its
        SACK blocks) are the coalesced cover of the reference's fragments,
        so they never touch: one per hole."""
        data, segments, order, duplicates = case
        buf, reference = ReassemblyBuffer(), ListReassembly()
        for index in list(order) + list(duplicates):
            offset, chunk = segments[index]
            half = len(chunk) // 2
            for buffer in (buf, reference):
                buffer.insert(offset, [chunk[:half], chunk[half:]])
            cover = []
            for start, end in reference.ranges():
                cover = merge_range(cover, start, end)
            assert buf.ranges() == cover
            assert buf.buffered_bytes == sum(end - start for start, end in cover)
            if index % 2:  # leave some deliverable data waiting a step
                assert buf.pop_ready() == reference.pop_ready()
                assert buf.next_offset == reference.next_offset
        assert buf.pop_ready() == reference.pop_ready()
        assert buf.next_offset == reference.next_offset == len(data)

    @given(st.binary(min_size=1, max_size=300),
           st.integers(min_value=1, max_value=50))
    @settings(max_examples=100, deadline=None)
    def test_send_buffer_slices_agree_with_stream(self, data, seg_size):
        buf = SendBuffer()
        # Append in arbitrary small pieces.
        for i in range(0, len(data), 7):
            buf.append(data[i:i + 7])
        out = bytearray()
        for start in range(0, len(data), seg_size):
            length = min(seg_size, len(data) - start)
            out.extend(pieces_to_bytes(buf.slice(start, length)))
        assert bytes(out) == data
