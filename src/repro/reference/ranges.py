"""Sorted disjoint range lists, rebuilt whole on every change.

``transport/tcp.py``'s ``_merge_range`` / ``_subtract_range`` as they stood
until PR 18, bodies verbatim: O(ranges held) per call, nothing to get
wrong. The oracle for :class:`repro.transport.wire.RangeSet`.
"""

from typing import List, Tuple


def merge_range(
    ranges: List[Tuple[int, int]], start: int, end: int
) -> List[Tuple[int, int]]:
    """Insert [start, end) into a sorted disjoint range list."""
    merged: List[Tuple[int, int]] = []
    placed = False
    for r_start, r_end in ranges:
        if r_end < start or (placed and r_start > end):
            merged.append((r_start, r_end))
        elif r_start > end:
            if not placed:
                merged.append((start, end))
                placed = True
            merged.append((r_start, r_end))
        else:
            start = min(start, r_start)
            end = max(end, r_end)
    if not placed:
        merged.append((start, end))
    merged.sort()
    return merged


def subtract_range(
    ranges: List[Tuple[int, int]], start: int, end: int
) -> List[Tuple[int, int]]:
    """Remove [start, end) from a sorted disjoint range list."""
    result: List[Tuple[int, int]] = []
    for r_start, r_end in ranges:
        if r_end <= start or r_start >= end:
            result.append((r_start, r_end))
            continue
        if r_start < start:
            result.append((r_start, start))
        if r_end > end:
            result.append((end, r_end))
    return result
