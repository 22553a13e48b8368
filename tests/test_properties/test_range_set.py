"""Property test: ``transport.wire.RangeSet`` against the range lists it
replaced.

The set sits under the sender's SACK scoreboard and retransmit ledger and
under the receiver's reassembly map; until PR 18 all three were plain
lists rebuilt whole by ``_merge_range`` / ``_subtract_range``. Those two
functions now live, bodies verbatim, in :mod:`repro.reference.ranges`, and
this drives both with the same add / remove / trim-below sequences: equal
range lists and equal totals after every step, and the set's own
invariant (sorted, disjoint, non-touching, non-empty ranges) never breaks.
The determinism digests check the rewrite for the worlds we ship; this
checks it for the sequences hypothesis invents.
"""

from __future__ import annotations

from typing import List, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.reference import merge_range, subtract_range
from repro.transport.wire import RangeSet

Range = Tuple[int, int]

#: Non-empty ranges over a domain small enough that sequences collide:
#: overlap, touch, nest and straddle each other.
ranges = st.tuples(st.integers(0, 48), st.integers(1, 16)).map(
    lambda pair: (pair[0], pair[0] + pair[1]))
operations = st.lists(
    st.one_of(
        st.tuples(st.sampled_from(["add", "remove"]), ranges),
        st.tuples(st.just("trim_below"), st.integers(0, 64)),
    ),
    max_size=40,
)


def uncovered(held: List[Range], start: int, end: int) -> List[Range]:
    """[start, end) minus every held range, by the reference subtraction."""
    left = [(start, end)]
    for held_start, held_end in held:
        left = subtract_range(left, held_start, held_end)
    return left


@given(operations)
@settings(max_examples=300, deadline=None)
def test_range_set_agrees_with_the_list_functions(ops):
    fast = RangeSet()
    slow: List[Range] = []
    for op, arg in ops:
        if op == "add":
            merged = fast.add(*arg)
            slow = merge_range(slow, *arg)
            assert merged in slow and merged[0] <= arg[0] and arg[1] <= merged[1]
        elif op == "remove":
            fast.remove(*arg)
            slow = subtract_range(slow, *arg)
        else:
            fast.trim_below(arg)
            slow = subtract_range(slow, -1, arg)
        held = fast.ranges()
        assert held == slow
        assert fast.total == sum(end - start for start, end in slow)
        assert bool(fast) == bool(slow)
        assert all(start < end for start, end in held)
        assert all(a_end < b_start
                   for (_, a_end), (b_start, _) in zip(held, held[1:]))


@given(operations, ranges)
@settings(max_examples=200, deadline=None)
def test_covers_and_gaps_agree_with_subtracting_every_range(ops, query):
    fast = RangeSet()
    for op, arg in ops:
        if op == "trim_below":
            fast.trim_below(arg)
        else:
            getattr(fast, op)(*arg)
    left = uncovered(fast.ranges(), *query)
    assert list(fast.gaps(*query)) == left
    assert fast.covers(*query) == (not left)
