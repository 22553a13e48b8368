"""Deliberately naive, obviously-correct models the fast paths are tested
against (ROADMAP item 1).

Nothing here is used at run time and nothing here imports the module it
checks: each resident is the plain-list version of a structure the
simulator keeps a faster form of, and a hypothesis test under ``tests/``
drives both with the same operations and requires equal answers.
"""

from repro.reference.link import list_trace_link
from repro.reference.ranges import merge_range, subtract_range
from repro.reference.reassembly import ListReassembly

__all__ = ["ListReassembly", "list_trace_link", "merge_range", "subtract_range"]
