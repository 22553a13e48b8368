"""What a finished page-load result carries.

A result crosses the worker->coordinator pipe and lands in an fsync'd
journal line once per trial, so it must hold what the load measured and
nothing of its input: the page's name, never its ``PageModel`` or any
``Resource`` of it. The per-resource timeline is not part of it either:
it lives in the trial's waterfall, which rides along in ``metrics`` only
when the trial was instrumented. A pickle's length repeats exactly from run to run (a
speed reading does not), so the byte bound below is a hard gate.

The checks are plain functions so the same body runs without pytest on
any interpreter: ``PYTHONPATH=src python tests/test_browser/test_result_payload.py``.
"""

from __future__ import annotations

import gc
import pickle
import types

from repro.browser.resources import PageModel, Resource
from repro.measure.runner import run_trial
from repro.scenarios import SCENARIOS

#: Pickled bytes (protocol 5, event digest attached) of the ``smoke``
#: scenario's seed-0 result: 320 B on CPython 3.11; ~1.6 KB when it also
#: carried a per-URL (start, end) timing map, ~3.2 KB when it carried its
#: page as well.
MAX_SMOKE_RESULT_BYTES = 400

#: Referents not walked: a class, module or function reaches the whole
#: interpreter, and no result owns one.
_SHARED = (type, types.ModuleType, types.FunctionType,
           types.BuiltinFunctionType, types.CodeType)


def finished(scenario: str, seed: int = 0):
    """One trial of a registry scenario, run as a sweep runs it."""
    return run_trial(SCENARIOS[scenario].build(), seed,
                     allow_failures=True, capture_digest=True)


def page_objects_reachable(result) -> list:
    """Type names of every PageModel/Resource reachable from ``result``."""
    seen, stack, found = set(), [result], []
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, _SHARED):
            continue
        seen.add(id(obj))
        if isinstance(obj, (PageModel, Resource)):
            found.append(type(obj).__name__)
        stack.extend(gc.get_referents(obj))
    return found


def result_bytes(result) -> int:
    return len(pickle.dumps(result, protocol=5))


def test_result_holds_no_page_objects():
    # smoke loads cleanly; chaos fails resources, so its result also
    # carries typed failures.
    for scenario in ("smoke", "chaos"):
        result = finished(scenario)
        assert result.complete
        held = page_objects_reachable(result)
        assert not held, f"{scenario} result reaches {len(held)} {held[:3]}"
        assert result.name == "smoke.example"


def test_result_pickle_fits_its_bound():
    size = result_bytes(finished("smoke"))
    assert size <= MAX_SMOKE_RESULT_BYTES, (
        f"a smoke result pickles to {size} B "
        f"(bound {MAX_SMOKE_RESULT_BYTES} B)")


if __name__ == "__main__":
    import sys

    test_result_holds_no_page_objects()
    print(f"Python {sys.version.split()[0]}: smoke result "
          f"{result_bytes(finished('smoke'))} B "
          f"(bound {MAX_SMOKE_RESULT_BYTES} B)")
    test_result_pickle_fits_its_bound()
