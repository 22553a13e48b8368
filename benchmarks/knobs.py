"""The three bench knobs, each read here and nowhere else.

* ``REPRO_BENCH_SCALE`` (default 0.25) multiplies every paper-size trial
  count; ``1.0`` reproduces the paper-size runs.
* ``REPRO_BENCH_WORKERS`` (default 1, serial) fans each study's trials
  over that many forked workers; ``0`` means one per available core.
  Trials are seeded by index and collected in index order, so every
  statistic is bit-identical at any worker count.
* ``REPRO_BENCH_JOURNAL`` (a directory; unset = off) checkpoints each
  sweep to ``<dir>/<name>.journal.jsonl``: a killed bench re-run with the
  same directory takes its finished trials from the journal, and writes
  the same artifact as an uninterrupted run.

A knob that is not a finite, non-negative number is refused with a
``ReproError`` naming it.
"""

import math
import os
from typing import Callable, Optional

from repro.errors import ReproError
from repro.measure.parallel import default_workers


def _knob(name: str, default: str, parse: Callable[[str], float],
          kind: str) -> float:
    text = os.environ.get(name, default)
    try:
        value = parse(text)
    except ValueError:
        value = math.nan
    if not 0 <= value < math.inf:
        raise ReproError(f"{name} must be a non-negative {kind}, "
                         f"got {text!r}")
    return value


def bench_scale() -> float:
    """The trial-count multiplier (``REPRO_BENCH_SCALE``)."""
    return _knob("REPRO_BENCH_SCALE", "0.25", float, "finite number")


def scaled(full_count: int, minimum: int = 3) -> int:
    """Scale a paper-size trial count, never below ``minimum``."""
    return max(minimum, int(round(full_count * bench_scale())))


def bench_workers() -> int:
    """Worker processes per study (``REPRO_BENCH_WORKERS``; 0 = all
    cores)."""
    return int(_knob("REPRO_BENCH_WORKERS", "1", int, "integer")) \
        or default_workers()


def bench_journal(name: str) -> Optional[str]:
    """The checkpoint journal of sweep ``name`` (``REPRO_BENCH_JOURNAL``),
    or None when journaling is off."""
    directory = os.environ.get("REPRO_BENCH_JOURNAL")
    return os.path.join(directory, f"{name}.journal.jsonl") \
        if directory else None
