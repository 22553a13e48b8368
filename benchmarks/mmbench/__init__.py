"""mmbench: the repo's benchmark.

Five named workloads, end-to-end campaign metrics measured untraced, and a
Figure-2-style per-layer attribution from a separate traced run. Every layer
of ``src/repro`` is measured from outside: by timing calls into its public
functions and through the public observer hooks (``Simulator.set_trace``,
``Simulator.use_metrics``, ``cProfile``). See ``README.md`` in this directory.

Run as ``python -m benchmarks.mmbench`` from the repository root.
"""

from __future__ import annotations

import sys
from pathlib import Path

#: The checkout this benchmark measures (``benchmarks/mmbench/`` is two
#: levels below it). The program under test is built from this tree's
#: ``src`` — never from an installed copy elsewhere on the machine.
ROOT = Path(__file__).resolve().parents[2]

_SRC = str(ROOT / "src")
if sys.path[:1] != [_SRC]:
    sys.path.insert(0, _SRC)
