"""Guard: the package forks worker processes in exactly one place.

``parallel_map``, ``run_supervised`` and ``run_fabric`` all obtain their
local workers from ``LocalBackend``; a second pool appearing anywhere in
``src/repro`` (an executor, a bare ``os.fork``, another fork context)
would bring back its own crash detection, watchdog and retry
bookkeeping. No subprocesses here — the source is only read.
"""

import inspect
import pathlib
import re

import repro
from repro.fabric.backend import LocalBackend

_FORK_MARKERS = re.compile(
    r"ProcessPoolExecutor|concurrent\.futures|os\.fork\b"
    r"""|get_context\(\s*["']fork["']\s*\)"""
)


def test_local_backend_is_the_only_fork_site():
    root = pathlib.Path(repro.__file__).parent
    forking = sorted(
        str(path.relative_to(root))
        for path in root.rglob("*.py")
        if _FORK_MARKERS.search(path.read_text(encoding="utf-8"))
    )
    home = pathlib.Path(inspect.getsourcefile(LocalBackend))
    assert forking == [str(home.relative_to(root))]
