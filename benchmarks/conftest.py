"""Shared benchmark infrastructure.

Every bench regenerates one of the paper's tables or figures, or one of
the reproduction's own studies (DESIGN.md's per-experiment index).
Outputs are printed and also written to
``benchmarks/results/<experiment>.txt`` (the ``report`` fixture) so a
full run leaves the artifacts on disk.

Scale, worker count and checkpoint journals are the three knobs of
``benchmarks/knobs.py``, the one place they are read.
"""

import os

import pytest

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")


@pytest.fixture
def report():
    """Fixture: call report(name, text) to print and persist an artifact."""

    def _report(name: str, text: str) -> None:
        os.makedirs(RESULTS_DIR, exist_ok=True)
        path = os.path.join(RESULTS_DIR, f"{name}.txt")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
        print(f"\n{text}\n[written to {path}]")

    return _report
