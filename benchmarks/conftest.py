"""Shared benchmark infrastructure.

Every bench regenerates one of the paper's tables or figures (DESIGN.md's
per-experiment index). Outputs are printed and also written to
``benchmarks/results/<experiment>.txt`` so a full run leaves the artifacts
on disk.

Scale: the paper's full trial counts (500-site corpus, 100 loads per
distribution) make the suite take tens of minutes in pure Python; the
``REPRO_BENCH_SCALE`` environment variable (default 0.25) scales trial
counts down proportionally. ``REPRO_BENCH_SCALE=1.0`` reproduces the
paper-size runs; EXPERIMENTS.md records numbers from such a run.

Parallelism: ``REPRO_BENCH_WORKERS`` (default 1 — serial, the historical
behaviour) fans each experiment's independent page loads out over that
many worker processes via
``repro.measure.run_page_loads(workers=)``. Per-trial seeding and
trial ordering are preserved, so reported statistics are bit-identical
at any worker count; ``REPRO_BENCH_WORKERS=0`` means one worker per
available core.
"""

import os

import pytest

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")


def bench_scale() -> float:
    """Global trial-count multiplier."""
    return float(os.environ.get("REPRO_BENCH_SCALE", "0.25"))


def scaled(full_count: int, minimum: int = 3) -> int:
    """Scale a paper-size trial count."""
    return max(minimum, int(round(full_count * bench_scale())))


def bench_workers() -> int:
    """Worker-process count for trial-parallel benches (0 = all cores)."""
    workers = int(os.environ.get("REPRO_BENCH_WORKERS", "1"))
    if workers == 0:
        from repro.measure.parallel import default_workers

        return default_workers()
    return max(1, workers)


@pytest.fixture
def obs_dir(request):
    """Directory for repro.obs JSONL artifacts (None = export disabled).

    Set with ``--obs-dir`` or the ``REPRO_BENCH_OBS_DIR`` environment
    variable; instrumented benches write their registries there so CI can
    upload them and ``mm-report`` can render them afterwards.
    """
    return (
        request.config.getoption("--obs-dir")
        or os.environ.get("REPRO_BENCH_OBS_DIR")
        or None
    )


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
