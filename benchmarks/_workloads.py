"""Shared workload builders for the benchmark suite."""

from __future__ import annotations

import os
from functools import lru_cache
from typing import Callable, Optional, Tuple

from repro.core import ShellStack
from repro.corpus import alexa_corpus
from repro.corpus.sitegen import SyntheticSite
from repro.errors import ReproError
from repro.measure.journal import run_key
from repro.measure.parallel import default_workers
from repro.measure.runner import run_page_loads
from repro.measure.supervise import run_supervised


def bench_scale() -> float:
    """Global trial-count multiplier (see conftest docstring)."""
    return float(os.environ.get("REPRO_BENCH_SCALE", "0.25"))


def scaled(full_count: int, minimum: int = 3) -> int:
    """Scale a paper-size trial count."""
    return max(minimum, int(round(full_count * bench_scale())))


def bench_workers() -> int:
    """Worker-process count for trial-parallel benches (0 = all cores)."""
    workers = int(os.environ.get("REPRO_BENCH_WORKERS", "1"))
    if workers == 0:
        return default_workers()
    return max(1, workers)


def bench_journal_dir() -> Optional[str]:
    """Where sweep checkpoint journals go (REPRO_BENCH_JOURNAL, or off)."""
    return os.environ.get("REPRO_BENCH_JOURNAL") or None


def run_sweep(label: str, factory, trials: int, timeout: float = 900.0):
    """Run one bench sweep of ``trials`` page loads.

    The single entry point the paper benches (Figure 2, Table 1,
    Table 2) share. Without ``REPRO_BENCH_JOURNAL`` it is exactly
    ``run_page_loads(..., workers=bench_workers())``. With it, the sweep
    runs under supervision (per-trial deadline, crash containment, retry)
    and checkpoints every completed trial to
    ``$REPRO_BENCH_JOURNAL/<label>.journal.jsonl`` — a killed bench
    resumes from the journal and, because every trial is a
    deterministic function of its index, produces results (and a
    combined event-stream digest) byte-identical to an uninterrupted
    run. The journal is keyed to (label, trials, scale); resuming after
    changing REPRO_BENCH_SCALE is refused rather than silently merged.

    Returns an object with ``.sample`` and ``.results`` (trial-index
    order) under both paths. A trial lost even after retry fails the
    bench loudly rather than silently shrinking the sample.
    """
    workers = bench_workers()
    journal_dir = bench_journal_dir()
    if journal_dir is None:
        return run_page_loads(factory, trials, timeout, workers=workers)
    os.makedirs(journal_dir, exist_ok=True)
    sweep = run_supervised(
        factory,
        trials,
        workers=workers,
        timeout=timeout,
        journal=os.path.join(journal_dir, f"{label}.journal.jsonl"),
        run_key=run_key(bench=label, trials=trials, scale=bench_scale()),
        capture_digest=True,
    )
    if not sweep.complete:
        counts = sweep.counts()
        raise ReproError(
            f"bench sweep {label!r} lost trials: "
            f"{counts['quarantined']} quarantined, "
            f"{counts['crashed']} crashed (of {trials})"
        )
    return sweep


def site_store(site: SyntheticSite):
    """The site's recorded store, built once and cached on the site.

    Benches call this *before* handing a factory to the runner so that
    forked workers inherit the already-built store instead of each
    rebuilding it.
    """
    store = getattr(site, "_bench_store", None)
    if store is None:
        store = site.to_recorded_site()
        site._bench_store = store
    return store


def page_load_factory(sites, build: Callable):
    """A :data:`~repro.measure.runner.ScenarioFactory` over a site list.

    Trial ``i`` loads ``sites[i]`` through a stack built by
    ``build(stack, store)`` in a fresh world seeded with ``i`` — the
    seed/site pairing every corpus bench uses, made runner-shaped so the
    same code path drives serial and parallel runs.
    """
    stores = [site_store(site) for site in sites]

    def factory(trial: int):
        stack = ShellStack.fresh(trial)
        build(stack, stores[trial])
        return stack.sim, stack.load(sites[trial].page)

    return factory


@lru_cache(maxsize=None)
def corpus(size: int) -> Tuple[SyntheticSite, ...]:
    """The (scaled) Alexa-like corpus, generated once per session."""
    singles = max(1, round(9 * size / 500))
    return tuple(alexa_corpus(seed=0, size=size,
                              single_origin_sites=singles))


def replay_alone(stack, store):
    """Figure 2 baseline: bare ReplayShell."""
    stack.add_replay(store)


def replay_delay0(stack, store):
    """Figure 2: ReplayShell + DelayShell 0 ms."""
    stack.add_replay(store)
    stack.add_delay(0.0)


def replay_link1000(stack, store):
    """Figure 2: ReplayShell + LinkShell with a 1000 Mbit/s trace."""
    stack.add_replay(store)
    stack.add_link(1000.0, 1000.0)
