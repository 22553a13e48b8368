"""Paired scenario comparison — the paper's Table 2 methodology as API.

Comparing two configurations ("multi-origin vs single-server", "with vs
without a shell") is the toolkit's bread and butter. Doing it well needs
pairing: run both arms with the *same seed* per trial, so common random
numbers cancel and the per-trial difference isolates the configuration.
:func:`compare_page_loads` packages that, returning the distribution of
per-trial percent differences with the percentiles the paper reports.
"""

from __future__ import annotations

from typing import NamedTuple

from repro.measure.runner import ScenarioFactory, run_page_loads
from repro.measure.stats import Sample


class Comparison(NamedTuple):
    """Outcome of a paired comparison of two scenarios."""

    baseline: Sample
    treatment: Sample
    percent_diffs: Sample

    @property
    def median_diff(self) -> float:
        """Median per-trial percent difference (treatment vs baseline)."""
        return self.percent_diffs.median

    def percentile_diff(self, p: float) -> float:
        """Percentile of the per-trial percent differences."""
        return self.percent_diffs.percentile(p)

    def summary(self) -> str:
        """One-line report in the paper's "50th, 95th pct" format."""
        return (f"{self.median_diff:+.1f}%, "
                f"{self.percentile_diff(95):+.1f}% "
                f"(50th, 95th pct; n={len(self.percent_diffs)})")


def compare_page_loads(
    baseline: ScenarioFactory,
    treatment: ScenarioFactory,
    trials: int,
    timeout: float = 900.0,
    workers: int = 1,
) -> Comparison:
    """Run two scenario factories with paired seeds and compare PLTs.

    Args:
        baseline / treatment: factories as for
            :func:`~repro.measure.runner.run_page_loads`; trial ``i`` of
            each arm receives the same index, so factories seeding their
            simulators from it produce paired runs.
        trials: paired trials to run.
        timeout: virtual-time budget per load.
        workers: worker count; above 1, each arm's trials are fanned
            out over forked workers (pairing and statistics are
            unaffected — results stay in trial order).
    """
    base = run_page_loads(baseline, trials, timeout, workers=workers)
    treat = run_page_loads(treatment, trials, timeout, workers=workers)
    diffs = [
        (t - b) / b * 100.0
        for b, t in zip(
            (r.page_load_time for r in base.results),
            (r.page_load_time for r in treat.results),
        )
    ]
    return Comparison(base.sample, treat.sample, Sample(diffs))
