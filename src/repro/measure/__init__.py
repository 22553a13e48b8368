"""Measurement harness: trials, statistics, and report formatting.

:class:`~repro.measure.stats.Sample` holds a set of measurements (page
load times, usually) and answers the questions every table and figure in
the paper asks: mean, standard deviation, percentiles, CDFs, and percent
differences. :func:`~repro.measure.runner.run_page_loads` runs N
independent page-load trials of a scenario factory, all-or-nothing —
serially, or with ``workers=`` fanned out over forked workers with
bit-identical statistics; :mod:`~repro.measure.report` renders the
paper's tables and ASCII CDF plots.
:func:`~repro.measure.supervise.run_supervised` is the resilient sweep:
wall-clock watchdog, bounded retry with quarantine, crash detection, and
:class:`~repro.measure.journal.TrialJournal` checkpoint/resume.
"""

from repro.measure.journal import TrialJournal, run_key
from repro.measure.parallel import parallel_map
from repro.measure.supervise import (
    SweepResult,
    TrialOutcome,
    run_supervised,
)
from repro.measure.report import ascii_cdf, format_table, percent_diff
from repro.measure.robustness import (
    FAILURE_CLASSES,
    classify_error,
    classify_result,
)
from repro.measure.runner import ScenarioResult, run_page_loads, run_trial
from repro.measure.stats import Sample, StreamingQuantiles, quantiles_of

__all__ = [
    "FAILURE_CLASSES",
    "Sample",
    "ScenarioResult",
    "StreamingQuantiles",
    "SweepResult",
    "TrialJournal",
    "TrialOutcome",
    "ascii_cdf",
    "classify_error",
    "classify_result",
    "format_table",
    "parallel_map",
    "percent_diff",
    "quantiles_of",
    "run_key",
    "run_page_loads",
    "run_supervised",
    "run_trial",
]
