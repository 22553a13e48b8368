"""``python -m benchmarks.mmbench compare A B`` — did B get worse than A?

``A`` and ``B`` are documents written with ``--out``, or directories of
them (one per run of an alternating-pairs session, see README.md). One row
per (workload, end-to-end metric): both medians with their quartiles, the
change against the metric's bound, and a verdict —

* ``REGRESSION``  B's median is worse than A's by more than the bound, and
  the runs are steady enough (or separated enough) to say so;
* ``unresolved``  the run-to-run spread is wider than the bound, so the
  rows cannot show "unchanged" (unless every run of B beats every run of A);
* ``MISSING``     one side has no run of this workload;
* ``ok``          otherwise.

With one document a side the sample is that run's timed batches; with
several it is the runs' medians. Below the table: for every pair of runs
at the same seed, each exact counter and ``results_digest`` that differs,
as ``simulation changed``. Exit status 1 on any regression, missing
workload, rise in ``failed_share``, simulation change, or when no two runs
share a seed; 2 when the two sides did not run the same benchmark (sizes,
batch count or ``--quick`` differ).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
from typing import Any, Dict, List, Tuple

from .spec import END_TO_END, WORKLOAD_NAMES

MODES = ("untraced", "traced")
#: Header fields that must agree before two runs are comparable.
SAME_BENCHMARK = ("quick", "batches", "sizes")

Side = Dict[str, Dict[str, List[Dict[str, Any]]]]


def load_side(path: str) -> Side:
    """``workload -> mode -> [run documents]`` from a file or directory."""
    paths = [path]
    if os.path.isdir(path):
        paths = sorted(os.path.join(path, name) for name in os.listdir(path)
                       if name.endswith(".json"))
    side: Side = {}
    for one in paths:
        with open(one) as handle:
            document = json.load(handle)
        runs = [document]
        if "workloads" in document:
            runs = [run for modes in document["workloads"].values()
                    for run in modes.values()]
        for run in runs:
            side.setdefault(run["header"]["workload"], {}) \
                .setdefault(run["mode"], []).append(run)
    return side


def sample(runs: List[Dict[str, Any]], metric: str) -> List[float]:
    if len(runs) == 1:
        return list(runs[0]["metrics"][metric]["samples"])
    return [run["metrics"][metric]["value"] for run in runs]


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(a: List[float], b: List[float], better: str,
            bound: float) -> Tuple[str, float, float]:
    """(verdict, share by which B's median is worse, widest spread)."""
    sign = 1.0 if better == "lower" else -1.0
    a_q1, a_med, a_q3 = quartiles(a)
    b_q1, b_med, b_q3 = quartiles(b)
    worse = sign * (b_med - a_med) / a_med
    spread = max((a_q3 - a_q1) / a_med, (b_q3 - b_q1) / b_med)
    all_worse = min(sign * v for v in b) > max(sign * v for v in a)
    all_better = max(sign * v for v in b) < min(sign * v for v in a)
    if worse > bound and (spread <= bound or all_worse):
        return "REGRESSION", worse, spread
    if spread > bound and not all_better:
        return "unresolved", worse, spread
    return "ok", worse, spread


def mismatched_headers(a: Side, b: Side) -> List[str]:
    """Why the two sides are not runs of one benchmark (empty: they are)."""
    problems = []
    for workload in WORKLOAD_NAMES:
        for mode in MODES:
            runs = (a.get(workload, {}).get(mode, [])
                    + b.get(workload, {}).get(mode, []))
            for field in SAME_BENCHMARK:
                seen = {json.dumps(run["header"].get(field), sort_keys=True)
                        for run in runs}
                if len(seen) > 1:
                    problems.append(f"{workload} [{mode}]: {field} differs "
                                    f"between runs: {sorted(seen)}")
    return problems


def metric_rows(a: Side, b: Side) -> Tuple[List[str], bool]:
    lines = [
        f"{'workload':<20} {'metric':<14} {'A median [q1, q3]':>34} "
        f"{'B median [q1, q3]':>34} {'B worse by':>11} {'bound':>6} "
        f"{'spread':>7}  verdict"
    ]
    bad = False
    for workload in WORKLOAD_NAMES:
        runs_a = a.get(workload, {}).get("untraced", [])
        runs_b = b.get(workload, {}).get("untraced", [])
        if not runs_a and not runs_b:
            continue
        if not runs_a or not runs_b:
            bad = True
            lines.append(f"{workload:<20} no untraced run in "
                         f"{'A' if not runs_a else 'B'}  MISSING")
            continue
        for metric in END_TO_END:
            if metric.bound == 0.0:
                # An absolute bound: any rise fails, no spread to weigh.
                worst_a = max(run["metrics"][metric.name]["value"]
                              for run in runs_a)
                worst_b = max(run["metrics"][metric.name]["value"]
                              for run in runs_b)
                rose = worst_b > worst_a
                bad = bad or rose
                lines.append(
                    f"{workload:<20} {metric.name:<14} {worst_a:>34.6g} "
                    f"{worst_b:>34.6g} {'':>11} {'0%':>6} {'':>7}  "
                    f"{'REGRESSION' if rose else 'ok'}")
                continue
            values_a = sample(runs_a, metric.name)
            values_b = sample(runs_b, metric.name)
            word, worse, spread = verdict(
                values_a, values_b, metric.better, metric.bound)
            bad = bad or word == "REGRESSION"
            cells = []
            for values in (values_a, values_b):
                q1, med, q3 = quartiles(values)
                cells.append(f"{med:.5g} [{q1:.5g}, {q3:.5g}] n={len(values)}")
            lines.append(
                f"{workload:<20} {metric.name:<14} {cells[0]:>34} "
                f"{cells[1]:>34} {worse:>+10.1%} {metric.bound:>6.0%} "
                f"{spread:>7.1%}  {word}")
    return lines, bad


def simulation_changes(a: Side, b: Side) -> List[str]:
    """Every exact counter and digest that differs between two runs at
    one seed, and every (workload, mode) that cannot be checked."""
    changed = []
    for workload in WORKLOAD_NAMES:
        for mode in MODES:
            runs_a = a.get(workload, {}).get(mode, [])
            runs_b = b.get(workload, {}).get(mode, [])
            if not runs_a and not runs_b:
                continue
            where = f"{workload} [{mode}]"
            if not runs_a or not runs_b:
                changed.append(f"{where}: no run in "
                               f"{'A' if not runs_a else 'B'}")
                continue
            by_seed_b: Dict[int, List[Dict[str, Any]]] = {}
            for run in runs_b:
                by_seed_b.setdefault(run["header"]["seed"], []).append(run)
            paired = False
            for run_a in runs_a:
                seed = run_a["header"]["seed"]
                for run_b in by_seed_b.get(seed, []):
                    paired = True
                    if run_a["results_digest"] != run_b["results_digest"]:
                        changed.append(
                            f"{where} seed {seed}: results_digest "
                            f"{run_a['results_digest']} -> "
                            f"{run_b['results_digest']}")
                    names = sorted(set(run_a["exact"]) | set(run_b["exact"]))
                    for name in names:
                        old = run_a["exact"].get(name)
                        new = run_b["exact"].get(name)
                        if old != new:
                            changed.append(f"{where} seed {seed}: {name} "
                                           f"{old!r} -> {new!r}")
            if not paired:
                changed.append(f"{where}: no two runs share a seed; exact "
                               f"counters not comparable")
    return changed


def compare_sides(a: Side, b: Side) -> Tuple[List[str], int]:
    """The report and the exit status."""
    problems = mismatched_headers(a, b)
    if problems:
        return ["not the same benchmark on both sides:"] \
            + [f"  {line}" for line in problems], 2
    lines, bad = metric_rows(a, b)
    changed = simulation_changes(a, b)
    lines.append("")
    if changed:
        lines.append("simulation changed:")
        lines.extend(f"  {line}" for line in changed)
    else:
        lines.append("exact counters and results_digest: identical at "
                     "every shared seed")
    return lines, 1 if bad or changed else 0


def compare_main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.mmbench compare",
        description="Compare two mmbench outputs (files written with "
                    "--out, or directories of them): A is the parent, B "
                    "the change.")
    parser.add_argument("a")
    parser.add_argument("b")
    args = parser.parse_args(argv)
    lines, status = compare_sides(load_side(args.a), load_side(args.b))
    print("\n".join(lines))
    return status
