"""The untraced run: set-up rounds, a warm-up batch, nine timed batches.

End-to-end metrics always come from here — no hook, no registry, no
profiler anywhere in the process. One process generates the load; the
workload itself forks at most ``workers`` children.
"""

from __future__ import annotations

import contextlib
import os
import platform
import resource
import statistics
import subprocess
import time
from typing import Any, Dict, Iterator, List, Optional

from repro.measure.parallel import default_workers

from . import ROOT
from .calibrate import REFERENCE_S, Kernel
from .compare import quartiles
from .spec import BATCHES, END_TO_END

#: Set-up is repeated and the median reported. The repeats stop early
#: once they have used this much wall time: on a throttled disk one
#: round of the campaigns' ~650 fsyncs can take seconds, and a run has
#: to stay inside the driver's budget.
SETUP_ROUNDS = 3
SETUP_BUDGET_S = 4.0


def cpu_seconds() -> float:
    """User+sys CPU of this process plus every child it has reaped.

    Both engines join their workers before they return, so by the time
    a batch's closing reading is taken its children are all counted.
    """
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    """Max of this process's and its reaped children's peak RSS (Linux
    reports ``ru_maxrss`` in KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def git_commit() -> str:
    """The measured checkout's commit, or ``unknown`` when it is not a
    git work tree itself (git would go looking in its parents)."""
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def header(workload, batches: int) -> Dict[str, Any]:
    return {
        "workload": workload.name,
        "op": workload.op,
        "seed": workload.seed,
        "quick": workload.quick,
        "batches": batches,
        "python": platform.python_version(),
        "nproc": default_workers(),
        "workers": workload.workers,
        "degraded": workload.workers < 2,
        "git_commit": git_commit(),
        "input_draws": workload.draws,
        "sizes": workload.sizes,
    }


class Spans:
    """In-memory spans: name, start, end, parent, batch id — plus the
    CPU seconds (this process and reaped children) spent inside."""

    def __init__(self) -> None:
        self.records: List[Dict[str, Any]] = []
        self._open: List[int] = []

    @contextlib.contextmanager
    def span(self, name: str, batch: Optional[int] = None) -> Iterator[None]:
        record = {
            "name": name, "start": time.perf_counter(), "end": None,
            "cpu": None, "parent": self._open[-1] if self._open else None,
            "batch": batch,
        }
        self.records.append(record)
        self._open.append(len(self.records) - 1)
        cpu_before = cpu_seconds()
        try:
            yield
        finally:
            record["cpu"] = cpu_seconds() - cpu_before
            record["end"] = time.perf_counter()
            self._open.pop()

    def seconds(self, name: str) -> List[float]:
        return [r["end"] - r["start"] for r in self.records
                if r["name"] == name]

    def cpu(self, name: str) -> List[float]:
        return [r["cpu"] for r in self.records if r["name"] == name]


def summarize(values: List[float], unit: str) -> Dict[str, Any]:
    """Median, quartiles and the sample behind them."""
    q1, median, q3 = quartiles(values)
    return {"value": median, "unit": unit, "q1": q1, "q3": q3,
            "n": len(values), "samples": values}


def prepare(workload, scratch: str, rounds: int, spans: Spans) -> List[str]:
    """Set-up up to ``rounds`` times (fresh directory each; the last
    one's inputs are used), then the serial reference. Returns its
    errors."""
    for index in range(rounds):
        directory = os.path.join(scratch, f"setup{index}")
        os.makedirs(directory)
        with spans.span("setup", batch=index):
            workload.setup(directory)
        if sum(spans.seconds("setup")) >= SETUP_BUDGET_S:
            break
    with spans.span("reference"):
        return workload.reference()


def run_untraced(workload, scratch: str) -> Dict[str, Any]:
    """One workload, measured end to end: set-up rounds, the reference,
    one warm-up batch, then :data:`BATCHES` timed batches (one when
    ``--quick``) with a calibration chunk on either side of each."""
    spans = Spans()
    quick = workload.quick
    kernel = Kernel(quick)
    errors = prepare(workload, scratch, 1 if quick else SETUP_ROUNDS, spans)
    batches = 1 if quick else BATCHES
    attempted = failed = 0
    ops: List[int] = []
    chunks: List[float] = []
    for batch in range(-1, batches):  # -1 is the warm-up
        with spans.span("warmup" if batch < 0 else "batch", batch=batch):
            raw = workload.batch(max(batch, 0))
        checked = workload.check(raw, max(batch, 0))
        attempted += checked.attempted
        failed += checked.failed
        errors.extend(checked.errors[:5])
        if batch >= 0:
            ops.append(checked.attempted)
        chunks.append(kernel.chunk())

    # Every host time below is divided by the run's slowdown: how much
    # longer the calibration kernel took, on average over the timed
    # phase, than on the reference machine (see calibrate.py). One
    # factor for the whole run: a chunk says little about the batch
    # next to it (bursts last a second or two) and a lot about the
    # minute both ran in. The reported value is the median over batches
    # (one batch in nine of a campaign runs at half speed for no reason
    # the guest can see); ``literal`` is that median unscaled.
    slowdown = statistics.mean(chunks) / REFERENCE_S
    walls, cpus = spans.seconds("batch"), spans.cpu("batch")
    rates = [n / wall for n, wall in zip(ops, walls)]
    cpu_ms = [cpu * 1e3 / n for n, cpu in zip(ops, cpus)]
    # CPU seconds, not wall: set-up is where the campaigns' stores are
    # fsync'd to disk file by file, and on the sandbox's disk one fsync
    # takes 1 to 15 ms depending on what the minutes before did to it.
    # Work a change moves into set-up still shows; the disk's mood does
    # not. The wall times are in ``phases`` beside it.
    setup_cpu = (statistics.median(spans.cpu("setup"))
                 + spans.cpu("reference")[0] + spans.cpu("warmup")[0])
    units = {m.name: m.unit for m in END_TO_END}
    end_to_end = {
        "ops_per_s": summarize([rate * slowdown for rate in rates],
                               units["ops_per_s"]),
        "cpu_ms_per_op": summarize([ms / slowdown for ms in cpu_ms],
                                   units["cpu_ms_per_op"]),
        "peak_rss_mb": summarize([peak_rss_mb()], units["peak_rss_mb"]),
        "setup_s": summarize([setup_cpu / slowdown], units["setup_s"]),
        "failed_share": summarize([failed / attempted],
                                  units["failed_share"]),
    }
    end_to_end["ops_per_s"]["literal"] = statistics.median(rates)
    end_to_end["cpu_ms_per_op"]["literal"] = statistics.median(cpu_ms)
    end_to_end["setup_s"]["literal"] = setup_cpu
    end_to_end["setup_s"]["rounds"] = spans.cpu("setup")
    return {
        "mode": "untraced",
        "header": header(workload, batches),
        "correct": not errors and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "results_digest": workload.results_digest,
        "metrics": end_to_end,
        "calibration": {"reference_s": REFERENCE_S, "chunks": chunks,
                        "slowdown": slowdown},
        "exact": workload.counters,
        "phases": dict(workload.phases,
                       setup_wall_s=spans.seconds("setup"),
                       reference_wall_s=spans.seconds("reference")[0],
                       warmup_wall_s=spans.seconds("warmup")[0]),
        "spans": spans.records,
    }
