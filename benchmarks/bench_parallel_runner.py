"""Micro-benchmark: ``run_page_loads(workers=N)`` vs. the same call serial.

Not a paper artifact — this guards the two properties the parallel
execution layer promises on the Table 1 workload (wikiHow behind an
8 Mbit/s link with 40 ms one-way delay):

1. **Determinism**: the PLT ``Sample`` at ``workers=N`` is
   bit-identical to the serial ``run_page_loads`` — same trials, same
   seeds, same ordering, merely on more cores.
2. **Speedup**: with 4 workers on >= 4 usable cores, wall-clock time is
   at least 2x better than serial. On smaller machines (or without
   fork) the speedup is reported but not asserted — there is nothing to
   win on one core, and the fallback path is the serial runner itself.

``REPRO_BENCH_SCALE`` scales the trial count as everywhere else;
``REPRO_BENCH_WORKERS`` (default 4 here) sizes the parallel arm.
"""

import os
import time

from benchmarks._workloads import scaled
from repro.core import ShellStack
from repro.corpus import named_site
from repro.measure.parallel import default_workers, fork_available
from repro.measure.runner import run_page_loads

LINK_MBPS = 8.0
ONE_WAY_DELAY = 0.040
WORKERS = int(os.environ.get("REPRO_BENCH_WORKERS", "4")) or 4


def _table1_factory():
    site = named_site("wikihow")
    store = site.to_recorded_site()

    def factory(trial):
        stack = ShellStack.fresh(trial)
        stack.add_replay(store)
        stack.add_link(LINK_MBPS, LINK_MBPS)
        stack.add_delay(ONE_WAY_DELAY)
        return stack.sim, stack.load(site.page)

    return factory


def test_parallel_runner_speedup(report):
    trials = scaled(40, minimum=8)
    factory = _table1_factory()

    start = time.perf_counter()
    serial = run_page_loads(factory, trials, timeout=900)
    serial_secs = time.perf_counter() - start

    start = time.perf_counter()
    parallel = run_page_loads(factory, trials, timeout=900, workers=WORKERS)
    parallel_secs = time.perf_counter() - start

    speedup = serial_secs / parallel_secs
    cores = default_workers()
    enforced = fork_available() and cores >= 4 and WORKERS >= 4
    report(
        "parallel_runner",
        "\n".join([
            f"parallel runner micro-benchmark "
            f"({trials} Table-1 loads, {WORKERS} workers, "
            f"{cores} usable cores)",
            f"  serial:    {serial_secs:8.2f} s",
            f"  parallel:  {parallel_secs:8.2f} s",
            f"  speedup:   {speedup:8.2f} x "
            f"({'enforced >= 2.0' if enforced else 'informational'})",
            f"  samples bit-identical: "
            f"{serial.sample.values == parallel.sample.values}",
        ]),
    )

    # Property 1 holds everywhere, including the serial-fallback path.
    assert serial.sample.values == parallel.sample.values
    # Property 2 only where the hardware can express it.
    if enforced:
        assert speedup >= 2.0, (
            f"expected >= 2x speedup at {WORKERS} workers on {cores} "
            f"cores, got {speedup:.2f}x "
            f"(serial {serial_secs:.2f}s, parallel {parallel_secs:.2f}s)"
        )
