"""Ablation A2: LinkShell's byte-budget trace semantics.

DESIGN.md decision 2: LinkShell implements Mahimahi's byte-budget
opportunity accounting (an opportunity is an MTU-sized byte budget;
several small packets can share one, a partially-sent packet carries its
progress over) rather than naive one-packet-per-opportunity release.

This bench quantifies the difference on a small-packet workload: DNS
queries, TCP ACKs, and HTTP requests are all far below the MTU, so naive
per-packet release wastes most of each opportunity and understates link
capacity — visibly inflating page load times on slow links.
"""

from benchmarks._workloads import scaled
from repro.core import ShellStack
from repro.corpus import generate_site
from repro.linkem.overhead import OverheadModel
from repro.linkem.queues import DropTailQueue
from repro.linkem.tracelink import TracePipe
from repro.measure import Sample
from repro.measure.report import format_table

SITE = generate_site("ablation.com", seed=88, n_origins=8)
STORE = SITE.to_recorded_site()


class NaiveTracePipe(TracePipe):
    """One whole packet per delivery opportunity, regardless of size."""

    def _opportunity(self) -> None:
        self._wake = None
        self.opportunities_used += 1
        if self._queue:
            self.deliver(self._queue.pop())
        if self._queue:
            self._schedule_wake()


def _run(pipe_class, rate_mbps, seed):
    from repro.linkem.trace import ConstantRateSchedule

    stack = ShellStack.fresh(seed)
    sim = stack.sim
    stack.add_replay(STORE)
    # Hand-build the link shell so the pipe class is swappable.
    from repro.core.base import Shell

    downlink = pipe_class(sim, ConstantRateSchedule(rate_mbps * 1e6, sim.now),
                          DropTailQueue(), OverheadModel.none())
    uplink = pipe_class(sim, ConstantRateSchedule(rate_mbps * 1e6, sim.now),
                        DropTailQueue(), OverheadModel.none())
    shell = Shell(sim, stack.namespace, stack.machine.allocator,
                  "ablation-link",
                  downlink=downlink, uplink=uplink)
    stack.shells.append(shell)
    stack.add_delay(0.040)
    result = stack.load(SITE.page)
    sim.run_until(lambda: result.complete, timeout=900)
    assert result.complete and result.resources_failed == 0
    return result.page_load_time


def run_experiment():
    trials = scaled(10, minimum=3)
    out = {}
    for rate in (1.0, 5.0):
        budget = Sample([_run(TracePipe, rate, s) for s in range(trials)])
        naive = Sample([_run(NaiveTracePipe, rate, s) for s in range(trials)])
        out[rate] = (budget, naive)
    return out


def render(results) -> str:
    rows = []
    for rate, (budget, naive) in sorted(results.items()):
        inflation = (naive.median - budget.median) / budget.median * 100
        rows.append([
            f"{rate:g} Mbit/s",
            f"{budget.median * 1000:.0f} ms",
            f"{naive.median * 1000:.0f} ms",
            f"{inflation:+.1f}%",
        ])
    return format_table(
        ["link", "byte-budget (Mahimahi)", "one-packet-per-opportunity",
         "PLT inflation"],
        rows,
        title="LinkShell trace semantics ablation",
    )


def test_linkshell_trace_semantics(benchmark, report):
    results = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    report("linkshell_ablation", render(results))
    for rate, (budget, naive) in results.items():
        # Naive accounting wastes opportunity budget on small packets:
        # it can only be slower.
        assert naive.median > budget.median
