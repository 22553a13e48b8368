"""Chaos robustness: PLT degradation and failure taxonomy under faults.

No table in the paper corresponds to this bench — it measures the
reproduction's own fault-injection subsystem (repro.chaos): the same
recorded site is loaded through ReplayShell > LinkShell > ChaosShell >
DelayShell while one fault dimension is swept, and every trial is
classified by :func:`repro.measure.robustness.run_chaos_trials` instead
of asserted clean.

Two degradation curves and one taxonomy:

* outage sweep — a single downlink outage of growing duration; PLT grows
  with the blackout but loads keep completing (TCP retransmission rides
  through);
* burst-loss sweep — a Gilbert–Elliott chain with growing bad-state loss;
* failure taxonomy — a mixed server/DNS fault plan, reported as counts
  per failure class (reset / truncated / dns / ...).
"""

import json
import os

from benchmarks._workloads import bench_journal_dir, scaled, site_store
from repro.chaos import (
    DnsFaultClause,
    FaultPlan,
    GilbertElliottClause,
    OutageClause,
    ServerFaultClause,
)
from repro.core import ShellStack
from repro.corpus import generate_site
from repro.measure import run_chaos_trials
from repro.measure.journal import run_key
from repro.measure.report import format_table

LINK_MBPS = 14.0
ONE_WAY_DELAY = 0.030

OUTAGE_DURATIONS = (0.0, 0.15, 0.3, 0.6)
GE_LOSS_BAD = (0.0, 0.3, 0.6)

# skip=1 everywhere keeps the root document intact (a truncated or
# unresolvable root would hide the rest of the page from the browser);
# the single SERVFAIL breaks exactly one CDN origin so the server-side
# clauses still see traffic on the surviving ones.
TAXONOMY_PLAN = FaultPlan(
    clauses=(
        ServerFaultClause(kind="truncate", skip=1, count=2, after_bytes=256),
        ServerFaultClause(kind="reset", skip=5, count=2, after_bytes=128),
        DnsFaultClause(kind="servfail", skip=1, count=1),
    ),
    name="taxonomy",
)


def bench_site():
    site = generate_site("chaos-bench.com", seed=17, n_origins=4, scale=0.4)
    site_store(site)  # build once; trials reuse the cached store
    return site


def chaos_factory(site, plan):
    store = site_store(site)

    def factory(trial):
        stack = ShellStack.fresh(trial)
        stack.add_replay(store)
        stack.add_link(LINK_MBPS, LINK_MBPS)
        if plan is not None:
            stack.add_chaos(plan)
        stack.add_delay(ONE_WAY_DELAY)
        return stack.sim, stack.load(site.page)

    return factory


def outage_plan(duration):
    if duration == 0.0:
        return None
    return FaultPlan(
        clauses=(OutageClause(direction="downlink", start=0.2,
                              duration=duration),),
        name=f"outage-{duration:g}",
    )


def ge_plan(loss_bad):
    if loss_bad == 0.0:
        return None
    return FaultPlan(
        clauses=(GilbertElliottClause(direction="downlink", p_good_bad=0.05,
                                      p_bad_good=0.4, loss_bad=loss_bad),),
        name=f"ge-{loss_bad:g}",
    )


def _chaos_sweep(label, factory, trials):
    """One chaos sweep, journaled when REPRO_BENCH_JOURNAL is set."""
    journal_dir = bench_journal_dir()
    if journal_dir is None:
        return run_chaos_trials(factory, trials, timeout=120.0)
    os.makedirs(journal_dir, exist_ok=True)
    return run_chaos_trials(
        factory, trials, timeout=120.0,
        journal=os.path.join(journal_dir, f"chaos-{label}.journal.jsonl"),
        run_key=run_key(bench=f"chaos-{label}", trials=trials),
    )


def run_experiment():
    site = bench_site()
    trials = scaled(20, minimum=3)
    outage = {
        duration: _chaos_sweep(
            f"outage-{duration * 1000:g}ms",
            chaos_factory(site, outage_plan(duration)), trials)
        for duration in OUTAGE_DURATIONS
    }
    ge = {
        loss_bad: _chaos_sweep(
            f"ge-{loss_bad:g}",
            chaos_factory(site, ge_plan(loss_bad)), trials)
        for loss_bad in GE_LOSS_BAD
    }
    taxonomy = _chaos_sweep(
        "taxonomy", chaos_factory(site, TAXONOMY_PLAN), trials)
    return outage, ge, taxonomy, trials


def _plt_ms(summary):
    return "-" if summary.plt is None else f"{summary.plt.mean * 1000:.0f}"


def render(outage, ge, taxonomy, trials) -> str:
    outage_rows = [
        [f"{duration:g}", _plt_ms(summary),
         f"{summary.completion_rate:.0%}", f"{summary.success_rate:.0%}"]
        for duration, summary in outage.items()
    ]
    ge_rows = [
        [f"{loss_bad:g}", _plt_ms(summary),
         f"{summary.completion_rate:.0%}", f"{summary.success_rate:.0%}"]
        for loss_bad, summary in ge.items()
    ]
    taxonomy_lines = [
        f"  {name}: {count}"
        for name, count in taxonomy.failure_counts.items() if count
    ]
    parts = [
        format_table(
            ["outage (s)", "PLT (ms)", "completed", "clean"], outage_rows,
            title=f"PLT degradation vs downlink outage duration "
                  f"({trials} loads each)",
        ),
        format_table(
            ["GE loss_bad", "PLT (ms)", "completed", "clean"], ge_rows,
            title="PLT degradation vs Gilbert-Elliott bad-state loss",
        ),
        f"failure taxonomy under {TAXONOMY_PLAN.name!r} "
        f"({taxonomy.trials} loads, "
        f"success rate {taxonomy.success_rate:.0%}):",
        "\n".join(taxonomy_lines) or "  (no failures)",
    ]
    return "\n\n".join(parts)


def test_chaos_robustness(report, obs_dir):
    outage, ge, taxonomy, trials = run_experiment()
    report("chaos_robustness", render(outage, ge, taxonomy, trials))

    baseline = outage[0.0]
    assert baseline.success_rate == 1.0, "fault-free loads must be clean"
    worst_outage = outage[max(OUTAGE_DURATIONS)]
    assert worst_outage.completion_rate > 0, \
        "loads must ride through a sub-second outage"
    assert worst_outage.plt.mean > baseline.plt.mean, \
        "an outage must cost page load time"
    worst_ge = ge[max(GE_LOSS_BAD)]
    assert worst_ge.plt.mean > ge[0.0].plt.mean, \
        "burst loss must cost page load time"
    # The taxonomy run must produce classified failures of the injected
    # kinds (body truncation and DNS breakage are always client-visible).
    assert taxonomy.success_rate < 1.0
    assert taxonomy.failure_counts["truncated"] > 0
    assert taxonomy.failure_counts["dns"] > 0

    if obs_dir:
        os.makedirs(obs_dir, exist_ok=True)
        path = os.path.join(obs_dir, "bench_chaos_robustness.json")
        artifact = {
            "bench": "chaos_robustness",
            "trials": trials,
            "outage": {str(k): v.to_dict() for k, v in outage.items()},
            "ge": {str(k): v.to_dict() for k, v in ge.items()},
            "taxonomy": taxonomy.to_dict(),
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(artifact, handle, indent=2, sort_keys=True)
        print(f"\n[chaos robustness artifact written to {path}]")
