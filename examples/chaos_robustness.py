#!/usr/bin/env python3
"""Fault injection with mm-chaos: measuring robustness, reproducibly.

Real measurement studies hit outages, bursty loss, wedged servers, and
broken resolvers — and can never replay them. repro.chaos makes failures
part of the recorded experiment: a declarative FaultPlan drives every
fault from the simulation's seeded RNG streams, so a "chaotic" load is
exactly as replayable as a clean one.

This example composes the paper's shell-nesting shape with a ChaosShell
inserted between the link and the delay::

    mm-webreplay site/ mm-link 14 14 mm-chaos plan.json mm-delay 30 load

then (1) loads the same page under increasingly hostile plans and
classifies each load's outcome and failed fetches with
``repro.measure.classify_result``, and (2) proves the chaos determinism
contract by replaying one faulty load twice, bit for bit.

Run: python examples/chaos_robustness.py
"""

from repro import FaultPlan, ShellStack, generate_site
from repro.chaos import (
    DnsFaultClause,
    GilbertElliottClause,
    OutageClause,
    ServerFaultClause,
)
from repro.measure import FAILURE_CLASSES, Sample, classify_result

PLANS = {
    "clean": FaultPlan(name="clean"),
    "flaky link": FaultPlan(
        clauses=(
            OutageClause(direction="downlink", start=0.3, duration=0.25),
            GilbertElliottClause(direction="downlink", p_good_bad=0.03,
                                 p_bad_good=0.3, loss_bad=0.6),
        ),
        name="flaky-link",
    ),
    "hostile": FaultPlan(
        clauses=(
            OutageClause(direction="downlink", start=0.3, duration=0.25),
            GilbertElliottClause(direction="downlink", p_good_bad=0.03,
                                 p_bad_good=0.3, loss_bad=0.6),
            ServerFaultClause(kind="truncate", skip=2, count=2,
                              after_bytes=512),
            ServerFaultClause(kind="reset", skip=8, count=1),
            DnsFaultClause(kind="servfail", skip=1, count=1),
        ),
        name="hostile",
    ),
}
TRIALS = 8  # loads per plan


def make_factory(site, store, plan):
    def factory(trial):
        stack = ShellStack.fresh(trial)
        stack.add_replay(store)                    # mm-webreplay
        stack.add_link(14.0, 14.0)                 # mm-link 14 14
        if len(plan):
            stack.add_chaos(plan)                  # mm-chaos plan.json
        stack.add_delay(0.030)                     # mm-delay 30
        return stack.sim, stack.load(site.page)    # load

    return factory


def main():
    site = generate_site("fragile-news.com", seed=7, n_origins=5, scale=0.5)
    store = site.to_recorded_site()
    print(f"page: {site.page.resource_count} resources over "
          f"{len(site.page.origins())} origins\n")

    print(f"{'plan':>12}  {'PLT p50':>8}  {'clean':>6}  {'completed':>9}  "
          f"failure classes")
    for label, plan in PLANS.items():
        plts, clean, counts = [], 0, dict.fromkeys(FAILURE_CLASSES, 0)
        for trial in range(TRIALS):
            sim, result = make_factory(site, store, plan)(trial)
            sim.run_until(lambda: result.complete, timeout=120.0)
            outcome, failures = classify_result(result)
            if result.complete:           # "hung" loads have no PLT
                plts.append(result.page_load_time)
            clean += outcome == "success"
            for cls, count in failures.items():
                counts[cls] += count
        taxonomy = ", ".join(f"{k}:{v}" for k, v in counts.items() if v) \
            or "-"
        plt = (f"{Sample(plts).percentile(50) * 1000:.0f} ms"
               if plts else "-")
        print(f"{label:>12}  {plt:>8}  {clean / TRIALS:>6.0%}  "
              f"{len(plts) / TRIALS:>9.0%}  {taxonomy}")

    # The determinism contract: same seed + same plan => the same faults
    # hit the same packets/requests, bit for bit.
    from repro.analysis.sanitizer import EventStreamDigest

    digests = []
    for _ in range(2):
        sim, result = make_factory(site, store, PLANS["hostile"])(seed := 3)
        digest = EventStreamDigest()
        sim.set_trace(digest)
        sim.run_until(lambda: result.complete, timeout=120.0)
        digests.append(digest.hexdigest)
    assert digests[0] == digests[1]
    print(f"\nreplayed the 'hostile' load twice from seed {seed}: "
          f"digest {digests[0]} both times —\nthe outage, every lost "
          f"packet, the truncated bodies, and the SERVFAIL all replay "
          f"bit-identically.")


if __name__ == "__main__":
    main()
