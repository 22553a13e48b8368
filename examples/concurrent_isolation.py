#!/usr/bin/env python3
"""Isolation: concurrent experiments on one host don't perturb each other.

The paper's §4 isolation claim, demonstrated: three complete shell stacks
(different link speeds) run concurrently in one simulation, their page
loads overlapping in time. Each stack's measurement is bit-identical to
the measurement it produces running alone — namespaces are airtight.

Run: python examples/concurrent_isolation.py
"""

from repro import HostMachine, ShellStack, Simulator, generate_site

SITE = generate_site("isolated.com", seed=8, n_origins=10)
STORE = SITE.to_recorded_site()
CONFIGS = [("slow", 5), ("medium", 14), ("fast", 50)]


def start_load(sim, tag, rate):
    """One more machine on ``sim``, loading the site through its own stack."""
    stack = ShellStack(HostMachine(sim, name=f"host-{tag}"))
    stack.add_replay(STORE)
    stack.add_link(rate, rate)
    stack.add_delay(0.040)
    return stack.load(SITE.page)


def solo_runs():
    plts = {}
    for tag, rate in CONFIGS:
        sim = Simulator(seed=0)
        result = start_load(sim, tag, rate)
        sim.run_until(lambda: result.complete, timeout=900)
        plts[tag] = result.page_load_time
    return plts


def concurrent_run():
    sim = Simulator(seed=0)
    results = {}
    for tag, rate in CONFIGS:
        results[tag] = start_load(sim, tag, rate)
    sim.run_until(lambda: all(r.complete for r in results.values()),
                  timeout=900)
    return {tag: r.page_load_time for tag, r in results.items()}


def main():
    solo = solo_runs()
    together = concurrent_run()
    print(f"{'stack':>8}  {'solo PLT':>10}  {'concurrent PLT':>14}  identical")
    for tag, __ in CONFIGS:
        same = solo[tag] == together[tag]
        print(f"{tag:>8}  {solo[tag] * 1000:>7.2f} ms  "
              f"{together[tag] * 1000:>11.2f} ms  {same}")
    assert all(solo[t] == together[t] for t, _ in CONFIGS)
    print("\nThree emulations shared one host; none saw the others. "
          "(web-page-replay,\nby contrast, rewrites host-wide DNS and "
          "cannot run two configurations at once.)")


if __name__ == "__main__":
    main()
