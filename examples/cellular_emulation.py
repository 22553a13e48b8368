#!/usr/bin/env python3
"""LinkShell with a time-varying cellular trace (the mm-link use case).

Mahimahi ships packet-delivery traces recorded on Verizon/AT&T LTE; here
we generate an equivalent bursty trace, replay a page over it many times,
and show how the varying link turns one page into a distribution of page
load times — the reason trace-driven emulation exists.

Run: python examples/cellular_emulation.py
"""

import random

from repro import (
    Sample, ShellStack, cellular_trace, constant_rate_trace, generate_site,
)
from repro.measure.report import ascii_cdf


def run_trials(store, page, make_link_args, trials=15):
    plts = []
    for trial in range(trials):
        stack = ShellStack.fresh(trial)
        stack.add_replay(store)
        stack.add_link(**make_link_args(trial))
        stack.add_delay(0.030)
        result = stack.load(page)
        stack.sim.run_until(lambda: result.complete, timeout=900)
        assert result.resources_failed == 0, result.errors
        plts.append(result.page_load_time)
    return Sample(plts)


def main():
    site = generate_site("mobile-news.com", seed=3, n_origins=12)
    store = site.to_recorded_site()
    print(f"page: {site.page.resource_count} resources, "
          f"{site.page.total_bytes / 1e6:.2f} MB\n")

    # A fixed 6 Mbit/s link vs an LTE-like link with the same average rate.
    steady = constant_rate_trace(6.0, duration_ms=2000)

    def steady_link(trial):
        return {"uplink": steady, "downlink": steady}

    def lte_link(trial):
        trace = cellular_trace(random.Random(100 + trial),
                               duration_ms=120_000, mean_mbps=6.0,
                               volatility=0.45)
        return {"uplink": trace, "downlink": trace}

    steady_sample = run_trials(store, site.page, steady_link)
    lte_sample = run_trials(store, site.page, lte_link)

    print(ascii_cdf(
        {"steady 6 Mbit/s": steady_sample, "LTE-like 6 Mbit/s": lte_sample},
        title="Page load time CDF: fixed vs cellular link",
    ))
    print()
    for label, sample in (("steady", steady_sample), ("LTE", lte_sample)):
        print(f"{label:>8}: median {sample.median * 1000:.0f} ms, "
              f"p95 {sample.percentile(95) * 1000:.0f} ms, "
              f"spread (p95/p50) "
              f"{sample.percentile(95) / sample.median:.2f}x")
    print("\nThe cellular link's fades stretch the tail: same average "
          "bandwidth, visibly\nworse 95th percentile — which is why "
          "trace-driven emulation exists.")


if __name__ == "__main__":
    main()
