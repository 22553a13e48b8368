#!/usr/bin/env python3
"""Why multi-origin preservation matters (the paper's §4 headline).

Loads one page through ReplayShell twice per network configuration — once
with one server per recorded origin (faithful replay), once with a single
server for everything (the web-page-replay architecture) — and reports the
inflation, a single-page miniature of the paper's Table 2.

Run: python examples/multiorigin_study.py
"""

from repro import Sample, ShellStack, generate_site
from repro.measure.report import format_table


def measure(store, page, single_server, rate, delay, trials=3):
    plts = []
    for trial in range(trials):
        stack = ShellStack.fresh(trial)
        stack.add_replay(store, single_server=single_server)
        stack.add_link(rate, rate)
        stack.add_delay(delay)
        result = stack.load(page)
        stack.sim.run_until(lambda: result.complete, timeout=900)
        assert result.resources_failed == 0, result.errors
        plts.append(result.page_load_time)
    return Sample(plts)


def main():
    site = generate_site("shop.com", seed=21, n_origins=25, scale=1.5)
    store = site.to_recorded_site()
    print(f"page: {site.page.resource_count} resources across "
          f"{site.origin_count} origin servers\n")

    rows = []
    for rate in (1, 14, 25):
        for delay in (0.030, 0.120):
            multi = measure(store, site.page, False, rate, delay)
            single = measure(store, site.page, True, rate, delay)
            inflation = (single.median - multi.median) / multi.median * 100
            rows.append([
                f"{rate} Mbit/s",
                f"{delay * 1000:.0f} ms",
                f"{multi.median * 1000:.0f} ms",
                f"{single.median * 1000:.0f} ms",
                f"{inflation:+.1f}%",
            ])
    print(format_table(
        ["link", "delay", "multi-origin PLT", "single-server PLT",
         "inflation"],
        rows,
        title="Single-server replay vs faithful multi-origin replay",
    ))
    print("\nThe paper's claim: ignoring the multi-origin structure is "
          "cheap at 1 Mbit/s\nbut misstates page load times significantly "
          "at broadband speeds.")


if __name__ == "__main__":
    main()
