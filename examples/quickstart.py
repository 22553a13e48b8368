#!/usr/bin/env python3
"""Quickstart: replay a website under emulated network conditions.

The 60-second tour of the toolkit: generate a synthetic multi-origin site
(standing in for a recorded one), replay it inside ReplayShell nested in
LinkShell and DelayShell — the programmatic equivalent of::

    mm-webreplay site/ mm-link 14 14 mm-delay 40 load

— and measure the page load time under a few network conditions.

Run: python examples/quickstart.py
"""

from repro import ShellStack, generate_site


def load_page(store, page, rate_mbps, one_way_delay_s, seed=0):
    """One page load through replay > link > delay; returns the PLT."""
    stack = ShellStack.fresh(seed)
    stack.add_replay(store)                       # mm-webreplay
    stack.add_link(rate_mbps, rate_mbps)          # mm-link
    stack.add_delay(one_way_delay_s)              # mm-delay
    result = stack.load(page)                     # load
    stack.sim.run_until(lambda: result.complete, timeout=600)
    assert result.resources_failed == 0, result.errors
    return result


def main():
    # A site the paper's corpus could contain: ~20 origin servers,
    # a root document, stylesheets, scripts, images, fonts, XHRs.
    site = generate_site("example.com", seed=1, n_origins=20)
    store = site.to_recorded_site()
    print(f"site: {site.name} — {site.page.resource_count} resources, "
          f"{site.page.total_bytes / 1e6:.2f} MB, "
          f"{site.origin_count} origin servers\n")

    print(f"{'link':>10}  {'one-way delay':>13}  {'page load time':>14}")
    for rate, delay in [(1, 0.030), (14, 0.030), (25, 0.030),
                        (14, 0.120), (14, 0.300)]:
        result = load_page(store, site.page, rate, delay)
        print(f"{rate:>7} Mbit/s  {delay * 1000:>10.0f} ms  "
              f"{result.page_load_time * 1000:>11.0f} ms")

    print("\nSame seed, same conditions => bit-identical measurement:")
    a = load_page(store, site.page, 14, 0.030, seed=7).page_load_time
    b = load_page(store, site.page, 14, 0.030, seed=7).page_load_time
    print(f"  run 1: {a * 1000:.3f} ms\n  run 2: {b * 1000:.3f} ms "
          f"(identical: {a == b})")


if __name__ == "__main__":
    main()
