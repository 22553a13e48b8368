#!/usr/bin/env python3
"""Beyond browsers: replaying a mobile app's HTTP traffic (paper §4).

Mahimahi's shells replay *any* HTTP application, not just browsers — the
paper suggests measuring mobile apps through an emulator. Here a mobile-
app-style API client (auth, feed, per-item fan-out — no page model, no
browser) runs its launch sequence against a replayed backend under the
network profiles a phone actually sees.

Run: python examples/beyond_browsers.py
"""

from repro.apps import ApiClient, ApiWorkload, make_api_site
from repro.core import ShellStack
from repro.measure.report import format_table

PROFILES = [
    ("WiFi", 25.0, 0.010),
    ("LTE", 10.0, 0.040),
    ("3G", 1.5, 0.120),
    ("EDGE", 0.3, 0.300),
]


def launch_once(store, workload, rate, delay, loss=0.0, seed=0):
    stack = ShellStack.fresh(seed)
    sim = stack.sim
    stack.add_replay(store)
    if loss:
        stack.add_loss(downlink_loss=loss, uplink_loss=loss)
    stack.add_link(rate, rate)
    stack.add_delay(delay)
    app = ApiClient(sim, stack.transport, stack.resolver_endpoint, workload)
    app.launch()
    sim.run_until(lambda: app.done, timeout=900)
    assert not app.errors, app.errors
    return app


def main():
    workload = ApiWorkload(feed_items=12)
    store = make_api_site(workload)
    print(f"app backend: {len(store)} recorded API responses on "
          f"{len(store.origins())} origins\n")

    rows = []
    for label, rate, delay in PROFILES:
        app = launch_once(store, workload, rate, delay)
        lossy = launch_once(store, workload, rate, delay, loss=0.01)
        rows.append([
            label, f"{rate:g} Mbit/s", f"{delay * 1000:.0f} ms",
            f"{app.time_to_interactive * 1000:.0f} ms",
            f"{lossy.time_to_interactive * 1000:.0f} ms",
        ])
    print(format_table(
        ["profile", "link", "one-way delay", "time to interactive",
         "TTI @1% loss"],
        rows,
        title="App launch sequence through mm-webreplay / mm-loss / "
              "mm-link / mm-delay",
    ))
    print("\nNo browser anywhere in this measurement — the same shells "
          "replay any\nHTTP application transparently.")


if __name__ == "__main__":
    main()
