#!/usr/bin/env python3
"""The paper's motivating use case: evaluating a multiplexing protocol.

The paper opens with "network protocol designers who seek to understand
the application-level impact of new multiplexing protocols" — SPDY, in
2014. This example replays the same recorded site over HTTP/1.1 (six
parallel connections per host) and over a SPDY-style multiplexed transport
(one connection per origin, concurrent streams), under conditions where
each is known to shine or suffer.

Run: python examples/multiplexing_protocols.py
"""

from repro import ShellStack, generate_site
from repro.measure.report import format_table


def load(store, page, protocol, rate, delay, loss=0.0, seed=0):
    stack = ShellStack.fresh(seed)
    stack.add_replay(store, protocol=protocol)
    if loss:
        stack.add_loss(downlink_loss=loss, uplink_loss=loss)
    stack.add_link(rate, rate)
    stack.add_delay(delay)
    result = stack.load(page)  # the browser speaks the replay's protocol
    stack.sim.run_until(lambda: result.complete, timeout=900)
    assert result.resources_failed == 0, result.errors
    return result


def main():
    # A consolidated page: few origins, deep per-origin request queues —
    # the workload multiplexing was invented for.
    site = generate_site("apponly.com", seed=5, n_origins=3, scale=1.2)
    store = site.to_recorded_site()
    print(f"page: {site.page.resource_count} resources on "
          f"{site.origin_count} origins\n")

    rows = []
    for label, rate, delay, loss in [
        ("broadband, clean", 10, 0.050, 0.0),
        ("long RTT, clean", 10, 0.300, 0.0),
        ("broadband, 1% loss", 10, 0.050, 0.01),
    ]:
        h1 = load(store, site.page, "http/1.1", rate, delay, loss)
        mux = load(store, site.page, "mux", rate, delay, loss)
        change = (mux.page_load_time - h1.page_load_time) \
            / h1.page_load_time * 100
        rows.append([
            label,
            f"{h1.page_load_time * 1000:.0f} ms "
            f"({h1.connections_opened} conns)",
            f"{mux.page_load_time * 1000:.0f} ms "
            f"({mux.connections_opened} conns)",
            f"{change:+.1f}%",
        ])
    print(format_table(
        ["network", "HTTP/1.1", "multiplexed", "mux vs 1.1"], rows,
        title="Same recorded page, two protocols, three networks",
    ))
    print("\nMultiplexing removes per-connection request queues (wins on "
          "clean links),\nbut one connection is one loss domain (loses "
          "badly at 1% loss) — measured,\nnot asserted, exactly what the "
          "toolkit is for.")


if __name__ == "__main__":
    main()
