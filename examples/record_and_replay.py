#!/usr/bin/env python3
"""The full Mahimahi workflow: record a live page, then replay it.

1. A synthetic "live web" serves a multi-origin page, each origin behind
   its own RTT (the paper's Figure 1a world).
2. A browser inside RecordShell loads the page; the transparent MITM proxy
   records every request-response pair.
3. The recording is saved to disk in the one-file-per-pair format and
   loaded back.
4. A browser inside ReplayShell loads the same page from the recording,
   with DelayShell emulating the RTT measured during recording — the
   Figure 3 methodology.

Run: python examples/record_and_replay.py
"""

import os
import tempfile

from repro import (
    HostMachine, Internet, RecordedSite, ShellStack, Simulator, generate_site,
)


def record(site, seed=0):
    """Load ``site`` from the live web inside RecordShell."""
    sim = Simulator(seed=seed)
    internet = Internet(sim)
    internet.install_site(site)
    machine = HostMachine(sim)
    internet.attach_machine(machine)

    store = RecordedSite(site.name)
    stack = ShellStack(machine)
    stack.add_record(store)

    # Nothing replays here, so the browser resolves on the public Internet.
    result = stack.load(site.page, resolver=internet.resolver_endpoint)
    sim.run_until(lambda: result.complete, timeout=600)
    assert result.resources_failed == 0, result.errors
    main_host = f"www.{site.name}"
    return store, result, internet.min_rtt(main_host)


def replay(store, page, min_rtt, seed=0):
    """Load ``page`` from the recording, emulating the recorded RTT."""
    stack = ShellStack.fresh(seed)
    stack.add_replay(store)
    stack.add_delay(min_rtt / 2)   # mm-delay with the recorded min RTT
    result = stack.load(page)
    stack.sim.run_until(lambda: result.complete, timeout=600)
    assert result.resources_failed == 0, result.errors
    return result


def main():
    site = generate_site("newspaper.com", seed=11, n_origins=15)
    print(f"live site: {site.page.resource_count} resources on "
          f"{site.origin_count} origins\n")

    store, live_result, min_rtt = record(site)
    print(f"recorded {len(store)} pairs through the MITM proxy")
    print(f"live-web page load time: "
          f"{live_result.page_load_time * 1000:.0f} ms "
          f"(min RTT to main origin: {min_rtt * 1000:.0f} ms)")

    with tempfile.TemporaryDirectory() as tmp:
        directory = os.path.join(tmp, "newspaper.com")
        store.save(directory)
        files = len(os.listdir(directory))
        print(f"saved to {directory} ({files} files)")
        loaded = RecordedSite.load(directory)

    replay_result = replay(loaded, site.page, min_rtt)
    print(f"replayed page load time: "
          f"{replay_result.page_load_time * 1000:.0f} ms")

    diff = (replay_result.page_load_time - live_result.page_load_time) \
        / live_result.page_load_time * 100
    print(f"\nreplay vs live difference: {diff:+.1f}% "
          "(the paper's Figure 3 found +7.9% at the median)")


if __name__ == "__main__":
    main()
