"""Extension study: the paper's motivating use case, executed.

The paper's first sentence of motivation: Mahimahi answers "how do
techniques that aim to make the Web faster perform over different network
conditions" — naming "network protocol designers who seek to understand
the application-level impact of new multiplexing protocols" (SPDY, in
2014).

This bench runs that study on the reproduction: recorded sites replayed
over HTTP/1.1 (six connections per host) and over the SPDY-style
multiplexed transport (one connection per origin), across an RTT sweep
and a lossy-link configuration, on both a sharded page and a consolidated
single-origin one. The reproduced shape matches the SPDY literature's
mixed empirical record: large, RTT-amplified wins on consolidated pages
(deep per-origin request queues collapse into concurrent streams); little
effect on sharded pages, whose 16x6 connection pools leave no queues to
collapse and whose aggregate congestion windows out-ramp one multiplexed
connection; and dramatic losses on lossy links, where one connection is
one shared loss domain.
"""

from benchmarks._workloads import scaled
from repro.browser import BrowserConfig
from repro.core import ShellStack
from repro.corpus import generate_site
from repro.measure import Sample
from repro.measure.report import format_table

#: A typical sharded 2014 page (many origins, few objects each) and a
#: consolidated one (few origins, deep per-origin queues) — multiplexing
#: theory predicts little gain on the former and large gain on the latter,
#: which is precisely what SPDY deployments reported.
SHARDED = generate_site("muxstudy.com", seed=99, n_origins=16, scale=1.2)
CONSOLIDATED = generate_site("muxapp.com", seed=100, n_origins=1, scale=1.2)
SITES = [("sharded", SHARDED), ("consolidated", CONSOLIDATED)]
STORES = {label: site.to_recorded_site() for label, site in SITES}

CONFIGS = [
    ("10 Mbit/s, 10 ms", 10.0, 0.010, 0.0),
    ("10 Mbit/s, 50 ms", 10.0, 0.050, 0.0),
    ("10 Mbit/s, 150 ms", 10.0, 0.150, 0.0),
    ("10 Mbit/s, 300 ms", 10.0, 0.300, 0.0),
    ("10 Mbit/s, 50 ms, 1% loss", 10.0, 0.050, 0.01),
]


def _run(site_label, protocol, rate, delay, loss, seed):
    site = dict(SITES)[site_label]
    stack = ShellStack.fresh(seed)
    stack.add_replay(STORES[site_label], protocol=protocol)
    if loss:
        stack.add_loss(downlink_loss=loss, uplink_loss=loss)
    stack.add_link(rate, rate)
    stack.add_delay(delay)
    result = stack.load(site.page, config=BrowserConfig(protocol=protocol))
    stack.sim.run_until(lambda: result.complete, timeout=900)
    assert result.complete and result.resources_failed == 0
    return result.page_load_time


def run_experiment():
    trials = scaled(12, minimum=3)
    out = {}
    for site_label, __ in SITES:
        for label, rate, delay, loss in CONFIGS:
            http1 = Sample([_run(site_label, "http/1.1", rate, delay, loss, s)
                            for s in range(trials)])
            mux = Sample([_run(site_label, "mux", rate, delay, loss, s)
                          for s in range(trials)])
            out[(site_label, label)] = (http1, mux)
    return out


def render(results) -> str:
    rows = []
    for (site_label, label), (http1, mux) in results.items():
        change = (mux.median - http1.median) / http1.median * 100
        rows.append([
            site_label,
            label,
            f"{http1.median * 1000:.0f} ms",
            f"{mux.median * 1000:.0f} ms",
            f"{change:+.1f}%",
        ])
    return format_table(
        ["page", "network", "HTTP/1.1 PLT", "multiplexed PLT",
         "mux vs 1.1"],
        rows,
        title="Multiplexing-protocol study (the paper's motivating "
              "use case)",
    )


def test_multiplexing_study(benchmark, report):
    results = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    report("multiplexing_study", render(results))
    gain = {
        key: (http1.median - mux.median) / http1.median
        for key, (http1, mux) in results.items()
    }
    # The SPDY-era findings, as this substrate reproduces them:
    # 1. Workload decides: the consolidated page (deep per-origin request
    #    queues) benefits clearly; the sharded page sees little.
    assert (gain[("consolidated", "10 Mbit/s, 50 ms")]
            > gain[("sharded", "10 Mbit/s, 50 ms")])
    assert gain[("consolidated", "10 Mbit/s, 50 ms")] > 0.05
    # 2. Each request round trip saved is worth one RTT, so the
    #    consolidated page's advantage grows with RTT.
    assert (gain[("consolidated", "10 Mbit/s, 300 ms")]
            > gain[("consolidated", "10 Mbit/s, 50 ms")])
    # 3. Loss is where multiplexing pays: one connection is one shared
    #    loss domain, and a lossy link erases (here: reverses) the gain.
    assert (gain[("consolidated", "10 Mbit/s, 50 ms, 1% loss")]
            < gain[("consolidated", "10 Mbit/s, 50 ms")])
    assert gain[("consolidated", "10 Mbit/s, 50 ms, 1% loss")] < 0.0
