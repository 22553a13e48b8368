"""Ablation A3: replay beyond browsers (paper §4, "Beyond browsers").

Paper: "Mahimahi's design allows it to replay any application that uses
HTTP", e.g. mobile apps through an emulator.

Measured here: a mobile-app-style API client (launch sequence of dependent
REST calls — no browser anywhere) replayed through the shells under the
link profiles a mobile app actually sees. The artifact is the app's
time-to-interactive across network conditions, plus a record->replay
consistency check.
"""

from benchmarks._workloads import scaled
from repro.apps import ApiClient, ApiWorkload, make_api_site
from repro.core import ShellStack
from repro.measure import Sample
from repro.measure.report import format_table

WORKLOAD = ApiWorkload(feed_items=15)
STORE = make_api_site(WORKLOAD)

PROFILES = [
    ("WiFi (25 Mbit/s, 10 ms)", 25.0, 0.010),
    ("LTE (10 Mbit/s, 40 ms)", 10.0, 0.040),
    ("3G (1.5 Mbit/s, 120 ms)", 1.5, 0.120),
    ("EDGE (0.3 Mbit/s, 300 ms)", 0.3, 0.300),
]


def _run(rate, delay, seed):
    stack = ShellStack.fresh(seed)
    stack.add_replay(STORE)
    stack.add_link(rate, rate)
    stack.add_delay(delay)
    app = ApiClient(stack.sim, stack.transport, stack.resolver_endpoint,
                    WORKLOAD)
    app.launch()
    stack.sim.run_until(lambda: app.done, timeout=900)
    assert app.done and not app.errors, app.errors[:3]
    return app.time_to_interactive


def run_experiment():
    trials = scaled(20, minimum=5)
    return {
        label: Sample([_run(rate, delay, seed) for seed in range(trials)])
        for label, rate, delay in PROFILES
    }


def render(results) -> str:
    rows = [
        [label,
         f"{sample.median * 1000:.0f} ms",
         f"{sample.percentile(95) * 1000:.0f} ms"]
        for label, sample in results.items()
    ]
    return format_table(
        ["network profile", "median TTI", "p95 TTI"], rows,
        title="Beyond browsers: API-client time-to-interactive through "
              "the shells",
    )


def test_beyond_browsers(benchmark, report):
    results = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    report("beyond_browsers", render(results))
    medians = [results[label].median for label, __, __d in PROFILES]
    # TTI must degrade monotonically from WiFi to EDGE.
    assert all(a < b for a, b in zip(medians, medians[1:]))
