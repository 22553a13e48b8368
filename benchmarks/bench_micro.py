"""Microbenchmarks: raw speed of the substrate's hot paths.

Not a paper artifact — these track the cost of the machinery itself
(events/second, TCP transfer throughput, matcher lookups), which bounds
how large an experiment the toolkit can run. Regressions here quietly
multiply every bench above.
"""

from repro.corpus import generate_site
from repro.http.message import Headers, HttpRequest
from repro.record.matcher import RequestMatcher
from repro.sim import Simulator
from repro.testing import delayed_world
from repro.transport.wire import pieces_len


def test_event_loop_throughput(benchmark):
    """Schedule+dispatch cost of the simulator kernel."""

    def spin():
        sim = Simulator()
        count = [0]

        def tick():
            count[0] += 1
            if count[0] < 20_000:
                sim.schedule(0.001, tick)

        sim.schedule(0.001, tick)
        sim.run()
        return count[0]

    assert benchmark(spin) == 20_000


def test_tcp_bulk_transfer(benchmark):
    """End-to-end cost of moving 2 MB through two full stacks."""

    def transfer():
        world = delayed_world(0.010)
        done = []

        def on_conn(conn):
            conn.on_data = lambda p: conn.send_virtual(2_000_000)
        world.server.listen(None, 80, on_conn)
        conn = world.client.connect(world.server_endpoint)
        total = [0]
        conn.on_established = lambda: conn.send(b"GET")

        def on_data(pieces):
            total[0] += pieces_len(pieces)
            if total[0] >= 2_000_000:
                done.append(True)
        conn.on_data = on_data
        world.sim.run_until(lambda: bool(done), timeout=60)
        return total[0]

    assert benchmark(transfer) == 2_000_000


def test_matcher_lookup(benchmark):
    """Request matching against a large recorded site."""
    site = generate_site("matcher-bench.com", seed=9, n_origins=40,
                         scale=3.0)
    store = site.to_recorded_site()
    matcher = RequestMatcher(store.pairs)
    pair = store.pairs[len(store.pairs) // 2]
    request = HttpRequest("GET", pair.request.uri,
                          Headers([("Host", pair.host)]))

    result = benchmark(matcher.match, request)
    assert result.response.status == 200


def test_page_load_obs_overhead(obs_dir):
    """Cost of turning every repro.obs probe on for a full page load.

    The design target is <5% (probes are handle-capture at construction
    plus list appends on existing events); the assertion backstop is
    deliberately lenient because CI wall-clock noise routinely exceeds
    the target itself. The measured overhead is printed either way.
    """
    import os
    import time

    from repro.core import ShellStack
    from repro.obs import write_artifact

    site = generate_site("obs-overhead.com", seed=11, n_origins=15)
    store = site.to_recorded_site()

    def load(instrument):
        stack = ShellStack.fresh(seed=0, instrument=instrument)
        stack.add_replay(store)
        stack.add_link(14, 14)
        stack.add_delay(0.040)
        result = stack.load(site.page)
        stack.sim.run_until(lambda: result.complete, timeout=600)
        assert result.resources_failed == 0
        return stack.sim

    load(False)
    load(True)  # warm import/allocation caches before timing
    # Interleave the two arms and take the per-arm minimum: CPU
    # frequency drift over a sequential block otherwise shows up as
    # fake overhead on whichever arm runs second.
    plain, instrumented, sim = float("inf"), float("inf"), None
    for _ in range(7):
        started = time.perf_counter()
        load(False)
        plain = min(plain, time.perf_counter() - started)
        started = time.perf_counter()
        sim = load(True)
        instrumented = min(instrumented, time.perf_counter() - started)
    overhead = (instrumented - plain) / plain
    print(
        f"\nobs overhead: plain={plain * 1e3:.1f}ms "
        f"instrumented={instrumented * 1e3:.1f}ms "
        f"overhead={overhead:+.1%} (target <5%, backstop <25%)"
    )
    assert len(sim.metrics.names()) > 0
    if obs_dir:
        path = write_artifact(
            os.path.join(obs_dir, "bench_micro_page_load.jsonl"),
            registry=sim.metrics,
            meta={"bench": "page_load_obs_overhead", "seed": 0},
        )
        print(f"[obs artifact written to {path}]")
    assert overhead < 0.25


def test_page_load_simulation_speed(benchmark):
    """Wall-clock cost of one replayed page load (the unit every
    experiment above multiplies)."""
    from repro.core import ShellStack

    site = generate_site("speed.com", seed=10, n_origins=15)
    store = site.to_recorded_site()

    def load():
        stack = ShellStack.fresh(seed=0)
        stack.add_replay(store)
        stack.add_link(14, 14)
        stack.add_delay(0.040)
        result = stack.load(site.page)
        stack.sim.run_until(lambda: result.complete, timeout=600)
        assert result.resources_failed == 0
        return result.resources_loaded

    assert benchmark(load) == site.page.resource_count
