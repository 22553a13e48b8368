"""Ablation A5: queue disciplines and bufferbloat on a slow link.

mm-link's default infinite drop-tail queue reproduces bufferbloat: a bulk
flow fills the buffer and every interactive exchange behind it inherits
seconds of queueing delay. mm-link also ships CoDel, which holds the
standing queue near its 5 ms target.

Measured here, on a 3 Mbit/s link with a background bulk download:

* the RTT an interactive probe (fresh TCP handshake) experiences;
* the page load time of a site sharing the link with the bulk flow.
"""

from benchmarks._workloads import scaled
from repro.core import ShellStack
from repro.corpus import generate_site
from repro.linkem import CoDelQueue, DropTailQueue
from repro.measure import Sample
from repro.measure.report import format_table
from repro.net.address import Endpoint

SITE = generate_site("bloated.com", seed=123, n_origins=8, scale=0.7)
STORE = SITE.to_recorded_site()

DISCIPLINES = [
    ("drop-tail (unbounded)", lambda: DropTailQueue()),
    ("drop-tail (60 pkts)", lambda: DropTailQueue(max_packets=60)),
    ("CoDel", lambda: CoDelQueue()),
]


def _measure(make_queue, seed):
    stack = ShellStack.fresh(seed)
    sim = stack.sim
    stack.add_replay(STORE)
    stack.add_link(3.0, 3.0, downlink_queue=make_queue(),
                   uplink_queue=make_queue())
    stack.add_delay(0.020)

    # Background bulk download from a server in the replay namespace.
    replay = stack.shells[0]
    bulk_addr = replay.namespace.any_local_address()
    replay.transport.listen(bulk_addr, 9000, lambda conn: setattr(
        conn, "on_data", lambda p: conn.send_virtual(30_000_000)))
    bulk = stack.transport.connect(Endpoint(bulk_addr, 9000))
    bulk.on_established = lambda: bulk.send(b"G")
    bulk.on_data = lambda p: None
    sim.run_for(4.0)  # let the standing queue establish

    # Interactive probe: a fresh handshake across the loaded link.
    replay.transport.listen(bulk_addr, 9001, lambda conn: None)
    probe = stack.transport.connect(Endpoint(bulk_addr, 9001))
    probe_done = []
    probe.on_established = lambda: probe_done.append(sim.now)
    probe_start = sim.now
    sim.run_until(lambda: bool(probe_done), timeout=120)
    probe_rtt = probe_done[0] - probe_start

    # Page load sharing the link with the bulk flow.
    result = stack.load(SITE.page)
    sim.run_until(lambda: result.complete, timeout=900)
    assert result.complete and result.resources_failed == 0
    return probe_rtt, result.page_load_time


def run_experiment():
    trials = scaled(8, minimum=3)
    out = {}
    for label, make_queue in DISCIPLINES:
        rtts, plts = [], []
        for seed in range(trials):
            rtt, plt = _measure(make_queue, seed)
            rtts.append(rtt)
            plts.append(plt)
        out[label] = (Sample(rtts), Sample(plts))
    return out


def render(results) -> str:
    rows = [
        [label,
         f"{rtts.median * 1000:.0f} ms",
         f"{plts.median * 1000:.0f} ms"]
        for label, (rtts, plts) in results.items()
    ]
    return format_table(
        ["queue discipline", "probe RTT under load",
         "PLT sharing the link"],
        rows,
        title="Bufferbloat ablation: 3 Mbit/s link with a background "
              "bulk flow",
    )


def test_bufferbloat_disciplines(benchmark, report):
    results = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    report("bufferbloat", render(results))
    unbounded_rtt = results["drop-tail (unbounded)"][0].median
    codel_rtt = results["CoDel"][0].median
    # CoDel must hold interactive latency an order of magnitude below the
    # bloated baseline, and page loads behind the bulk flow must improve.
    assert codel_rtt < unbounded_rtt / 5
    assert (results["CoDel"][1].median
            < results["drop-tail (unbounded)"][1].median)