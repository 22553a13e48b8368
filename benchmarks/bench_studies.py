"""Every page-load study, run at bench scale and rendered: one row each.

The six paper claims are ``repro.scenarios.CLAIMS`` entries, which
tier-1 also runs at a seconds-long size. A2–A6 are not paper claims
(their worlds: a naive link, an API client, multiplexing, a bulk flow
with a probe, fault plans), so they are declared here, in the same
shape, and only the benches run them. Each row runs ``scaled(trials,
floor)`` trials through ``measure_claim`` with the
``benchmarks/knobs.py`` settings, writes
``benchmarks/results/<name>.txt`` and fails on any statement its check
reports.
"""

import math
from typing import Dict, List, Tuple

import pytest

from benchmarks.knobs import bench_journal, bench_workers, scaled
from repro.apps import ApiClient, ApiWorkload, make_api_site
from repro.chaos import (
    DnsFaultClause, FaultPlan, GilbertElliottClause, OutageClause,
    ServerFaultClause,
)
from repro.core import ShellStack
from repro.core.base import Shell
from repro.corpus import generate_site
from repro.errors import ReproError
from repro.linkem import CoDelQueue, DropTailQueue
from repro.linkem.trace import ConstantRateSchedule
from repro.linkem.tracelink import TracePipe
from repro.measure import FAILURE_CLASSES, Sample, classify_result
from repro.measure.report import format_table
from repro.net.address import Endpoint
from repro.scenarios import (
    CLAIMS, T2_DELAYS, Claim, Miss, Samples, measure_claim, misses,
    page_load_time, t2_cell,
)


# -- A2: LinkShell's byte-budget trace semantics (DESIGN decision 2) ---- #

class NaiveTracePipe(TracePipe):
    """One whole packet per delivery opportunity, regardless of size."""

    def _opportunity(self) -> None:
        self._wake = None
        self.opportunities_used += 1
        if self._queue:
            self.deliver(self._queue.pop())
        if self._queue:
            self._schedule_wake()


_A2_PIPES = (("byte-budget", TracePipe), ("naive", NaiveTracePipe))


def _trace_semantics_sweep(trials):
    """Trial ``i`` loads one site over 1 and 5 Mbit/s links built with
    Mahimahi's byte-budget opportunities and with naive release: small
    packets (ACKs, DNS, requests) waste whole naive opportunities."""
    site = generate_site("ablation.com", seed=88, n_origins=8)
    store = site.to_recorded_site()

    def link(pipe_class, rate):
        def shells(stack):
            stack.add_replay(store)
            # Hand-built link shell, so the pipe class is swappable.
            sim = stack.sim
            downlink, uplink = (
                pipe_class(sim, ConstantRateSchedule(rate * 1e6, sim.now),
                           DropTailQueue(), service_time=0.0)
                for __ in range(2))
            stack.shells.append(Shell(
                sim, stack.namespace, stack.machine.allocator,
                "ablation-link", downlink=downlink, uplink=uplink))
            stack.add_delay(0.040)
        return shells

    def trial(i):
        return {f"{rate:g} Mbit/s {label}":
                page_load_time(i, site.page, link(pipe_class, rate))
                for rate in (1.0, 5.0) for label, pipe_class in _A2_PIPES}

    return trial


def _trace_semantics_check(samples: Samples) -> List[Miss]:
    # Naive accounting wastes opportunity budget: it can only be slower.
    return misses(*(
        (f"{rate:g} Mbit/s: naive minus byte-budget median PLT",
         samples[f"{rate:g} Mbit/s naive"].median
         - samples[f"{rate:g} Mbit/s byte-budget"].median, ">", 0.0)
        for rate in (1.0, 5.0)))


def _trace_semantics_render(samples: Samples) -> str:
    rows = []
    for rate in (1.0, 5.0):
        budget, naive = (samples[f"{rate:g} Mbit/s {label}"]
                         for label, __ in _A2_PIPES)
        inflation = (naive.median - budget.median) / budget.median * 100
        rows.append([f"{rate:g} Mbit/s", f"{budget.median * 1000:.0f} ms",
                     f"{naive.median * 1000:.0f} ms", f"{inflation:+.1f}%"])
    return format_table(
        ["link", "byte-budget (Mahimahi)", "one-packet-per-opportunity",
         "PLT inflation"],
        rows,
        title="LinkShell trace semantics ablation",
    )


# -- A3: replay beyond browsers (paper §4) ------------------------------ #

_A3_PROFILES = (
    ("WiFi (25 Mbit/s, 10 ms)", 25.0, 0.010),
    ("LTE (10 Mbit/s, 40 ms)", 10.0, 0.040),
    ("3G (1.5 Mbit/s, 120 ms)", 1.5, 0.120),
    ("EDGE (0.3 Mbit/s, 300 ms)", 0.3, 0.300),
)


def _api_client_sweep(trials):
    """Trial ``i`` replays a mobile-app-style launch (dependent REST
    calls, no browser) through the shells under four link profiles."""
    workload = ApiWorkload(feed_items=15)
    store = make_api_site(workload)

    def time_to_interactive(seed, rate, delay):
        stack = ShellStack.fresh(seed)
        stack.add_replay(store)
        stack.add_link(rate, rate)
        stack.add_delay(delay)
        app = ApiClient(stack.sim, stack.transport, stack.resolver_endpoint,
                        workload)
        app.launch()
        stack.sim.run_until(lambda: app.done, timeout=900)
        if not app.done or app.errors:
            raise ReproError(f"API client trial {seed}: {app.errors[:3]}")
        return app.time_to_interactive

    def trial(i):
        return {label: time_to_interactive(i, rate, delay)
                for label, rate, delay in _A3_PROFILES}

    return trial


def _api_client_check(samples: Samples) -> List[Miss]:
    # TTI degrades monotonically from WiFi to EDGE.
    labels = [label for label, __, __d in _A3_PROFILES]
    return misses(*(
        (f"median TTI, {slow} minus {fast}",
         samples[slow].median - samples[fast].median, ">", 0.0)
        for fast, slow in zip(labels, labels[1:])))


def _api_client_render(samples: Samples) -> str:
    rows = [
        [label, f"{samples[label].median * 1000:.0f} ms",
         f"{samples[label].percentile(95) * 1000:.0f} ms"]
        for label, __, __d in _A3_PROFILES
    ]
    return format_table(
        ["network profile", "median TTI", "p95 TTI"], rows,
        title="Beyond browsers: API-client time-to-interactive through "
              "the shells",
    )


# -- A4: multiplexing protocols (the paper's motivating use case) ------- #

_A4_CONFIGS = (
    ("10 Mbit/s, 10 ms", 10.0, 0.010, 0.0),
    ("10 Mbit/s, 50 ms", 10.0, 0.050, 0.0),
    ("10 Mbit/s, 150 ms", 10.0, 0.150, 0.0),
    ("10 Mbit/s, 300 ms", 10.0, 0.300, 0.0),
    ("10 Mbit/s, 50 ms, 1% loss", 10.0, 0.050, 0.01),
)
_A4_PAGES = ("sharded", "consolidated")
_A4_PROTOCOLS = ("http/1.1", "mux")


def _multiplexing_sweep(trials):
    """Trial ``i`` loads a sharded page (16 origins, few objects each)
    and a consolidated one (one origin, deep request queues) over
    HTTP/1.1 and over SPDY-style multiplexing, across RTT and loss."""
    sites = {
        "sharded": generate_site("muxstudy.com", seed=99, n_origins=16,
                                 scale=1.2),
        "consolidated": generate_site("muxapp.com", seed=100, n_origins=1,
                                      scale=1.2),
    }
    stores = {page: site.to_recorded_site() for page, site in sites.items()}

    def load(i, page, protocol, rate, delay, loss):
        def shells(stack):
            stack.add_replay(stores[page], protocol=protocol)
            if loss:
                stack.add_loss(downlink_loss=loss, uplink_loss=loss)
            stack.add_link(rate, rate)
            stack.add_delay(delay)

        return page_load_time(i, sites[page].page, shells)

    def trial(i):
        return {f"{page} | {label} | {protocol}":
                load(i, page, protocol, *network)
                for page in _A4_PAGES for label, *network in _A4_CONFIGS
                for protocol in _A4_PROTOCOLS}

    return trial


def _mux_gain(samples: Samples, page: str, label: str) -> float:
    http1, mux = (samples[f"{page} | {label} | {protocol}"].median
                  for protocol in _A4_PROTOCOLS)
    return (http1 - mux) / http1


def _multiplexing_check(samples: Samples) -> List[Miss]:
    # The SPDY-era findings as this substrate reproduces them: the
    # consolidated page gains clearly and the sharded one little; each
    # request round trip saved is worth one RTT, so the gain grows with
    # RTT; and one connection is one shared loss domain, so a lossy link
    # reverses the gain.
    gain = {(page, label): _mux_gain(samples, page, label)
            for page in _A4_PAGES for label, *__ in _A4_CONFIGS}
    base = gain[("consolidated", "10 Mbit/s, 50 ms")]
    lossy = gain[("consolidated", "10 Mbit/s, 50 ms, 1% loss")]
    return misses(
        ("50 ms gain, consolidated minus sharded",
         base - gain[("sharded", "10 Mbit/s, 50 ms")], ">", 0.0),
        ("consolidated gain at 50 ms", base, ">", 0.05),
        ("consolidated gain, 300 ms minus 50 ms",
         gain[("consolidated", "10 Mbit/s, 300 ms")] - base, ">", 0.0),
        ("consolidated gain at 50 ms, 1 % loss minus lossless",
         lossy - base, "<", 0.0),
        ("consolidated gain at 50 ms, 1 % loss", lossy, "<", 0.0),
    )


def _multiplexing_render(samples: Samples) -> str:
    rows = []
    for page in _A4_PAGES:
        for label, *__ in _A4_CONFIGS:
            http1, mux = (samples[f"{page} | {label} | {protocol}"]
                          for protocol in _A4_PROTOCOLS)
            change = (mux.median - http1.median) / http1.median * 100
            rows.append([page, label, f"{http1.median * 1000:.0f} ms",
                         f"{mux.median * 1000:.0f} ms", f"{change:+.1f}%"])
    return format_table(
        ["page", "network", "HTTP/1.1 PLT", "multiplexed PLT",
         "mux vs 1.1"],
        rows,
        title="Multiplexing-protocol study (the paper's motivating "
              "use case)",
    )


# -- A5: queue disciplines and bufferbloat ------------------------------ #

_A5_DISCIPLINES = (
    ("drop-tail (unbounded)", lambda: DropTailQueue()),
    ("drop-tail (60 pkts)", lambda: DropTailQueue(max_packets=60)),
    ("CoDel", lambda: CoDelQueue()),
)


def _bufferbloat_sweep(trials):
    """Trial ``i``, per queue discipline on a 3 Mbit/s link carrying a
    background bulk download: the RTT of a fresh handshake across the
    loaded link, then the PLT of a site sharing it."""
    site = generate_site("bloated.com", seed=123, n_origins=8, scale=0.7)
    store = site.to_recorded_site()

    def measure(make_queue, seed):
        stack = ShellStack.fresh(seed)
        sim = stack.sim
        stack.add_replay(store)
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
        if not probe_done:
            raise ReproError(f"bufferbloat trial {seed}: probe never "
                             f"connected")

        result = stack.load(site.page)
        sim.run_until(lambda: result.complete, timeout=900)
        if not result.complete or result.resources_failed:
            raise ReproError(f"bufferbloat trial {seed}: page load failed")
        return probe_done[0] - probe_start, result.page_load_time

    def trial(i):
        row = {}
        for label, make_queue in _A5_DISCIPLINES:
            row[f"{label} RTT"], row[f"{label} PLT"] = measure(make_queue, i)
        return row

    return trial


def _bufferbloat_check(samples: Samples) -> List[Miss]:
    # CoDel holds interactive latency an order of magnitude below the
    # bloated baseline, and page loads behind the bulk flow improve.
    return misses(
        ("CoDel / unbounded drop-tail median probe RTT",
         samples["CoDel RTT"].median
         / samples["drop-tail (unbounded) RTT"].median, "<", 0.2),
        ("CoDel minus unbounded drop-tail median PLT",
         samples["CoDel PLT"].median
         - samples["drop-tail (unbounded) PLT"].median, "<", 0.0),
    )


def _bufferbloat_render(samples: Samples) -> str:
    rows = [
        [label, f"{samples[f'{label} RTT'].median * 1000:.0f} ms",
         f"{samples[f'{label} PLT'].median * 1000:.0f} ms"]
        for label, __ in _A5_DISCIPLINES
    ]
    return format_table(
        ["queue discipline", "probe RTT under load",
         "PLT sharing the link"],
        rows,
        title="Bufferbloat ablation: 3 Mbit/s link with a background "
              "bulk flow",
    )


# -- A6: chaos robustness (repro.chaos; no paper counterpart) ---------- #

_A6_OUTAGES = (0.0, 0.15, 0.3, 0.6)
_A6_LOSS_BAD = (0.0, 0.3, 0.6)


def _chaos_sweep(trials):
    """Trial ``i`` loads one site through ReplayShell > LinkShell 14
    Mbit/s > ChaosShell > DelayShell 30 ms under each plan: a downlink
    outage of growing length, Gilbert-Elliott burst loss of growing
    bad-state loss, and a mixed server/DNS plan. A degraded or hung load
    is a measurement (PLT ``inf`` when onload never fires), not a lost
    trial."""
    site = generate_site("chaos-bench.com", seed=17, n_origins=4, scale=0.4)
    store = site.to_recorded_site()
    plans = {f"outage {duration:g}": FaultPlan(clauses=(
        OutageClause(direction="downlink", start=0.2, duration=duration),))
        if duration else None for duration in _A6_OUTAGES}
    plans.update({f"GE {loss_bad:g}": FaultPlan(clauses=(
        GilbertElliottClause(direction="downlink", p_good_bad=0.05,
                             p_bad_good=0.4, loss_bad=loss_bad),))
        if loss_bad else None for loss_bad in _A6_LOSS_BAD})
    # skip=1 everywhere keeps the root document intact (a truncated or
    # unresolvable root would hide the rest of the page); the one
    # SERVFAIL breaks one CDN origin, so the server clauses still see
    # traffic on the others.
    plans["taxonomy"] = FaultPlan(clauses=(
        ServerFaultClause(kind="truncate", skip=1, count=2, after_bytes=256),
        ServerFaultClause(kind="reset", skip=5, count=2, after_bytes=128),
        DnsFaultClause(kind="servfail", skip=1, count=1)))

    def trial(i):
        row = {}
        for key, plan in plans.items():
            stack = ShellStack.fresh(i)
            stack.add_replay(store)
            stack.add_link(14.0, 14.0)
            if plan is not None:
                stack.add_chaos(plan)
            stack.add_delay(0.030)
            result = stack.load(site.page)
            stack.sim.run_until(lambda: result.complete, timeout=120.0)
            outcome, failures = classify_result(result)
            row[f"{key} PLT"] = result.page_load_time \
                if result.complete else math.inf
            row[f"{key} clean"] = float(outcome == "success")
            if key == "taxonomy":
                row.update({f"taxonomy {cls}": float(failures.get(cls, 0))
                            for cls in FAILURE_CLASSES})
        return row

    return trial


def _completed(samples: Samples, key: str) -> Tuple[float, float]:
    """Under plan ``key``: the mean PLT of the loads whose onload fired
    (NaN if none did), and their share of the loads."""
    plts = [plt for plt in samples[f"{key} PLT"].values if plt < math.inf]
    trials = len(samples[f"{key} PLT"])
    return (Sample(plts).mean if plts else math.nan,
            1.0 - (trials - len(plts)) / trials)


def _chaos_check(samples: Samples) -> List[Miss]:
    outage, ge = f"outage {max(_A6_OUTAGES):g}", f"GE {max(_A6_LOSS_BAD):g}"
    (base, __), (worst, completed) = (_completed(samples, key)
                                      for key in ("outage 0", outage))
    ge_base, ge_worst = (_completed(samples, key)[0] for key in ("GE 0", ge))
    return misses(
        ("clean share, fault-free", samples["outage 0 clean"].mean,
         "==", 1.0),
        (f"completed share, {outage} s", completed, ">", 0.0),
        (f"mean PLT, {outage} s minus fault-free", worst - base, ">", 0.0),
        (f"mean PLT, {ge} minus GE 0", ge_worst - ge_base, ">", 0.0),
        # Body truncation and DNS breakage are always client-visible.
        ("clean share, taxonomy", samples["taxonomy clean"].mean, "<", 1.0),
        *((f"{cls} fetches, taxonomy",
           sum(samples[f"taxonomy {cls}"].values), ">", 0)
          for cls in ("truncated", "dns")))


def _chaos_render(samples: Samples) -> str:
    trials = len(samples["taxonomy clean"])

    def rows(prefix, values):
        for value in values:
            key = f"{prefix} {value:g}"
            mean, completed = _completed(samples, key)
            yield [f"{value:g}",
                   "-" if math.isnan(mean) else f"{mean * 1000:.0f}",
                   f"{completed:.0%}", f"{samples[f'{key} clean'].mean:.0%}"]

    counts = {cls: sum(samples[f"taxonomy {cls}"].values)
              for cls in FAILURE_CLASSES}
    return "\n\n".join([
        format_table(["outage (s)", "PLT (ms)", "completed", "clean"],
                     list(rows("outage", _A6_OUTAGES)),
                     title="PLT degradation vs downlink outage duration "
                           f"({trials} loads each)"),
        format_table(["GE loss_bad", "PLT (ms)", "completed", "clean"],
                     list(rows("GE", _A6_LOSS_BAD)),
                     title="PLT degradation vs Gilbert-Elliott bad-state "
                           "loss"),
        f"failure taxonomy under 'taxonomy' ({trials} loads, success rate "
        f"{samples['taxonomy clean'].mean:.0%}):",
        "\n".join(f"  {cls}: {count:.0f}" for cls, count in counts.items()
                  if count) or "  (no failures)",
    ])


def _table2_tail(samples: Samples) -> List[Miss]:
    """Table 2's tail size, held at bench scale only. This substrate
    under-reproduces the paper's high-speed single-server penalty (the
    Table 2 gap, EXPERIMENTS T2): at tier-1's 4 sites the 95th
    percentile at 14 Mbit/s, 30 ms is +0.80 %, under the +1 % floor."""
    slow = max(abs(samples[t2_cell(1.0, delay)].median)
               for delay in T2_DELAYS)
    tail = max(samples[t2_cell(rate, 0.030)].percentile(95)
               for rate in (14.0, 25.0))
    return misses(
        (f"95th {t2_cell(25.0, 0.030)}",
         samples[t2_cell(25.0, 0.030)].percentile(95), ">", 1.0),
        ("high-speed 95th minus largest 1 Mbit/s |median|",
         tail - slow, ">", 1.0),
    )


STUDIES: Dict[str, Claim] = dict(
    CLAIMS,
    linkshell_ablation=Claim(_trace_semantics_sweep, 10, 3, 3,
                             _trace_semantics_check, _trace_semantics_render),
    beyond_browsers=Claim(_api_client_sweep, 20, 5, 5,
                          _api_client_check, _api_client_render),
    multiplexing_study=Claim(_multiplexing_sweep, 12, 3, 3,
                             _multiplexing_check, _multiplexing_render),
    bufferbloat=Claim(_bufferbloat_sweep, 8, 3, 3,
                      _bufferbloat_check, _bufferbloat_render),
    chaos_robustness=Claim(_chaos_sweep, 20, 3, 3,
                           _chaos_check, _chaos_render),
)

@pytest.mark.parametrize("name", list(STUDIES))
def test_study(name, benchmark, report):
    study = STUDIES[name]
    samples = benchmark.pedantic(
        measure_claim, args=(name, study, scaled(study.trials, study.floor)),
        kwargs={"workers": bench_workers(), "journal": bench_journal(name)},
        rounds=1, iterations=1)
    report(name, study.render(samples))
    failed = study.check(samples)
    if name == "table2_multiorigin":
        failed += _table2_tail(samples)
    assert [str(miss) for miss in failed] == []
