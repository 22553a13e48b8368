"""What mmbench measures: workloads, end-to-end metrics, per-layer metrics.

This module is the single declaration. ``BENCHMARK.json`` at the repository
root is :func:`benchmark_document` written out (the smoke test holds the two
equal); the driver contract fixes that file's keys, so what does not fit
there — each per-layer metric's owning layer, whether it is an exact counter
or a timing, and which end-to-end metric it should move on which workload —
lives here and in ``README.md``.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Tuple

#: ``BENCHMARK.json``'s ``run_seconds``, and the only value ``--seconds``
#: accepts. A run is a fixed amount of work (:data:`BATCHES` timed batches
#: of sizes fixed in ``workloads.py``), not a fixed time, so that two
#: commits are measured over the same sample; the sizes are chosen so the
#: timed batches take about this long on the 2-core sandbox.
RUN_SECONDS = 15

#: Timed batches per untraced run, after one untimed warm-up batch.
BATCHES = 9

#: Layers that get a ``self_share`` and an ``events`` bucket. Everything
#: else the profiler or the trace hook sees (stdlib, builtins, the
#: benchmark's own files, the harness packages) lands in ``other``.
ATTRIBUTED = (
    "sim", "net", "linkem", "transport", "http", "dns", "browser", "record",
    "core", "load", "obs", "other",
)

#: The Figure-2 ladder, bottom rung first; each rung adds one harness
#: layer to the rung below.
LADDER = (
    "bare", "obs", "supervised1", "digest", "journal", "pool2", "fabric1",
    "fabric2hb",
)

WORKLOADS: Tuple[Tuple[str, str], ...] = (
    ("replay_sweep",
     "Serial in-process page loads through ReplayShell+LinkShell+DelayShell: "
     "the simulated world does all the work, so a hot-core gain shows here "
     "and a harness gain must not."),
    ("bulk_transfer",
     "Long send_virtual flows over delay, link, bounded-queue and lossy "
     "stacks, no browser/http/dns/record: the bypass workload for those "
     "layers; shows a fast path that costs retransmits."),
    ("load_world",
     "One shared world near its knee (open-loop Poisson 60 clients/s, 300 "
     "clients): deep event queue, server worker queues, http mux, load "
     "population and arrivals; no harness."),
    ("campaign_supervised",
     "run_supervised(workers=2, journal, digest) over light CAS-loaded "
     "trials: fork, pickle, pipe and fsync dominate the CPU. ROADMAP item "
     "2's no-worse gate and the store change land here."),
    ("campaign_fabric",
     "The same trials through run_fabric(shards=2, heartbeat, journal): "
     "framed protocol, reader threads, journal compaction. Collapsing the "
     "engines cannot trade one path for the other."),
)


class EndToEnd(NamedTuple):
    """``bound`` is the share of A's median by which B's may be worse;
    0.0 is absolute: any rise at all fails."""

    name: str
    unit: str
    better: str
    bound: float
    definition: str


END_TO_END: Tuple[EndToEnd, ...] = (
    EndToEnd("ops_per_s", "1/s", "higher", 0.25,
             "ops in a batch / batch host wall time, median over the 9 "
             "timed batches, in calibrated seconds (host seconds / the "
             "run's slowdown, see calibrate.py)"),
    EndToEnd("cpu_ms_per_op", "ms", "lower", 0.25,
             "user+sys CPU of the workload process plus all reaped children "
             "per op, median over the 9 timed batches, in calibrated "
             "milliseconds"),
    EndToEnd("peak_rss_mb", "MB", "lower", 0.15,
             "max of self and children ru_maxrss at workload end"),
    EndToEnd("setup_s", "s", "lower", 0.25,
             "calibrated CPU seconds to the first timed batch: median over "
             "the set-up rounds of building the workload's inputs, plus the "
             "serial reference run and the one warm-up batch"),
    EndToEnd("failed_share", "ratio", "lower", 0.0,
             "ops that failed, hung, were quarantined or crashed, or whose "
             "result differs from the reference / ops attempted"),
)

#: The end-to-end metrics ``BENCHMARK.json`` can hold and the driver's
#: result line carries: its bounds are shares of the parent's median and
#: it wants metrics that are never 0, which ``failed_share`` always is on
#: a healthy run. The driver gets that one as ``attempted`` / ``failed``;
#: ``compare`` checks it with its absolute bound like the other four.
DRIVER_END_TO_END = tuple(m for m in END_TO_END if m.bound > 0.0)


class PerLayer(NamedTuple):
    name: str
    unit: str
    better: str
    layer: str
    exact: bool
    moves: str


def _share_and_events() -> List[PerLayer]:
    rows = []
    for layer in ATTRIBUTED:
        rows.append(PerLayer(
            f"{layer}.self_share", "ratio", "lower", layer, False,
            "ops_per_s, cpu_ms_per_op on replay_sweep/bulk_transfer/"
            "load_world in proportion to the share"))
        rows.append(PerLayer(
            f"{layer}.events", "count", "lower", layer, True,
            "must not move under a pure speed-up"))
    return rows


def _ladder() -> List[PerLayer]:
    rows = []
    for rung in LADDER:
        rows.append(PerLayer(
            f"ladder.{rung}.cpu_ms_per_op", "ms", "lower", "measure", False,
            "cpu_ms_per_op on campaign_supervised (through pool2) and "
            "campaign_fabric (fabric rungs)"))
        rows.append(PerLayer(
            f"ladder.{rung}.overhead_pct", "%", "lower", "measure", False,
            "the rung a harness change should shrink"))
    return rows


_STILL = "must not move under a pure speed-up"
_WORLDS = "no movement on the three world workloads"
_BULK = ("bulk_transfer only (the one workload that holds its own "
         "connections); " + _STILL)

PER_LAYER: Tuple[PerLayer, ...] = tuple(
    _share_and_events()
    + [
        PerLayer("sim.events_per_op", "count", "lower", "sim", True, _STILL),
        PerLayer("sim.host_us_per_event", "us", "lower", "sim", False,
                 "ops_per_s on load_world first (deep queue), then "
                 "replay_sweep"),
        PerLayer("sim.dispatch_us_per_event", "us", "lower", "sim", False,
                 "ops_per_s on load_world, replay_sweep (empty chained-timer "
                 "floor)"),
        PerLayer("sim.queue_depth_max", "count", "lower", "sim", True, _STILL),
        PerLayer("transport.segments_sent", "count", "lower", "transport",
                 True, _BULK),
        PerLayer("transport.retransmissions", "count", "lower", "transport",
                 True, _BULK),
        PerLayer("transport.retransmit_share", "ratio", "lower", "transport",
                 True, _BULK),
        PerLayer("transport.connections", "count", "lower", "transport", True,
                 _STILL),
        PerLayer("transport.goodput_mbps_virtual", "Mbit/s", "higher",
                 "transport", True, _BULK),
        PerLayer("linkem.opportunities_used", "count", "lower", "linkem",
                 True, _STILL),
        PerLayer("linkem.queue_drops", "count", "lower", "linkem", True,
                 _STILL),
        PerLayer("linkem.queue_depth_max", "count", "lower", "linkem", True,
                 _STILL),
        PerLayer("linkem.utilization", "ratio", "higher", "linkem", True,
                 _STILL),
        PerLayer("net.packets_sent", "count", "lower", "net", True, _STILL),
        PerLayer("net.packets_dropped", "count", "lower", "net", True, _STILL),
        PerLayer("http.requests", "count", "lower", "http", True, _STILL),
        PerLayer("http.server.peak_occupancy", "count", "lower", "http", True,
                 _STILL),
        PerLayer("http.server.peak_backlog", "count", "lower", "http", True,
                 _STILL),
        PerLayer("dns.queries", "count", "lower", "dns", True, _STILL),
        PerLayer("browser.resources_loaded", "count", "higher", "browser",
                 True, _STILL),
        PerLayer("browser.bytes_downloaded", "B", "higher", "browser", True,
                 _STILL),
        PerLayer("browser.plt_p50_s", "s", "lower", "browser", True, _STILL),
        PerLayer("browser.plt_p95_s", "s", "lower", "browser", True, _STILL),
        PerLayer("load.completed", "count", "higher", "load", True, _STILL),
        PerLayer("load.client_p50_s", "s", "lower", "load", True, _STILL),
        PerLayer("load.client_p99_s", "s", "lower", "load", True, _STILL),
        PerLayer("load.peak_backlog", "count", "lower", "load", True, _STILL),
        PerLayer("load.throughput_virtual", "1/s", "higher", "load", True,
                 _STILL),
        PerLayer("corpus.generate_ms_per_site", "ms", "lower", "corpus",
                 False, "setup_s on replay_sweep and both campaigns"),
        PerLayer("corpus.to_recorded_ms_per_site", "ms", "lower", "corpus",
                 False, "setup_s on replay_sweep and both campaigns"),
        PerLayer("record.save_ms_per_site", "ms", "lower", "record", False,
                 "setup_s on both campaigns; " + _WORLDS),
        PerLayer("record.load_ms_per_site", "ms", "lower", "record", False,
                 "cpu_ms_per_op on both campaigns (one load per trial); "
                 + _WORLDS),
        PerLayer("record.cas.get_us_per_blob", "us", "lower", "record", False,
                 "cpu_ms_per_op on both campaigns"),
        PerLayer("record.matcher.match_us", "us", "lower", "record", False,
                 "cpu_ms_per_op on replay_sweep, load_world, campaigns "
                 "(one match per request)"),
        PerLayer("record.bytes_on_disk", "B", "lower", "record", True,
                 "store-format changes only"),
        PerLayer("record.dedup_ratio", "ratio", "higher", "record", True,
                 "store-format changes only"),
        PerLayer("core.world_build_ms", "ms", "lower", "core", False,
                 "cpu_ms_per_op on the campaigns (~1 ms of a trial), "
                 "negligible on replay_sweep"),
        PerLayer("analysis.digest_overhead_pct", "%", "lower", "analysis",
                 False, "cpu_ms_per_op on both campaigns (digest capture is "
                 "on there)"),
        PerLayer("obs.overhead_pct", "%", "lower", "obs", False,
                 "cpu_ms_per_op wherever a registry is attached (none of "
                 "the untraced workloads)"),
        PerLayer("obs.artifact_write_ms", "ms", "lower", "obs", False,
                 "cpu_ms_per_op on the campaigns (one artifact per batch)"),
        PerLayer("measure.result_bytes", "B", "lower", "measure", True,
                 "pickle, pipe and journal cost on both campaigns"),
        PerLayer("measure.pickle_ms_per_result", "ms", "lower", "measure",
                 False, "ops_per_s, cpu_ms_per_op on campaign_supervised"),
        PerLayer("measure.fork_ms", "ms", "lower", "measure", False,
                 "ops_per_s, cpu_ms_per_op on campaign_supervised (one fork "
                 "per trial)"),
        PerLayer("measure.journal.append_ms", "ms", "lower", "measure", False,
                 "ops_per_s on both campaigns (parent-side fsync wait)"),
        PerLayer("measure.journal.bytes_per_trial", "B", "lower", "measure",
                 True, "journal append and recover cost"),
        PerLayer("measure.journal.recover_ms", "ms", "lower", "measure",
                 False, "resume only; no movement on a fresh journal"),
        PerLayer("fabric.protocol.roundtrip_ms", "ms", "lower", "fabric",
                 False, "ops_per_s, cpu_ms_per_op on campaign_fabric only"),
        PerLayer("fabric.frame_bytes_per_trial", "B", "lower", "fabric", True,
                 "campaign_fabric only"),
        PerLayer("fabric.spawn_ms", "ms", "lower", "fabric", False,
                 "campaign_fabric only (two spawns per batch)"),
        PerLayer("fabric.heartbeats", "count", "lower", "fabric", False,
                 "campaign_fabric only"),
        PerLayer("fabric.journal_rewrite_ms", "ms", "lower", "fabric", False,
                 "campaign_fabric only (one compaction per batch)"),
    ]
    + _ladder()
    + [
        PerLayer("trace.overhead_x", "x", "lower", "obs", False,
                 "nothing: traced wall / untraced wall, the cost of looking"),
    ]
)

PER_LAYER_BY_NAME: Dict[str, PerLayer] = {m.name: m for m in PER_LAYER}
WORKLOAD_NAMES = tuple(name for name, _ in WORKLOADS)


def benchmark_document() -> Dict[str, object]:
    """``BENCHMARK.json``, in exactly the driver contract's shape."""
    return {
        "command": ["python3", "-m", "benchmarks.mmbench"],
        "paths": ["benchmarks/mmbench", "tests/test_mmbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better,
             "bound": m.bound}
            for m in DRIVER_END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better}
            for m in PER_LAYER
        ],
    }
