"""Perf-regression gate: compare hot-core throughput against a committed
baseline and fail on regressions beyond a noise margin.

The problem with committing raw wall-clock numbers is that CI boxes differ
in speed and are noisy. The gate therefore measures every workload as a
*calibration-normalized score*: the workload's best-of-N time divided by
the best-of-N time of a fixed pure-Python calibration loop run in the same
process. Both numerator and denominator scale with the machine's
single-core Python throughput, so the ratio is (to first order) a property
of the *code*, not the box. A 30% default margin absorbs what the
normalization doesn't.

Workloads (mirroring ``bench_micro.py``'s hot-path benchmarks):

* ``event_loop`` — schedule+dispatch of one chained timer (the simulator
  kernel at its monotone best case: the heap never holds more than one
  record, so this prices the call frames of push + drain, not the sifts
  a real world's few-hundred-record heap pays; DESIGN.md §10).
* ``tcp_bulk``   — bytes through two full TCP stacks over a delay pipe.
* ``page_load``  — one replayed page load through ReplayShell + LinkShell
  + DelayShell (the unit every paper experiment multiplies).
* ``fabric_trials_per_s`` — a sweep dispatched to 2 forked fabric workers
  (coordinator + wire protocol + merge overhead on top of the trials).
* ``fabric_degraded_trials_per_s`` — the same sweep degraded to one
  worker after injected spawn failures give up the other worker's slot
  (the spawn-retry delay included).
* ``cas_corpus_load`` — loading a CAS-backed (format v3) corpus, blob
  resolution included.
* ``supervised_trials_per_s`` — the fabric workloads' trial set through
  ``run_supervised(workers=2, journal, capture_digest)``: the same
  dispatcher, plus result pickling and the fsync'd journal.

``REPRO_BENCH_SCALE`` scales the event count and transfer size exactly as
the rest of the bench suite scales trial counts (CI uses 0.1); the scale
is recorded in the baseline and a mismatch refuses to compare rather than
silently comparing different workloads.

Usage::

    # gate (exit 1 on regression, delta table either way)
    PYTHONPATH=src REPRO_BENCH_SCALE=0.1 python benchmarks/perf_gate.py

    # regenerate the committed baseline after an intentional perf change
    PYTHONPATH=src REPRO_BENCH_SCALE=0.1 python benchmarks/perf_gate.py \
        --update

    # prove the gate trips: pretend every workload got 2x slower
    python benchmarks/perf_gate.py --inject-slowdown 2.0

    # write the delta table as a markdown artifact
    python benchmarks/perf_gate.py --report perf_gate_report.md
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
)

DEFAULT_BASELINE = os.path.join(os.path.dirname(__file__), "baseline.json")
DEFAULT_MARGIN = 0.30
SCHEMA = 1

# ---------------------------------------------------------------------- #
# calibration


def bench_scale() -> float:
    return float(os.environ.get("REPRO_BENCH_SCALE", "0.25"))


_CAL_ITERS = 150_000


def _calibrate_once() -> None:
    """Fixed pure-Python mix: arithmetic, list appends, dict stores.

    Deliberately exercises the same interpreter machinery the simulator's
    hot loops do (attribute-free bytecode, list/dict ops), so its time
    tracks the workloads' across boxes and Python versions.
    """
    acc = 0
    data: List[int] = []
    table: Dict[int, int] = {}
    append = data.append
    for i in range(_CAL_ITERS):
        acc += i & 7
        if i & 1:
            append(i)
        if not i & 15:
            table[i] = acc


# ---------------------------------------------------------------------- #
# workloads — each returns its work amount (for the human-facing rate)


def wl_event_loop() -> Tuple[float, str]:
    from repro.sim import Simulator

    n = max(2_000, int(20_000 * bench_scale()))
    sim = Simulator()
    count = [0]

    def tick() -> None:
        count[0] += 1
        if count[0] < n:
            sim.schedule(0.001, tick)

    sim.schedule(0.001, tick)
    sim.run()
    assert count[0] == n
    return float(n), "events"


def wl_tcp_bulk() -> Tuple[float, str]:
    from repro.testing import delayed_world
    from repro.transport.wire import pieces_len

    total_bytes = max(200_000, int(2_000_000 * bench_scale()))
    world = delayed_world(0.010)
    done: List[bool] = []

    def on_conn(conn) -> None:
        conn.on_data = lambda p: conn.send_virtual(total_bytes)

    world.server.listen(None, 80, on_conn)
    conn = world.client.connect(world.server_endpoint)
    received = [0]
    conn.on_established = lambda: conn.send(b"GET")

    def on_data(pieces) -> None:
        received[0] += pieces_len(pieces)
        if received[0] >= total_bytes:
            done.append(True)

    conn.on_data = on_data
    world.sim.run_until(lambda: bool(done), timeout=120)
    assert received[0] >= total_bytes
    return total_bytes / 1e6, "MB"


_PAGE_SITE = None


def _page_site():
    global _PAGE_SITE
    if _PAGE_SITE is None:
        from repro.corpus import generate_site

        site = generate_site("perf-gate.com", seed=10, n_origins=15)
        _PAGE_SITE = (site, site.to_recorded_site())
    return _PAGE_SITE


def wl_page_load() -> Tuple[float, str]:
    from repro.core import ShellStack

    site, store = _page_site()
    stack = ShellStack.fresh(seed=0)
    stack.add_replay(store)
    stack.add_link(14, 14)
    stack.add_delay(0.040)
    result = stack.load(site.page)
    stack.sim.run_until(lambda: result.complete, timeout=600)
    assert result.resources_failed == 0
    return 1.0, "loads"


_LOAD_POPULATION = None


def _load_population():
    global _LOAD_POPULATION
    if _LOAD_POPULATION is None:
        from repro.load import default_population

        _LOAD_POPULATION = default_population(seed=0, n_sites=3, scale=0.2)
    return _LOAD_POPULATION


def wl_load_clients() -> Tuple[float, str]:
    from repro.load import LoadScenario, run_load
    from repro.load.arrivals import Poisson

    clients = max(20, int(200 * bench_scale()))
    scenario = LoadScenario(
        population=_load_population(),
        arrivals=Poisson(clients / 10.0),
        clients=clients,
    )
    result = run_load(scenario, seed=0)
    assert result.completed == clients
    return float(clients), "clients"


_FABRIC_FACTORY = None


def _fabric_factory():
    global _FABRIC_FACTORY
    if _FABRIC_FACTORY is None:
        from repro.scenarios import replay_smoke

        _FABRIC_FACTORY = replay_smoke(
            name="perf-fabric.com", seed=4, n_origins=8, scale=1.0)
    return _FABRIC_FACTORY


def wl_fabric_trials() -> Tuple[float, str]:
    """A sweep dispatched to 2 forked local workers (coordinator overhead
    included); byte-identity with serial is asserted by the test suite,
    this gate watches only the throughput."""
    from repro.fabric.backend import LocalBackend
    from repro.fabric.coordinator import run_fabric

    trials = max(8, int(32 * bench_scale()))
    result = run_fabric(LocalBackend(_fabric_factory()), trials=trials,
                        shards=2)
    assert result.complete
    return float(trials), "trials"


def wl_fabric_degraded() -> Tuple[float, str]:
    """The same sweep running *degraded*: worker 1's spawns always fail,
    so after the retry budget its slot is given up and the surviving
    worker pulls every trial off the queue — the spawn-retry delay
    inside the timed region. Guards the cost of the fault-tolerance path
    itself."""
    from repro.fabric.backend import LocalBackend
    from repro.fabric.coordinator import run_fabric
    from repro.testing import FaultInjectingBackend, SpawnFault

    trials = max(8, int(32 * bench_scale()))
    backend = FaultInjectingBackend(
        LocalBackend(_fabric_factory()), SpawnFault(shard=1, fail_first=99))
    result = run_fabric(backend, trials=trials, shards=2, spawn_retries=1)
    assert result.complete
    assert result.metrics.counter("fabric.spawn_failures").value == 1
    return float(trials), "trials"


def wl_supervised_trials() -> Tuple[float, str]:
    """The fabric workloads' trial set through the supervised pool: two
    warm workers, digest capture and a fresh fsync'd journal (sample and
    digest identity are the test suite's job, as for the fabric)."""
    import tempfile

    from repro.measure.supervise import run_supervised

    trials = max(8, int(32 * bench_scale()))
    with tempfile.TemporaryDirectory(prefix="perf-gate-sup-") as scratch:
        result = run_supervised(
            _fabric_factory(), trials, workers=2, capture_digest=True,
            journal=os.path.join(scratch, "sweep.jsonl"))
    assert result.complete
    return float(trials), "trials"


_CAS_CORPUS = None


def _cas_corpus() -> str:
    """A CAS-backed corpus on disk (built once, loaded per round)."""
    global _CAS_CORPUS
    if _CAS_CORPUS is None:
        import tempfile

        from repro.corpus import alexa_corpus
        from repro.record.cas import CAS_DIR_NAME, CasStore

        size = max(30, int(120 * bench_scale()))
        root = tempfile.mkdtemp(prefix="perf-gate-cas-")
        cas = CasStore(os.path.join(root, CAS_DIR_NAME))
        for site in alexa_corpus(seed=5, size=size, single_origin_sites=4,
                                 scale=1.0):
            site.to_recorded_site().save(os.path.join(root, site.name),
                                         cas=cas)
        _CAS_CORPUS = root
    return _CAS_CORPUS


def wl_cas_corpus_load() -> Tuple[float, str]:
    """Load every site of a CAS-backed corpus (manifest + pair files +
    blob resolution through the shared store)."""
    from repro.record.fsck import corpus_site_dirs
    from repro.record.store import RecordedSite

    site_dirs = corpus_site_dirs(_cas_corpus())
    pairs = 0
    for site_dir in site_dirs:
        pairs += len(RecordedSite.load(site_dir))
    assert pairs > 0
    return float(len(site_dirs)), "sites"


WORKLOADS: List[Tuple[str, Callable[[], Tuple[float, str]]]] = [
    ("event_loop", wl_event_loop),
    ("tcp_bulk", wl_tcp_bulk),
    ("page_load", wl_page_load),
    ("load_clients_per_s", wl_load_clients),
    ("fabric_trials_per_s", wl_fabric_trials),
    ("fabric_degraded_trials_per_s", wl_fabric_degraded),
    ("cas_corpus_load", wl_cas_corpus_load),
    ("supervised_trials_per_s", wl_supervised_trials),
]

# ---------------------------------------------------------------------- #
# measurement


def best_of(fn: Callable[[], object], rounds: int) -> float:
    """Minimum wall-clock time of ``rounds`` runs (noise rejects upward)."""
    best = float("inf")
    for _ in range(rounds):
        started = time.perf_counter()
        fn()
        elapsed = time.perf_counter() - started
        if elapsed < best:
            best = elapsed
    return best


def measure(rounds: int, slowdown: float) -> Dict[str, Dict[str, float]]:
    # Warm imports and allocation caches outside the timed region, then
    # interleave calibration and workloads so frequency drift hits both.
    _calibrate_once()
    for __, fn in WORKLOADS:
        fn()
    cal = best_of(_calibrate_once, rounds)
    results: Dict[str, Dict[str, float]] = {}
    for name, fn in WORKLOADS:
        work, unit = fn()
        elapsed = best_of(fn, rounds) * slowdown
        results[name] = {
            "units": elapsed / cal,
            "seconds": elapsed,
            "rate": work / elapsed,
            "rate_unit": f"{unit}/s",
        }
    results["_calibration"] = {"seconds": cal}
    return results


# ---------------------------------------------------------------------- #
# comparison


def compare(
    baseline: Dict, current: Dict[str, Dict[str, float]], margin: float
) -> Tuple[List[Dict], bool]:
    rows: List[Dict] = []
    failed = False
    for name, __ in WORKLOADS:
        base = baseline["benchmarks"].get(name)
        cur = current[name]
        if base is None:
            rows.append({"name": name, "status": "NEW", "cur": cur})
            continue
        delta = cur["units"] / base["units"] - 1.0
        regressed = delta > margin
        failed = failed or regressed
        rows.append({
            "name": name,
            "status": "FAIL" if regressed else "ok",
            "base_units": base["units"],
            "cur": cur,
            "delta": delta,
        })
    return rows, failed


def render_table(rows: List[Dict], margin: float) -> str:
    lines = [
        "| benchmark | baseline (units) | current (units) | delta | "
        "rate | status |",
        "|---|---|---|---|---|---|",
    ]
    for row in rows:
        cur = row["cur"]
        rate = f"{cur['rate']:,.0f} {cur['rate_unit']}"
        if row["status"] == "NEW":
            lines.append(
                f"| {row['name']} | - | {cur['units']:.2f} | - | "
                f"{rate} | NEW |"
            )
        else:
            lines.append(
                f"| {row['name']} | {row['base_units']:.2f} | "
                f"{cur['units']:.2f} | {row['delta']:+.1%} | "
                f"{rate} | {row['status']} |"
            )
    lines.append("")
    lines.append(
        f"units = workload time / calibration time (lower is better); "
        f"gate fails past +{margin:.0%}."
    )
    return "\n".join(lines)


# ---------------------------------------------------------------------- #
# CLI


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", default=DEFAULT_BASELINE,
                        help="baseline JSON path (default: committed)")
    parser.add_argument("--margin", type=float, default=DEFAULT_MARGIN,
                        help="allowed regression fraction (default 0.30)")
    parser.add_argument("--rounds", type=int, default=5,
                        help="timing rounds per workload (min is taken)")
    parser.add_argument("--update", action="store_true",
                        help="write the measured numbers as the new "
                             "baseline instead of gating")
    parser.add_argument("--inject-slowdown", type=float, default=1.0,
                        metavar="FACTOR",
                        help="multiply measured times by FACTOR (gate "
                             "self-test; 2.0 must fail)")
    parser.add_argument("--report", default=None, metavar="PATH",
                        help="also write the delta table to PATH "
                             "(markdown)")
    args = parser.parse_args(argv)

    scale = bench_scale()
    current = measure(args.rounds, args.inject_slowdown)

    if args.update:
        payload = {
            "schema": SCHEMA,
            "scale": scale,
            "rounds": args.rounds,
            "note": (
                "Calibration-normalized hot-core scores; regenerate with "
                "`REPRO_BENCH_SCALE=%s python benchmarks/perf_gate.py "
                "--update` after intentional perf changes." % scale
            ),
            "benchmarks": {
                name: current[name] for name, __ in WORKLOADS
            },
        }
        with open(args.baseline, "w") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"baseline written to {args.baseline} (scale={scale})")
        return 0

    try:
        with open(args.baseline) as handle:
            baseline = json.load(handle)
    except FileNotFoundError:
        print(f"no baseline at {args.baseline}; run with --update first",
              file=sys.stderr)
        return 2
    if baseline.get("schema") != SCHEMA:
        print(f"baseline schema {baseline.get('schema')!r} != {SCHEMA}",
              file=sys.stderr)
        return 2
    if baseline.get("scale") != scale:
        print(
            f"baseline scale {baseline.get('scale')} != current {scale}; "
            f"set REPRO_BENCH_SCALE={baseline.get('scale')} or "
            "regenerate with --update",
            file=sys.stderr,
        )
        return 2

    rows, failed = compare(baseline, current, args.margin)
    table = render_table(rows, args.margin)
    print(table)
    if args.inject_slowdown != 1.0:
        print(f"(times scaled by injected slowdown "
              f"x{args.inject_slowdown})")
    if args.report:
        with open(args.report, "w") as handle:
            handle.write("# Perf gate report\n\n")
            handle.write(table + "\n")
            if args.inject_slowdown != 1.0:
                handle.write(
                    f"\n(times scaled by injected slowdown "
                    f"x{args.inject_slowdown})\n"
                )
        print(f"report written to {args.report}")
    if failed:
        print("PERF GATE: FAIL", file=sys.stderr)
        return 1
    print("PERF GATE: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
