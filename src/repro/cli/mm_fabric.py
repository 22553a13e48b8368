"""``mm-fabric`` — run sweeps across the measurement fabric.

Subcommands::

    mm-fabric run --factory MOD:ATTR --trials N [--kwargs JSON]
                  [--shards K] [--backend local|subprocess|remote]
                  [--host H]... [--ssh CMD] [--timeout S] [--retries R]
                  [--worker-retries R] [--journal PATH] [--run-key KEY]
                  [--capture-digest] [--progress-deadline S]
                  [--heartbeat S] [--io-deadline S] [--spawn-retries R]
                  [--quarantine-after K] [--speculate]
                  [--artifact PATH] [--json]
    mm-fabric worker
    mm-fabric ship SRC DEST [--json]

``run`` feeds the sweep's trial indices to ``--shards`` workers, one
trial at a time, and merges the streamed outcomes by trial index — the
output (sample, combined event-stream digest, journal) is byte-identical
to a serial ``run_supervised`` of the same sweep, for any ``--shards``
and any ``--backend``. ``--factory`` names a scenario-factory *builder*
(e.g. ``repro.scenarios:replay_smoke``); ``--kwargs`` is a JSON
object of its arguments. ``--backend remote`` drives exactly one
``--host``: more than one is refused, not half-applied, until a
multi-host backend exists.

Robustness knobs: ``--heartbeat`` turns on worker liveness beats so the
``--progress-deadline`` watchdog kills only wedged workers, never
slow-but-alive ones; ``--io-deadline`` bounds every protocol read/write;
``--spawn-retries`` retries failed spawns with capped seeded backoff and
``--quarantine-after`` benches a host after that many consecutive
crashes (the sweep degrades to the surviving workers); ``--speculate``
has a worker that finds the queue empty duplicate the oldest trial still
in flight, first outcome wins. None of these change results: every knob
preserves byte-identity to serial.

When a run resumes from ``--journal``, corrupt journal lines are dropped
(their trials re-run) and surfaced as the ``journal_records_dropped``
count in both output modes. ``--artifact`` writes the fabric counters
and gauges as a ``repro.obs`` JSONL artifact for ``mm-report fabric``.

Exit codes: ``0`` — sweep complete (every trial produced an outcome);
``1`` — incomplete (crashed trials remain after retries/degradation);
``2`` — usage or toolkit error before/while running.

``worker`` is the fabric worker entry point: it speaks the wire protocol
on stdin/stdout and is what the subprocess and remote backends launch.
Never run it by hand — it expects a coordinator on the other end.

``ship`` copies a recorded corpus to a destination as site manifests
plus the missing-blob delta against the destination's content-addressed
store (``<DEST>/.cas``): blobs the destination already holds are never
re-transferred.
"""

from __future__ import annotations

import json
import os
import sys
from typing import List

from repro.cli.common import CliError, Parser, ShellSpec, main_wrapper
from repro.fabric.backend import (
    LocalBackend,
    RemoteBackend,
    SubprocessBackend,
)
from repro.fabric.coordinator import run_fabric
from repro.fabric.sync import ship_corpus
from repro.fabric.worker import FactorySpec, worker_loop
from repro.measure.journal import run_key as make_run_key
from repro.measure.runner import DEFAULT_TRIAL_TIMEOUT

USAGE = ("usage: mm-fabric run --factory MOD:ATTR --trials N [options] "
         "| mm-fabric worker | mm-fabric ship SRC DEST [--json]")


def run(argv: List[str], specs: List[ShellSpec]) -> int:
    if specs:
        raise CliError("mm-fabric cannot nest inside other shells")
    if not argv:
        raise CliError(USAGE)
    command, rest = argv[0], argv[1:]
    if command == "run":
        return _run(rest)
    if command == "worker":
        return _worker(rest)
    if command == "ship":
        return _ship(rest)
    raise CliError(USAGE)


def _run_parser() -> Parser:
    parser = Parser("mm-fabric run", USAGE)
    add = parser.add_argument
    add("--factory", required=True)
    add("--kwargs", default="{}")
    add("--trials", type=int, required=True)
    add("--shards", type=int, default=2)
    add("--backend", default="subprocess",
        choices=("local", "subprocess", "remote"))
    add("--host", action="append", default=[])
    add("--ssh", default="ssh")
    add("--timeout", type=float, default=DEFAULT_TRIAL_TIMEOUT)
    add("--retries", type=int, default=1)
    add("--worker-retries", type=int, default=1)
    add("--journal")
    add("--run-key")
    add("--capture-digest", action="store_true")
    add("--progress-deadline", type=float)
    add("--heartbeat", type=float)
    add("--io-deadline", type=float)
    add("--spawn-retries", type=int, default=2)
    add("--quarantine-after", type=int, default=3)
    add("--speculate", action="store_true")
    add("--artifact")
    add("--json", action="store_true")
    return parser


def _run(argv: List[str]) -> int:
    options = _run_parser().parse_args(argv)
    factory_spec, trials = options.factory, options.trials
    backend_name, key = options.backend, options.run_key
    try:
        kwargs = json.loads(options.kwargs)
    except json.JSONDecodeError as exc:
        raise CliError(f"--kwargs is not valid JSON: {exc}")
    if not isinstance(kwargs, dict):
        raise CliError("--kwargs must be a JSON object")
    spec = FactorySpec(factory_spec, kwargs)
    if key is None and options.journal is not None:
        key = make_run_key(factory=factory_spec, kwargs=options.kwargs,
                           trials=trials, timeout=options.timeout)

    if backend_name == "local":
        backend = LocalBackend(spec.resolve())
    elif backend_name == "subprocess":
        backend = SubprocessBackend(spec)
    else:
        # The SSH-shaped stub drives one host; shard-per-host fan-out
        # rides on the same protocol (DESIGN.md §13).
        if len(options.host) != 1:
            raise CliError(
                "--backend remote drives exactly one --host (got "
                f"{len(options.host)}): there is no multi-host backend yet")
        backend = RemoteBackend(options.host[0], spec,
                                ssh_command=options.ssh.split())

    result = run_fabric(
        backend, trials, shards=options.shards, timeout=options.timeout,
        retries=options.retries, worker_retries=options.worker_retries,
        journal=options.journal, run_key=key,
        capture_digest=options.capture_digest,
        progress_deadline=options.progress_deadline,
        heartbeat=options.heartbeat, io_deadline=options.io_deadline,
        spawn_retries=options.spawn_retries,
        quarantine_after=options.quarantine_after,
        speculate=options.speculate,
    )
    counters = {name: c.value
                for name, c in sorted(result.metrics.counters.items())}
    gauges = {name: g.value
              for name, g in sorted(result.metrics.gauges.items())}
    dropped = counters.get("fabric.journal_records_dropped", 0)
    if options.artifact is not None:
        from repro.obs import write_artifact

        write_artifact(options.artifact, registry=result.metrics, meta={
            "tool": "mm-fabric", "factory": factory_spec,
            "trials": trials, "shards": options.shards,
            "backend": backend_name,
        })
    if options.json:
        print(json.dumps({
            "sweep": result.to_dict(),
            "fabric": {"counters": counters, "gauges": gauges},
            "journal_records_dropped": dropped,
            "quarantined_hosts": dict(result.quarantined_hosts or {}),
        }, indent=2, sort_keys=True))
    else:
        counts = result.counts()
        print(f"fabric: {trials} trial(s) over {result.shards} shard(s), "
              f"backend {backend_name}")
        print("outcomes: " + "  ".join(
            f"{state}={counts[state]}" for state in
            ("ok", "retried", "quarantined", "crashed")))
        if result.digest is not None:
            print(f"combined digest: {result.digest}")
        rate = gauges.get("fabric.trials_per_s")
        if rate:
            print(f"throughput: {rate:.2f} trials/s "
                  f"({counters.get('fabric.workers_spawned', 0)} worker(s), "
                  f"{counters.get('fabric.worker_crashes', 0)} crash(es))")
        if dropped:
            print(f"journal: dropped {dropped} corrupt record(s) on "
                  f"resume (their trials were re-run)")
        if result.quarantined_hosts:
            benched = ", ".join(
                f"{host} ({crashes} crash(es))" for host, crashes in
                sorted(result.quarantined_hosts.items()))
            print(f"quarantined hosts: {benched}")
    return 0 if result.complete else 1


def _worker(argv: List[str]) -> int:
    Parser("mm-fabric worker", USAGE).parse_args(argv)  # takes no arguments
    # The protocol owns the real stdout. Point fd 1 at stderr so any
    # stray print inside scenario code lands in the log, not the frame
    # stream (the magic check would catch it, but loudly and fatally).
    protocol_out = os.fdopen(os.dup(1), "wb")
    os.dup2(2, 1)
    return worker_loop(sys.stdin.buffer, protocol_out)


def _ship(argv: List[str]) -> int:
    parser = Parser("mm-fabric ship", USAGE)
    parser.add_argument("source")
    parser.add_argument("dest")
    parser.add_argument("--json", action="store_true")
    options = parser.parse_args(argv)
    source, dest, as_json = options.source, options.dest, options.json
    if not os.path.isdir(source):
        raise CliError(f"not a corpus directory: {source!r}")
    report = ship_corpus(source, dest)
    if as_json:
        print(json.dumps({
            "sites": report.sites,
            "refs": report.refs,
            "blobs_transferred": report.blobs_transferred,
            "blobs_deduped": report.blobs_deduped,
            "bytes_transferred": report.bytes_transferred,
        }, indent=2, sort_keys=True))
    else:
        print(f"shipped {report.sites} site(s) to {dest}")
        print(f"blobs: {report.blobs_transferred} transferred "
              f"({report.bytes_transferred} bytes), "
              f"{report.blobs_deduped} already present")
    return 0


main = main_wrapper(run)

if __name__ == "__main__":
    sys.exit(main())
